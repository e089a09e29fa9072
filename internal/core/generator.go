package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/sqltypes"
)

// Options configure dataset generation.
//
// The JSON encoding of Options is the single declaration of what a
// generated suite depends on: fleet.ContentKey hashes it and failure
// repro bundles (internal/durable) store it for replay. Every field
// therefore carries a JSON name, except the three tagged "-", each of
// which documents why it cannot change the generated bytes or cannot
// be part of a self-contained request.
type Options struct {
	// Unfold expands bounded quantifiers before solving (§VI-B). The
	// paper's experiments show this is dramatically faster; it is the
	// default.
	Unfold bool `json:"unfold"`
	// InputDB, when set, seeds attribute domains with values from an
	// existing database so generated datasets look familiar (§VI-A).
	// Excluded from the encoding: it is data, not a setting, so
	// InputDB-seeded generation is not content-addressable and callers
	// must not cache, route or bundle it (the daemon never sets it).
	InputDB *schema.Dataset `json:"-"`
	// ForceInputTuples additionally constrains every generated tuple to
	// equal some tuple of InputDB (§VI-A). When the constraints become
	// inconsistent the generator retries without them, as the paper
	// describes.
	ForceInputTuples bool `json:"force_input_tuples"`
	// FreshValues is the number of synthetic domain values beyond the
	// query constants (default 8). More values give the solver slack at
	// the cost of search space.
	FreshValues int `json:"fresh_values"`
	// Parallelism is the number of worker goroutines solving kill goals
	// concurrently (see goals.go). <= 0 selects runtime.GOMAXPROCS(0);
	// 1 forces fully sequential generation. The generated Suite is
	// byte-identical for every value: goals are enumerated up front and
	// their results merged in enumeration order. Excluded from the
	// encoding for that reason; a replay uses all CPUs.
	Parallelism int `json:"-"`
	// GoalTimeout bounds the total wall time spent on one kill goal
	// across all of its solver calls and retry attempts (0 = none).
	// When it expires the goal is recorded in Suite.Incomplete and
	// generation continues with the remaining goals.
	GoalTimeout time.Duration `json:"goal_timeout"`
	// MaxDomainSize, when positive, caps the width of the generator's
	// candidate-value pools (the integer pool built from query
	// constants, boundaries, sums/differences, arithmetic-offset
	// closure and input-database values; and the string pool). A pool
	// over the ceiling aborts generation with an error wrapping
	// limits.ErrResourceLimit before any solving starts: solver work
	// grows superlinearly in domain width, so this is the resource-
	// governance backstop against adversarial constant sets and huge
	// input databases. 0 = uncapped (the library default).
	MaxDomainSize int `json:"max_domain_size"`
	// GoalNodeLimit, when positive, bounds solver search nodes per
	// solver call of a kill goal's first attempt and arms the
	// escalating-retry ladder: a goal whose solve exhausts the budget is
	// retried with the limit grown 4x per attempt (3 attempts: 1x, 4x,
	// 16x), plus — when Unfold is off — one final fallback attempt in
	// unfolded mode, the strategy the paper shows to be dramatically
	// cheaper. If every attempt exhausts its budget the goal lands in
	// Suite.Incomplete instead of failing the run. 0 runs one attempt
	// under the solver's default node limit.
	GoalNodeLimit int64 `json:"goal_node_limit"`
	// FailureHook, when set, is called once for each kill goal the
	// generator abandons (budget exhaustion, recovered panic,
	// cancellation), with the same Failure that lands in
	// Suite.Incomplete — the capture point for failure repro bundles,
	// which must be written even when the process dies before the
	// partial Suite is inspected. Goals solve concurrently, so the hook
	// must be safe for concurrent use and should return quickly.
	// Excluded from the encoding and from option validation: it only
	// observes failures and never influences generated bytes.
	FailureHook func(Failure) `json:"-"`
}

// DefaultOptions returns the paper's default configuration.
func DefaultOptions() Options { return Options{Unfold: true} }

// Stats aggregates measurements over one generation run; the benchmark
// harness uses them to regenerate the paper's timing columns.
type Stats struct {
	SolverCalls int
	SatCount    int
	UnsatCount  int
	SolveTime   time.Duration // time inside the constraint solver
	TotalTime   time.Duration // constraint generation + solving
	// SolverNodes and SolverRestarts measure solver work (search nodes,
	// lazy-instantiation restarts): the implementation-independent view
	// of the paper's unfolding ablation.
	SolverNodes    int64
	SolverRestarts int64
	// SolverProblemSize sums constraint counts and candidate-domain
	// cardinalities across all solver calls: a deterministic proxy for
	// problem size (e.g. it grows with the input database in the
	// §VI-C.3 experiment, where search nodes can shrink as the extra
	// constraints improve propagation).
	SolverProblemSize int64
	// LimitCount counts kill goals abandoned after exhausting their
	// node/time budget (every such goal has a Suite.Incomplete entry).
	LimitCount int
	// RetryCount counts escalating retry attempts performed after a
	// budget-exhausted solve, whether or not the goal eventually
	// succeeded.
	RetryCount int
	// PanicCount counts kill-goal panics recovered into
	// Suite.Incomplete entries (fault isolation).
	PanicCount int
	// ComponentCount is the number of connected components the kernel's
	// constraint-graph decomposition produced, summed over all solver
	// calls (0 in quantified mode).
	ComponentCount int64
	// ComponentCacheHits counts components answered from the
	// per-generator component cache instead of being searched. The
	// total is deterministic (singleflight computes each distinct
	// component exactly once), though which goal pays the search nodes
	// for a shared component depends on worker scheduling — the nodes
	// total stays invariant because a hit costs zero nodes.
	ComponentCacheHits int64
	// BasePropagationNodes is the propagation work performed once per
	// shared database-constraint core (solver.PrepareBase fixed points)
	// and reused by every goal attached to it. Counted at build time,
	// once per distinct core, so it measures work actually done — the
	// work *saved* scales with SolverCalls.
	BasePropagationNodes int64
}

// Skip records a dataset that was not generated because its constraints
// are unsatisfiable — which, per the paper, means the targeted mutant
// group is equivalent to the original query.
type Skip struct {
	Purpose string
	Reason  string
}

// Failure reasons recorded in Suite.Incomplete entries.
const (
	// ReasonBudget: the goal exhausted its node/time budget on every
	// attempt (Options.GoalNodeLimit / GoalTimeout).
	ReasonBudget = "node/time budget exhausted"
	// ReasonPanic: the goal's worker panicked; the panic was recovered
	// and isolated to this goal (see Failure.Err, a *GoalError carrying
	// the stack).
	ReasonPanic = "panic (recovered)"
	// ReasonCanceled: the surrounding context was canceled before or
	// while the goal ran.
	ReasonCanceled = "canceled"
)

// Failure records a kill goal the generator had to abandon — budget
// exhaustion, a recovered panic, or cancellation — instead of failing
// the whole run. The mutants the goal targeted may survive the partial
// suite; everything else is unaffected.
type Failure struct {
	// Purpose is the goal's diagnostic label.
	Purpose string
	// Reason is one of the Reason* constants.
	Reason string
	// Attempts is how many solve attempts were made (>1 when the
	// escalating-retry ladder ran).
	Attempts int
	// Nodes is the total solver search nodes spent across attempts.
	Nodes int64
	// Elapsed is the wall time spent on the goal across attempts.
	Elapsed time.Duration
	// Err is the final underlying error: a wrapped solver.ErrLimit, a
	// *GoalError (panic), or a wrapped solver.ErrCanceled.
	Err error
}

func (f Failure) String() string {
	return fmt.Sprintf("%s: %s after %d attempt(s), %d nodes, %v", f.Purpose, f.Reason, f.Attempts, f.Nodes, f.Elapsed.Round(time.Millisecond))
}

// GoalError is a kill-goal panic converted into an error by the worker
// pool's recovery handler: fault isolation turns one crashing goal into
// one Suite.Incomplete entry instead of a crashed process.
type GoalError struct {
	// Purpose is the goal whose worker panicked.
	Purpose string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *GoalError) Error() string {
	return fmt.Sprintf("core: kill goal %q panicked: %v", e.Purpose, e.Value)
}

// ErrPartialSuite is returned (wrapped) by Generate when at least one
// kill goal was abandoned: the Suite is still valid and usable — every
// dataset in it is correct and deterministic — but the goals listed in
// Suite.Incomplete produced no dataset, so their targeted mutants may
// survive. Callers distinguish full from degraded completeness with
// errors.Is(err, ErrPartialSuite).
var ErrPartialSuite = errors.New("core: partial suite: some kill goals incomplete")

// Suite is a generated test suite: the dataset exercising the original
// query plus one dataset per killable mutant group.
type Suite struct {
	Original *schema.Dataset
	Datasets []*schema.Dataset
	Skipped  []Skip
	// Incomplete lists kill goals abandoned on budget exhaustion,
	// recovered panic, or cancellation, in goal-enumeration order. When
	// non-empty, Generate returned ErrPartialSuite.
	Incomplete []Failure
	Stats      Stats
}

// All returns the original dataset followed by the kill datasets.
func (s *Suite) All() []*schema.Dataset {
	out := make([]*schema.Dataset, 0, len(s.Datasets)+1)
	if s.Original != nil {
		out = append(out, s.Original)
	}
	return append(out, s.Datasets...)
}

// Generator produces test suites for one query.
type Generator struct {
	q    *qtree.Query
	opts Options

	intPool []int64
	strPool *stringPool
	// likeCodes maps each of the query's LIKE patterns to its
	// likeSatCodes, matched once the string pool is built.
	likeCodes map[*qtree.LikeSpec][]int64

	// Solver-microarchitecture caches shared by every kill goal of this
	// generator (and across Generate calls — a warm generator solves
	// faster and reports lower work counters, but produces byte-identical
	// suites). mu guards the two lazy maps; the component cache has its
	// own internal synchronization. See problem.go for the layout/base
	// construction.
	mu      sync.Mutex
	layouts map[layoutKey]*problemLayout
	bases   map[baseKey]*solver.Base
	comp    *solver.ComponentCache
	// Candidate domains shared by every layout (see attrDomain), also
	// guarded by mu: pools holds the per-kind pools used without an
	// input database, relDomains the per-attribute domains used with
	// one.
	pools      [3]*domain
	relDomains map[string][]*domain
	// order is relationOrder's result, computed with the first layout
	// (also guarded by mu).
	order    []*schema.Relation
	orderErr error
	// fkClosure is the schema's foreign-key closure, computed once by
	// referencersOf.
	fkOnce    sync.Once
	fkClosure []schema.FKEdge
	// arenas recycles per-solve solver allocations (solver.Arena):
	// problem.solve checks one out per solver call and returns it
	// afterwards, so each in-flight solve holds its own arena (arenas
	// are not concurrency-safe) while a steady-state goal stream reuses
	// a handful of warmed ones instead of reallocating per solve. A
	// generator-owned free list (guarded by arenaMu) rather than a
	// sync.Pool: the workload's GC cadence would evict pooled arenas
	// every couple of solves, re-paying the warm-up allocations the
	// arena exists to amortize.
	arenaMu sync.Mutex
	arenas  []*solver.Arena
}

// getArena checks a warmed arena out of the generator's free list (or
// returns a fresh one); putArena returns it. At most Parallelism solves
// are in flight, so the list stays that small.
func (g *Generator) getArena() *solver.Arena {
	g.arenaMu.Lock()
	defer g.arenaMu.Unlock()
	if n := len(g.arenas); n > 0 {
		a := g.arenas[n-1]
		g.arenas = g.arenas[:n-1]
		return a
	}
	return &solver.Arena{}
}

func (g *Generator) putArena(a *solver.Arena) {
	g.arenaMu.Lock()
	defer g.arenaMu.Unlock()
	g.arenas = append(g.arenas, a)
}

// NewGenerator prepares a generator, building the interesting-value
// domains for the query: all constants appearing in predicates, ±1
// boundary neighbours, pairwise sums and differences (for arithmetic
// join conditions), input-database values when provided, and a band of
// fresh values. For the paper's query class these domains suffice to
// find a model whenever one exists over the integers (small-model
// property of conjunctions of linear comparisons).
func NewGenerator(q *qtree.Query, opts Options) *Generator {
	// Only the zero value selects the default: a negative count is a
	// caller bug, preserved here so Options.Validate (run by Generate/
	// GenerateContext) can reject it with ErrBadOptions.
	if opts.FreshValues == 0 {
		opts.FreshValues = 8
	}
	g := &Generator{q: q, opts: opts, comp: solver.NewComponentCache()}
	if opts.MaxDomainSize > 0 && opts.FreshValues > opts.MaxDomainSize {
		// The integer pool always holds 0..FreshValues-1, so these
		// pools could only fail checkDomainCeiling; skip building them
		// (the string pool's fresh names grow quadratically in bytes)
		// and let GenerateContext report the ceiling.
		return g
	}

	intSet := map[int64]bool{}
	strSet := map[string]bool{}
	var consts, arithOffsets []int64
	var likes []*qtree.LikeSpec
	collectPred := func(p *qtree.Pred) {
		if p.Like != nil {
			likes = append(likes, p.Like)
			// The pattern itself plus matching witnesses (wildcards
			// expanded several ways) for the original pattern and each of
			// its mutation-space variants, so the finite string domain can
			// separate every pattern pair.
			seedLikeWitnesses(strSet, p.Like.Pattern)
			for _, v := range p.Like.WildcardVariants() {
				seedLikeWitnesses(strSet, v.Pattern)
			}
			collectScalarConsts(p.L, &consts, &arithOffsets, strSet)
			return
		}
		for _, s := range []*qtree.Scalar{p.L, p.R} {
			collectScalarConsts(s, &consts, &arithOffsets, strSet)
		}
	}
	for _, p := range q.Preds {
		collectPred(p)
	}
	for _, sub := range q.Subs {
		for _, p := range sub.Preds {
			collectPred(p)
		}
		if sub.Outer != nil {
			collectScalarConsts(sub.Outer, &consts, &arithOffsets, strSet)
		}
	}
	if q.Agg != nil {
		for _, h := range q.Agg.Having {
			switch h.Rhs.Kind() {
			case sqltypes.KindInt:
				consts = append(consts, h.Rhs.Int())
			case sqltypes.KindString:
				strSet[h.Rhs.Str()] = true
			}
		}
	}
	for _, c := range consts {
		intSet[c-1] = true
		intSet[c] = true
		intSet[c+1] = true
	}
	for _, a := range consts {
		for _, b := range consts {
			intSet[a+b] = true
			intSet[a-b] = true
		}
	}
	for i := 0; i < opts.FreshValues; i++ {
		intSet[int64(i)] = true
	}
	// Close the pool under the arithmetic offsets appearing inside
	// SArith scalars (join conditions like a.x + k = b.y). A comparison
	// constant c admits boundary values c±1; if the query then chains
	// that boundary through an arithmetic join, the partner column
	// needs (c±1)±k — two hops from any collected constant, which the
	// one-level sums/differences above miss. Without this round the
	// finite domain wrongly declares such queries UNSAT and comparison
	// kills are silently skipped (found by randql seed 10518:
	// t2_id > 6 AND t0_id = t2_id + 1 needs 8 = (6+1)+1 in the pool).
	if len(arithOffsets) > 0 {
		base := make([]int64, 0, len(intSet))
		for v := range intSet {
			base = append(base, v)
		}
		for _, v := range base {
			for _, k := range arithOffsets {
				intSet[v+k] = true
				intSet[v-k] = true
			}
		}
	}
	if opts.InputDB != nil {
		for _, t := range opts.InputDB.TableNames() {
			for _, row := range opts.InputDB.Rows(t) {
				for _, v := range row {
					switch v.Kind() {
					case sqltypes.KindInt:
						intSet[v.Int()] = true
					case sqltypes.KindString:
						strSet[v.Str()] = true
					case sqltypes.KindFloat:
						intSet[int64(v.Float())] = true
					}
				}
			}
		}
	}
	for v := range intSet {
		g.intPool = append(g.intPool, v)
	}
	sort.Slice(g.intPool, func(i, j int) bool { return g.intPool[i] < g.intPool[j] })

	g.strPool = newStringPool(strSet, opts.FreshValues)
	if len(likes) > 0 {
		codes := make(map[*qtree.LikeSpec][]int64, len(likes))
		for _, like := range likes {
			codes[like] = g.likeSatCodes(like)
		}
		g.likeCodes = codes
	}
	return g
}

// collectScalarConsts gathers the integer and string constants of a
// scalar. Integer constants that appear as operands of an arithmetic
// node are additionally recorded in arith: they act as offsets between
// column values, and the value pool must be closed under adding and
// subtracting them (see NewGenerator).
func collectScalarConsts(s *qtree.Scalar, ints, arith *[]int64, strs map[string]bool) {
	switch s.Kind {
	case qtree.SConst:
		switch s.Const.Kind() {
		case sqltypes.KindInt:
			*ints = append(*ints, s.Const.Int())
		case sqltypes.KindFloat:
			*ints = append(*ints, int64(s.Const.Float()))
		case sqltypes.KindString:
			strs[s.Const.Str()] = true
		}
	case qtree.SArith:
		for _, side := range []*qtree.Scalar{s.L, s.R} {
			if side.Kind == qtree.SConst && side.Const.Kind() == sqltypes.KindInt {
				*arith = append(*arith, side.Const.Int())
			}
			collectScalarConsts(side, ints, arith, strs)
		}
	}
}

// domain is a candidate domain with its per-slot rotations.
type domain struct {
	vals []int64
	rot  [][]int64 // rot[k] is vals rotated left by k; rot[0] is vals
}

// rotated returns the domain rotated left by slot index k, building each
// rotation once.
func (d *domain) rotated(k int) []int64 {
	for len(d.rot) <= k {
		d.rot = append(d.rot, rotateDomain(d.vals, len(d.rot)))
	}
	return d.rot[k]
}

// boolPool is the candidate domain of boolean attributes.
var boolPool = []int64{0, 1}

// attrDomain returns the candidate values of rel's attribute ai,
// ordered by preference. With an input database, that column's values
// come first so generated data looks familiar (§VI-A). Slot k of a
// relation takes the domain rotated by k (domain.rotated), so sibling
// tuples of one relation try *distinct* values first: equalities
// demanded by the query are already enforced by the solver's union-find
// merging, while the chase, the NOT-EXISTS nullifications and the
// aggregation constraint sets all want distinct tuples — starting them
// apart avoids deep backtracking.
//
// Domains are built once per generator and shared by every layout and
// slot; the solver never mutates a domain. Without an input database
// an attribute's domain is its kind's pool, already duplicate-free;
// with one, each (relation, attribute) gets the column's values
// followed by the pool, deduplicated once. Caller holds g.mu.
func (g *Generator) attrDomain(rel *schema.Relation, ai int) *domain {
	a := rel.Attrs[ai]
	if g.opts.InputDB == nil {
		pi, vals := g.pool(a.Type)
		if g.pools[pi] == nil {
			g.pools[pi] = &domain{vals: vals}
		}
		return g.pools[pi]
	}
	doms := g.relDomains[rel.Name]
	if doms == nil {
		if g.relDomains == nil {
			g.relDomains = map[string][]*domain{}
		}
		doms = make([]*domain, len(rel.Attrs))
		g.relDomains[rel.Name] = doms
	}
	if doms[ai] == nil {
		doms[ai] = &domain{vals: g.inputDomain(rel, a)}
	}
	return doms[ai]
}

// pool returns the candidate pool of an attribute kind — the integer
// pool, the string pool's preference order, or {0, 1} — with its index
// in g.pools. Callers must not mutate it.
func (g *Generator) pool(k sqltypes.Kind) (int, []int64) {
	switch k {
	case sqltypes.KindString:
		return 1, g.strPool.pref
	case sqltypes.KindBool:
		return 2, boolPool
	default:
		return 0, g.intPool
	}
}

// inputDomain is an attribute's preference order with an input
// database: the column's distinct input values in first-occurrence
// order, then the values of its kind's pool not among them. The pool is
// duplicate-free already, so only membership in the input values is
// checked — by scanning while they are few, by a set beyond that.
func (g *Generator) inputDomain(rel *schema.Relation, a schema.Attribute) []int64 {
	const scanLimit = 32
	var head []int64
	var inHead map[int64]bool
	has := func(v int64) bool {
		if inHead != nil {
			return inHead[v]
		}
		for _, w := range head {
			if w == v {
				return true
			}
		}
		return false
	}
	pos := rel.AttrPos(a.Name)
	for _, row := range g.opts.InputDB.Rows(rel.Name) {
		code, ok := g.encodeValue(row[pos])
		if !ok || has(code) {
			continue
		}
		head = append(head, code)
		if inHead != nil {
			inHead[code] = true
		} else if len(head) > scanLimit {
			inHead = make(map[int64]bool, 2*len(head))
			for _, w := range head {
				inHead[w] = true
			}
		}
	}
	_, pool := g.pool(a.Type)
	out := append(make([]int64, 0, len(head)+len(pool)), head...)
	for _, v := range pool {
		if !has(v) {
			out = append(out, v)
		}
	}
	return out
}

// rotateDomain returns dom rotated left by slotIdx (a fresh slice when
// rotation applies; the input otherwise), so sibling tuples of one
// relation try distinct values first — see attrDomain.
func rotateDomain(dom []int64, slotIdx int) []int64 {
	if slotIdx <= 0 || len(dom) < 2 {
		return dom
	}
	rot := slotIdx % len(dom)
	rotated := make([]int64, 0, len(dom))
	rotated = append(rotated, dom[rot:]...)
	rotated = append(rotated, dom[:rot]...)
	return rotated
}

// encodeValue maps a SQL value to its solver integer. Strings must be in
// the pool.
func (g *Generator) encodeValue(v sqltypes.Value) (int64, bool) {
	switch v.Kind() {
	case sqltypes.KindInt:
		return v.Int(), true
	case sqltypes.KindFloat:
		return int64(v.Float()), true
	case sqltypes.KindString:
		c, ok := g.strPool.code[v.Str()]
		return c, ok
	case sqltypes.KindBool:
		if v.Bool() {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// decodeValue maps a solver integer back to a SQL value of the column's
// kind.
func (g *Generator) decodeValue(k sqltypes.Kind, code int64) sqltypes.Value {
	switch k {
	case sqltypes.KindString:
		return sqltypes.NewString(g.strPool.decode(code))
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(float64(code))
	case sqltypes.KindBool:
		return sqltypes.NewBool(code != 0)
	default:
		return sqltypes.NewInt(code)
	}
}

// Generate runs the full Algorithm 1: a dataset satisfying the original
// query, then datasets killing join-type mutants (via equivalence classes
// and non-equi join predicates), comparison-operator mutants, and
// aggregation mutants. Unsatisfiable constraint systems are recorded as
// skips: they correspond to equivalent mutants.
//
// Generation runs as a two-phase kill-goal pipeline (see goals.go): the
// independent dataset targets are enumerated first, then solved on a
// worker pool of Options.Parallelism goroutines with per-goal solver
// instances. Results are merged in enumeration order, so the returned
// Suite is identical for every worker count.
func (g *Generator) Generate() (*Suite, error) {
	return g.GenerateContext(context.Background())
}

// GenerateContext is Generate with cooperative cancellation and fault
// isolation. Robustness contract:
//
//   - ctx cancellation propagates into every in-flight solver call
//     (checked every ~1024 search nodes) and returns promptly; goals
//     finished before the cancellation stay in the Suite, the rest are
//     recorded in Suite.Incomplete with ReasonCanceled.
//   - a goal exhausting its budget (Options.GoalNodeLimit with the
//     escalating-retry ladder, or Options.GoalTimeout) is recorded in
//     Suite.Incomplete with ReasonBudget; generation continues.
//   - a panicking goal worker is recovered, converted into a *GoalError
//     (purpose + stack) and recorded with ReasonPanic; generation
//     continues.
//
// When Suite.Incomplete is non-empty the returned error wraps
// ErrPartialSuite (and the context error, if cancellation caused it);
// the Suite is still returned and safe to use. Hard errors — an
// unsupported query construct, an invalid extracted dataset — remain
// fatal and return a nil suite.
func (g *Generator) GenerateContext(ctx context.Context) (*Suite, error) {
	if err := g.opts.Validate(); err != nil {
		return nil, err
	}
	if err := g.checkDomainCeiling(); err != nil {
		return nil, err
	}
	start := time.Now()
	subs, err := g.runGoals(ctx, g.enumerateGoals())
	if err != nil {
		return nil, err
	}
	suite := &Suite{}
	for _, sub := range subs {
		mergeInto(suite, sub)
	}
	suite.Stats.TotalTime = time.Since(start)
	if len(suite.Incomplete) > 0 {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return suite, fmt.Errorf("%w: %w", ErrPartialSuite, ctxErr)
		}
		return suite, fmt.Errorf("%w (%d of %d goals)", ErrPartialSuite, len(suite.Incomplete), len(subs))
	}
	return suite, nil
}

// buildDataset constructs a problem, applies build, asserts the database
// constraints, and solves. A nil dataset with nil error means UNSAT (an
// equivalent mutant group), which is recorded on the suite.
//
// When the query carries a HAVING clause, the goal's tuple sets alone
// need not survive the group filter — a dataset whose group fails HAVING
// shows nothing at the root, so no mutant is killed. The wrapper bulks
// the group with filler tuple sets that satisfy the full query until the
// statically-checkable HAVING conjuncts can hold, and asserts every
// conjunct over the combined group (assertHavingHolds). Goals that manage
// the HAVING clause themselves call buildDatasetRaw.
func (g *Generator) buildDataset(gb *goalBudget, suite *Suite, purpose string, tupleSets int, needRepair bool, build func(*problem) error) (*schema.Dataset, error) {
	if g.q.Agg == nil || len(g.q.Agg.Having) == 0 {
		return g.buildDatasetRaw(gb, suite, purpose, tupleSets, needRepair, build)
	}
	n := tupleSets
	if need := g.neededHavingSets(); need > n {
		n = need
	}
	return g.buildDatasetRaw(gb, suite, purpose, n, needRepair, func(p *problem) error {
		if err := build(p); err != nil {
			return err
		}
		for set := tupleSets; set < n; set++ {
			if p.fillerConds != nil {
				if err := p.fillerConds(set); err != nil {
					return err
				}
				continue
			}
			if err := p.assertQueryConds(set, nil, nil); err != nil {
				return err
			}
		}
		return p.assertHavingHolds(n, -1, 0)
	})
}

// buildDatasetRaw is buildDataset without the HAVING group augmentation.
func (g *Generator) buildDatasetRaw(gb *goalBudget, suite *Suite, purpose string, tupleSets int, needRepair bool, build func(*problem) error) (*schema.Dataset, error) {
	ds, err := g.tryBuild(gb, suite, purpose, tupleSets, needRepair, g.opts.ForceInputTuples, build)
	if err == nil && ds == nil && g.opts.ForceInputTuples {
		// §VI-A: input-database constraints can be inconsistent with the
		// kill constraints; retry without them.
		return g.tryBuild(gb, suite, purpose+" (input-db constraints relaxed)", tupleSets, needRepair, false, build)
	}
	return ds, err
}

func (g *Generator) tryBuild(gb *goalBudget, suite *Suite, purpose string, tupleSets int, needRepair, forceInput bool, build func(*problem) error) (*schema.Dataset, error) {
	// Fast-fail before constructing the constraint system when the goal
	// (or the whole run) has already been canceled or timed out.
	if err := gb.ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %s: %w (%w)", purpose, solver.ErrCanceled, err)
	}
	p, err := g.newProblem(tupleSets, needRepair)
	if err != nil {
		return nil, err
	}
	// Thread the input-tuple toggle through the problem rather than
	// mutating shared Generator options: goals solve concurrently.
	p.forceInput = forceInput
	if err := build(p); err != nil {
		return nil, fmt.Errorf("core: %s: %w", purpose, err)
	}
	// Shared-core path: when this attempt will run the bitset kernel and
	// the goal did not disable any foreign key (patchNull), attach the
	// pre-propagated database-constraint core instead of re-asserting —
	// and re-flattening, re-compiling, re-propagating — it per goal. The
	// constraints build(p) asserted become the goal's delta.
	if g.useSharedCore(gb, p) {
		b, built, err := g.baseFor(tupleSets, needRepair, forceInput)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", purpose, err)
		}
		if built {
			// Accounted once per distinct core, by whichever goal built
			// it; the suite-level sum is deterministic either way.
			suite.Stats.BasePropagationNodes += b.PropagationNodes()
		}
		p.s.AttachBase(b)
	} else {
		p.assertDBConstraints()
	}

	t0 := time.Now()
	m, err := p.solve(gb, purpose)
	suite.Stats.SolveTime += time.Since(t0)
	suite.Stats.SolverCalls++
	st := p.s.LastStats()
	suite.Stats.SolverNodes += st.Nodes
	suite.Stats.SolverRestarts += st.Restarts
	suite.Stats.SolverProblemSize += p.s.ProblemSize()
	suite.Stats.ComponentCount += st.ComponentCount
	suite.Stats.ComponentCacheHits += st.ComponentCacheHits
	switch {
	case err == nil:
		suite.Stats.SatCount++
		return p.extract(m, purpose)
	case errors.Is(err, solver.ErrUnsat):
		suite.Stats.UnsatCount++
		suite.Skipped = append(suite.Skipped, Skip{Purpose: purpose, Reason: "constraints unsatisfiable: targeted mutants are equivalent"})
		return nil, nil
	default:
		return nil, fmt.Errorf("core: %s: %w", purpose, err)
	}
}

// useSharedCore reports whether this attempt should attach the shared
// pre-propagated database-constraint core instead of asserting the
// constraints per goal. Requirements: the goal did not suppress any
// foreign key (skipFK goals assert a filtered constraint set the core
// does not match), and the attempt will solve unfolded — quantified
// mode cannot use an attached base (the solver refuses with an error
// rather than miscompute, see solver.AttachBase).
func (g *Generator) useSharedCore(gb *goalBudget, p *problem) bool {
	if p.skipFK != nil {
		return false
	}
	if gb.unfold != nil {
		return *gb.unfold
	}
	return g.opts.Unfold
}

// addIfGenerated appends a dataset when generation succeeded.
func (suite *Suite) addIfGenerated(ds *schema.Dataset) {
	if ds != nil {
		suite.Datasets = append(suite.Datasets, ds)
	}
}
