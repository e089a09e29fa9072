package mutation

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/sqltypes"
)

// Report is the kill matrix of a mutant space against a test suite: which
// datasets kill which mutants.
type Report struct {
	Query    *qtree.Query
	Mutants  []*Mutant
	Datasets []*schema.Dataset
	// Killed[m][d] is true when dataset d kills mutant m.
	Killed [][]bool
	// Exec counts what the engine did during evaluation (plan runs,
	// batches built, join strategies, family-prefix and result-memo
	// cache hits).
	Exec engine.ExecCounts
}

// EvalOptions configure kill-matrix evaluation.
type EvalOptions struct {
	// Parallelism is the number of worker goroutines evaluating
	// (mutant plan, dataset) cells. <= 0 selects runtime.GOMAXPROCS(0);
	// 1 evaluates sequentially. The Report is identical for every
	// value.
	Parallelism int
}

// EvalError reports a query-execution failure during kill-matrix
// evaluation, naming both the mutant (empty for the original query) and
// the dataset it ran on.
type EvalError struct {
	Mutant  string // mutant description; "" when the original query failed
	Dataset int    // dataset index within the evaluated suite
	Purpose string // dataset purpose label
	Err     error
}

func (e *EvalError) Error() string {
	who := "original query"
	if e.Mutant != "" {
		who = "mutant " + e.Mutant
	}
	return fmt.Sprintf("mutation: %s on dataset %d (%s): %v", who, e.Dataset, e.Purpose, e.Err)
}

func (e *EvalError) Unwrap() error { return e.Err }

// Evaluate runs the original query and every mutant on every dataset.
// A mutant is killed by a dataset when the two results differ as
// multisets (the paper's definition). It evaluates with default options
// (all CPUs); see EvaluateOpts for explicit control.
func Evaluate(q *qtree.Query, mutants []*Mutant, datasets []*schema.Dataset) (*Report, error) {
	return EvaluateOpts(q, mutants, datasets, EvalOptions{})
}

// EvaluateContext is EvaluateOpts with cooperative cancellation: the
// context is checked before every (plan, dataset) cell, in the sequential
// loop and in every worker, so a canceled evaluation returns promptly
// (within one cell execution) with the context's error and no report.
// Workers are always joined before returning; no goroutines outlive the
// call.
func EvaluateContext(ctx context.Context, q *qtree.Query, mutants []*Mutant, datasets []*schema.Dataset, opts EvalOptions) (*Report, error) {
	return evaluate(ctx, q, mutants, datasets, opts)
}

// planSignature returns a canonical execution identity for a plan: two
// plans with equal signatures produce multiset-equal results on every
// dataset (Canon folds commutative inner-join orders and right-to-left
// outer-join symmetry; projection and aggregation depend only on the
// query, the predicate list and the aggregate list).
func planSignature(p *engine.Plan) string {
	var sb strings.Builder
	if p.Tree != nil {
		sb.WriteString(Canon(p.Tree))
	}
	for _, pr := range p.Preds {
		sb.WriteByte('|')
		sb.WriteString(pr.String())
	}
	for _, a := range p.Aggs {
		sb.WriteByte('|')
		sb.WriteString(a.String())
	}
	for _, s := range p.Subs {
		sb.WriteByte('|')
		sb.WriteString(s.String())
	}
	for _, h := range p.Having {
		sb.WriteByte('|')
		sb.WriteString(h.String())
	}
	return sb.String()
}

// EvaluateOpts is Evaluate with explicit options. The evaluation is a
// parallel pipeline over (unique plan, dataset) cells:
//
//   - the original query's result is computed once per dataset (lazily,
//     guarded by sync.Once) and shared by every cell of that dataset —
//     its multiset is memoized inside engine.Result, so each comparison
//     is a map walk, not a rebuild;
//   - mutant plans are deduplicated by plan signature before any cell
//     runs: distinct join orders frequently compile to the same
//     canonical tree (e.g. the written tree's mutant re-derived from a
//     reordered equivalent), and each unique plan executes once per
//     dataset, with the kill bit broadcast to every mutant sharing the
//     signature.
//
// Kill bits are pure functions of (plan, dataset), so the Report is
// deterministic regardless of worker count or scheduling.
func EvaluateOpts(q *qtree.Query, mutants []*Mutant, datasets []*schema.Dataset, opts EvalOptions) (*Report, error) {
	return evaluate(context.Background(), q, mutants, datasets, opts)
}

func evaluate(ctx context.Context, q *qtree.Query, mutants []*Mutant, datasets []*schema.Dataset, opts EvalOptions) (*Report, error) {
	rep := &Report{Query: q, Mutants: mutants, Datasets: datasets, Killed: make([][]bool, len(mutants))}
	for i := range rep.Killed {
		rep.Killed[i] = make([]bool, len(datasets))
	}
	if len(mutants) == 0 || len(datasets) == 0 {
		return rep, nil
	}

	// Deduplicate mutant plans by execution signature.
	planOf := make([]int, len(mutants)) // mutant index -> unique plan index
	var plans []*engine.Plan
	var planDesc []string // representative mutant description per plan
	sigIdx := map[string]int{}
	for mi, m := range mutants {
		sig := m.planSig()
		ui, ok := sigIdx[sig]
		if !ok {
			ui = len(plans)
			sigIdx[sig] = ui
			plans = append(plans, m.Plan)
			planDesc = append(planDesc, m.Desc)
		}
		planOf[mi] = ui
	}

	// Engine strategy: one stats block for the whole evaluation and one
	// shared subtree cache per worker, reset between datasets. The
	// plans of a mutant family differ in a single component, so their
	// compiled trees overlap heavily; the cache evaluates each distinct
	// subtree once per dataset and every plan sharing it — including
	// the original query — reuses the batch. Reusing one cache per
	// worker (instead of one per dataset) keeps the map storage warm:
	// after the worker's largest family the cache allocates no new
	// buckets.
	stats := &engine.ExecStats{}
	runOpts := func(sc *engine.SharedCache) engine.RunOptions {
		return engine.RunOptions{Stats: stats, Cache: sc}
	}
	defer func() { rep.Exec = stats.Counts() }()

	// Compile the original and every unique plan before any cell runs,
	// as one family: the family's join trees overlap, and each distinct
	// subtree is compiled once per evaluation. The cells run the
	// compiled copies, so the family is this evaluation's alone, however
	// many evaluations share the mutants. A plan's compile error
	// surfaces from its first cell, naming the mutant.
	compiled, err := engine.CompilePlans(ctx, append([]*engine.Plan{engine.NewPlan(q)}, plans...))
	if err != nil {
		return nil, fmt.Errorf("mutation: evaluation canceled: %w", err)
	}
	origPlan, plans := compiled[0], compiled[1:]

	// Original-query results, one per dataset, computed lazily by
	// whichever cell needs them first (hoisted out of every retry/mutant
	// path: exactly one run per dataset).
	wants := make([]*engine.Result, len(datasets))
	wantErrs := make([]error, len(datasets))
	wantOnce := make([]sync.Once, len(datasets))
	getWant := func(di int, sc *engine.SharedCache) (*engine.Result, error) {
		wantOnce[di].Do(func() {
			res, err := origPlan.RunOpts(datasets[di], runOpts(sc))
			if err != nil {
				wantErrs[di] = &EvalError{Dataset: di, Purpose: datasets[di].Purpose, Err: err}
				return
			}
			wants[di] = res
		})
		return wants[di], wantErrs[di]
	}

	// Evaluate one (unique plan, dataset) cell.
	killedU := make([][]bool, len(plans))
	for ui := range killedU {
		killedU[ui] = make([]bool, len(datasets))
	}
	runCell := func(di, ui int, sc *engine.SharedCache) error {
		select {
		case <-ctx.Done():
			// Done is a closed-channel poll, much cheaper per cell than
			// ctx.Err()'s mutex; Err() is only consulted on cancellation.
			return fmt.Errorf("mutation: evaluation canceled: %w", ctx.Err())
		default:
		}
		want, err := getWant(di, sc)
		if err != nil {
			return err
		}
		got, err := plans[ui].RunOpts(datasets[di], runOpts(sc))
		if err != nil {
			return &EvalError{Mutant: planDesc[ui], Dataset: di, Purpose: datasets[di].Purpose, Err: err}
		}
		killedU[ui][di] = !want.Equal(got)
		return nil
	}
	// Every plan of one dataset runs in one unit: the worker's
	// SharedCache is touched by exactly one goroutine (its correctness
	// contract), reset at each dataset boundary, and the family's
	// sharing is maximal within the unit.
	runDataset := func(di int, sc *engine.SharedCache) error {
		sc.Reset()
		for ui := range plans {
			if err := runCell(di, ui, sc); err != nil {
				return err
			}
		}
		return nil
	}

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(datasets) {
		workers = len(datasets)
	}
	if workers <= 1 {
		sc := engine.NewSharedCacheSized(len(plans))
		for di := range datasets {
			if err := runDataset(di, sc); err != nil {
				return nil, err
			}
		}
	} else {
		dsErrs := make([]error, len(datasets))
		var next int64 = -1
		var failed atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := engine.NewSharedCacheSized(len(plans))
				for {
					di := int(atomic.AddInt64(&next, 1))
					if di >= len(datasets) || failed.Load() {
						return
					}
					if err := runDataset(di, sc); err != nil {
						dsErrs[di] = err
						failed.Store(true)
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range dsErrs {
			if err != nil {
				return nil, err
			}
		}
	}

	// Broadcast unique-plan kill bits to every mutant sharing the plan.
	for mi := range mutants {
		copy(rep.Killed[mi], killedU[planOf[mi]])
	}
	return rep, nil
}

// KilledCount returns how many mutants are killed by at least one
// dataset.
func (r *Report) KilledCount() int {
	n := 0
	for mi := range r.Mutants {
		if r.MutantKilled(mi) {
			n++
		}
	}
	return n
}

// MutantKilled reports whether mutant mi is killed by any dataset.
func (r *Report) MutantKilled(mi int) bool {
	for _, k := range r.Killed[mi] {
		if k {
			return true
		}
	}
	return false
}

// Survivors returns the indices of mutants killed by no dataset.
func (r *Report) Survivors() []int {
	var out []int
	for mi := range r.Mutants {
		if !r.MutantKilled(mi) {
			out = append(out, mi)
		}
	}
	return out
}

// KillsByKind tallies killed/total per mutant kind.
func (r *Report) KillsByKind() map[Kind][2]int {
	out := map[Kind][2]int{}
	for mi, m := range r.Mutants {
		c := out[m.Kind]
		c[1]++
		if r.MutantKilled(mi) {
			c[0]++
		}
		out[m.Kind] = c
	}
	return out
}

// String renders a summary table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mutants: %d, datasets: %d, killed: %d\n", len(r.Mutants), len(r.Datasets), r.KilledCount())
	kinds := r.KillsByKind()
	var ks []string
	for k := range kinds {
		ks = append(ks, string(k))
	}
	sort.Strings(ks)
	for _, k := range ks {
		c := kinds[Kind(k)]
		fmt.Fprintf(&sb, "  %-12s %d/%d killed\n", k, c[0], c[1])
	}
	return sb.String()
}

// EquivalenceChecker tests surviving mutants for equivalence by running
// original and mutant on many random schema-valid databases. It automates
// the paper's manual verification ("we manually verified that every
// mutation that was not killed was in fact an equivalent mutation").
type EquivalenceChecker struct {
	Trials int
	// MaxRows bounds random table sizes (small tables make collisions —
	// and therefore interesting join behaviour — likely).
	MaxRows int
	Seed    int64
}

// NewEquivalenceChecker returns a checker with sensible defaults.
func NewEquivalenceChecker(seed int64) *EquivalenceChecker {
	return &EquivalenceChecker{Trials: 120, MaxRows: 3, Seed: seed}
}

// Check runs the randomized test. It returns (true, nil) when no
// difference was found in any trial (the mutant is probably equivalent),
// or (false, witness) with a dataset on which the results differ.
func (c *EquivalenceChecker) Check(q *qtree.Query, m *Mutant) (bool, *schema.Dataset, error) {
	rng := rand.New(rand.NewSource(c.Seed))
	orig := engine.NewPlan(q)
	for trial := 0; trial < c.Trials; trial++ {
		ds, err := RandomDataset(q, rng, c.MaxRows)
		if err != nil {
			return false, nil, err
		}
		want, err := orig.Run(ds)
		if err != nil {
			return false, nil, err
		}
		got, err := m.Plan.Run(ds)
		if err != nil {
			return false, nil, err
		}
		if !want.Equal(got) {
			ds.Purpose = fmt.Sprintf("witness distinguishing mutant %q (trial %d)", m.Desc, trial)
			return false, ds, nil
		}
	}
	return true, nil, nil
}

// RandomDataset generates a random dataset that satisfies the schema's
// primary- and foreign-key constraints, covering the relations used by
// the query plus everything transitively referenced. Values are drawn
// from a small pool so joins and selections have a realistic chance of
// matching.
func RandomDataset(q *qtree.Query, rng *rand.Rand, maxRows int) (*schema.Dataset, error) {
	rels, err := relationsClosure(q)
	if err != nil {
		return nil, err
	}
	// Collect the constants appearing in query predicates per kind, so
	// selections are sometimes satisfied.
	intPool := []int64{0, 1, 2}
	strPool := []string{"u", "v", "w"}
	collectPred := func(p *qtree.Pred) {
		if p.Like != nil {
			// Seed the string pool with a matching and a near-miss
			// witness so pattern predicates are sometimes satisfied.
			strPool = append(strPool, likeWitness(p.Like.Pattern), likeWitness(p.Like.Pattern)+"x")
			collectConsts(p.L, &intPool, &strPool)
			return
		}
		for _, s := range []*qtree.Scalar{p.L, p.R} {
			collectConsts(s, &intPool, &strPool)
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
			collectConsts(sub.Outer, &intPool, &strPool)
		}
	}
	if q.Agg != nil {
		for _, h := range q.Agg.Having {
			switch h.Rhs.Kind() {
			case sqltypes.KindInt:
				v := h.Rhs.Int()
				intPool = append(intPool, v-1, v, v+1)
			case sqltypes.KindString:
				strPool = append(strPool, h.Rhs.Str())
			}
		}
	}

	ds := schema.NewDataset("random")
	for _, rel := range rels { // topological: referenced relations first
		nRows := rng.Intn(maxRows + 1)
		// Relations appearing in the query should usually be non-empty.
		if nRows == 0 && rng.Intn(2) == 0 {
			nRows = 1
		}
		seenPK := map[string]bool{}
		for i := 0; i < nRows; i++ {
			row := make(sqltypes.Row, rel.Arity())
			ok := true
			for ci, a := range rel.Attrs {
				row[ci] = randomValue(a.Type, rng, intPool, strPool)
			}
			// Satisfy FKs by copying from a random referenced row.
			for _, fk := range rel.ForeignKeys {
				refRows := ds.Rows(fk.RefTable)
				if len(refRows) == 0 {
					ok = false
					break
				}
				ref := refRows[rng.Intn(len(refRows))]
				refRel := q.Schema.Relation(fk.RefTable)
				for k, col := range fk.Columns {
					row[rel.AttrPos(col)] = ref[refRel.AttrPos(fk.RefColumns[k])]
				}
			}
			if !ok {
				continue
			}
			if len(rel.PrimaryKey) > 0 {
				var key sqltypes.Row
				for _, c := range rel.PrimaryKey {
					key = append(key, row[rel.AttrPos(c)])
				}
				if seenPK[key.Key()] {
					continue
				}
				seenPK[key.Key()] = true
			}
			ds.Insert(rel.Name, row)
		}
	}
	if err := q.Schema.CheckDataset(ds); err != nil {
		return nil, fmt.Errorf("mutation: random dataset invalid: %w", err)
	}
	return ds, nil
}

// likeWitness builds a string matching the pattern: wildcards collapse
// to the shortest match (% to the empty string, _ to one byte).
func likeWitness(pat string) string {
	var sb strings.Builder
	for i := 0; i < len(pat); i++ {
		switch pat[i] {
		case '%':
		case '_':
			sb.WriteByte('a')
		default:
			sb.WriteByte(pat[i])
		}
	}
	return sb.String()
}

func collectConsts(s *qtree.Scalar, intPool *[]int64, strPool *[]string) {
	switch s.Kind {
	case qtree.SConst:
		switch s.Const.Kind() {
		case sqltypes.KindInt:
			v := s.Const.Int()
			*intPool = append(*intPool, v-1, v, v+1)
		case sqltypes.KindString:
			*strPool = append(*strPool, s.Const.Str())
		}
	case qtree.SArith:
		collectConsts(s.L, intPool, strPool)
		collectConsts(s.R, intPool, strPool)
	}
}

func randomValue(k sqltypes.Kind, rng *rand.Rand, intPool []int64, strPool []string) sqltypes.Value {
	switch k {
	case sqltypes.KindString:
		return sqltypes.NewString(strPool[rng.Intn(len(strPool))])
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(float64(intPool[rng.Intn(len(intPool))]))
	case sqltypes.KindBool:
		return sqltypes.NewBool(rng.Intn(2) == 0)
	default:
		return sqltypes.NewInt(intPool[rng.Intn(len(intPool))])
	}
}

// relationsClosure returns the base relations of the query plus all
// transitively referenced relations, topologically ordered so referenced
// relations come first. FK cycles are rejected.
func relationsClosure(q *qtree.Query) ([]*schema.Relation, error) {
	var order []*schema.Relation
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(name string) error
	visit = func(name string) error {
		switch state[name] {
		case 1:
			return fmt.Errorf("mutation: foreign-key cycle through %s", name)
		case 2:
			return nil
		}
		state[name] = 1
		rel := q.Schema.Relation(name)
		if rel == nil {
			return fmt.Errorf("mutation: unknown relation %s", name)
		}
		for _, fk := range rel.ForeignKeys {
			if err := visit(fk.RefTable); err != nil {
				return err
			}
		}
		state[name] = 2
		order = append(order, rel)
		return nil
	}
	for _, occ := range q.Occs {
		if err := visit(occ.Rel.Name); err != nil {
			return nil, err
		}
	}
	for _, sub := range q.Subs {
		for _, occ := range sub.Occs {
			if err := visit(occ.Rel.Name); err != nil {
				return nil, err
			}
		}
	}
	return order, nil
}
