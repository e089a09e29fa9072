package mutation

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

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

// EvalOptions configure kill-matrix evaluation. There is nothing to
// configure: the kill matrix is evaluated on the calling goroutine.
type EvalOptions struct{}

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
// multisets (the paper's definition). It evaluates on the calling
// goroutine, as EvaluateOpts and EvaluateContext do.
func Evaluate(q *qtree.Query, mutants []*Mutant, datasets []*schema.Dataset) (*Report, error) {
	return EvaluateOpts(q, mutants, datasets, EvalOptions{})
}

// EvaluateContext is EvaluateOpts with cooperative cancellation: the
// context is checked before every (plan, dataset) cell, so a canceled
// evaluation returns promptly (within one cell execution) with the
// context's error and no report. It starts no goroutines.
func EvaluateContext(ctx context.Context, q *qtree.Query, mutants []*Mutant, datasets []*schema.Dataset, opts EvalOptions) (*Report, error) {
	return evaluate(ctx, q, mutants, datasets)
}

// planSignature returns a canonical execution identity for a plan: two
// plans with equal signatures produce multiset-equal results on every
// dataset (Canon folds commutative inner-join orders and right-to-left
// outer-join symmetry; projection and aggregation depend only on the
// query, the predicate list and the aggregate list).
func planSignature(p *engine.Plan) string {
	if p.Tree == nil {
		return componentSignature(p)
	}
	return Canon(p.Tree) + componentSignature(p)
}

// componentSignature renders the part of planSignature after the tree:
// the predicates, aggregates, retained subqueries and HAVING conjuncts.
func componentSignature(p *engine.Plan) string {
	var sb strings.Builder
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

// EvaluateOpts is Evaluate with explicit options. The evaluation runs
// the datasets in order, each through every unique plan:
//
//   - the original query's result is computed once per dataset, first,
//     and every cell of that dataset is decided against it by
//     engine.Plan.DiffersFrom: a plain projection hashes its rows
//     straight from its root batch and compares them with the
//     original's memoized row multiset, so no mutant result is built;
//   - mutant plans are deduplicated by plan signature before any cell
//     runs: distinct join orders frequently compile to the same
//     canonical tree (e.g. the written tree's mutant re-derived from a
//     reordered equivalent), and each unique plan executes once per
//     dataset, with the kill bit broadcast to every mutant sharing the
//     signature.
//
// Kill bits are pure functions of (plan, dataset), so the Report is
// deterministic.
func EvaluateOpts(q *qtree.Query, mutants []*Mutant, datasets []*schema.Dataset, opts EvalOptions) (*Report, error) {
	return evaluate(context.Background(), q, mutants, datasets)
}

// evaluator is one kill-matrix evaluation over compiled plans: the
// original query, the unique mutant plans (with one representative
// description each, for errors), the datasets, and the unique-plan kill
// bits. One stats block counts the whole evaluation.
type evaluator struct {
	ctx      context.Context
	orig     *engine.Plan
	plans    []*engine.Plan
	planDesc []string
	datasets []*schema.Dataset
	stats    *engine.ExecStats
	killed   [][]bool // killed[ui][di]
}

// newEvaluator prepares an evaluation: it deduplicates the mutants'
// plans by execution signature and compiles the original and the
// unique plans as one family. planOf maps each mutant to its unique
// plan.
func newEvaluator(ctx context.Context, q *qtree.Query, mutants []*Mutant, datasets []*schema.Dataset) (e *evaluator, planOf []int, err error) {
	// Deduplicate mutant plans by execution signature.
	planOf = make([]int, len(mutants))
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

	// Compile the original and every unique plan before any cell runs,
	// as one family: the family's join trees overlap, and each distinct
	// subtree is compiled once per evaluation. The cells run the
	// compiled copies, so the family is this evaluation's alone, however
	// many evaluations share the mutants. A plan's compile error
	// surfaces from its first cell, naming the mutant.
	compiled, err := engine.CompilePlans(ctx, append([]*engine.Plan{engine.NewPlan(q)}, plans...))
	if err != nil {
		return nil, nil, fmt.Errorf("mutation: evaluation canceled: %w", err)
	}
	e = &evaluator{
		ctx:      ctx,
		orig:     compiled[0],
		plans:    compiled[1:],
		planDesc: planDesc,
		datasets: datasets,
		stats:    &engine.ExecStats{},
		killed:   killRows(len(plans), len(datasets)),
	}
	return e, planOf, nil
}

// killRows returns an n-by-m kill matrix whose rows are carved from one
// backing array.
func killRows(n, m int) [][]bool {
	rows := make([][]bool, n)
	bits := make([]bool, n*m)
	for i := range rows {
		rows[i] = bits[i*m : (i+1)*m : (i+1)*m]
	}
	return rows
}

// runDataset evaluates every plan on dataset di in one unit: the
// SharedCache is reset at the dataset boundary, and the family's
// sharing is maximal within the unit. The context is checked
// before the original's run and before every cell, so a canceled
// evaluation returns within one cell execution.
func (e *evaluator) runDataset(di int, sc *engine.SharedCache) error {
	sc.Reset()
	ds := e.datasets[di]
	ro := engine.RunOptions{Stats: e.stats, Cache: sc}
	if err := e.canceled(); err != nil {
		return err
	}
	want, err := e.orig.RunOpts(ds, ro)
	if err != nil {
		return &EvalError{Dataset: di, Purpose: ds.Purpose, Err: err}
	}
	for ui, p := range e.plans {
		if err := e.canceled(); err != nil {
			return err
		}
		differs, err := p.DiffersFrom(ds, want, ro)
		if err != nil {
			return &EvalError{Mutant: e.planDesc[ui], Dataset: di, Purpose: ds.Purpose, Err: err}
		}
		e.killed[ui][di] = differs
	}
	return nil
}

// canceled polls the context: Done is a closed-channel poll, much
// cheaper per cell than ctx.Err()'s mutex; Err() is only consulted on
// cancellation.
func (e *evaluator) canceled() error {
	select {
	case <-e.ctx.Done():
		return fmt.Errorf("mutation: evaluation canceled: %w", e.ctx.Err())
	default:
		return nil
	}
}

func evaluate(ctx context.Context, q *qtree.Query, mutants []*Mutant, datasets []*schema.Dataset) (*Report, error) {
	rep := &Report{Query: q, Mutants: mutants, Datasets: datasets, Killed: killRows(len(mutants), len(datasets))}
	if len(mutants) == 0 || len(datasets) == 0 {
		return rep, nil
	}
	e, planOf, err := newEvaluator(ctx, q, mutants, datasets)
	if err != nil {
		return nil, err
	}

	// One shared subtree cache for the whole evaluation, reset between
	// datasets. The plans of a mutant family differ in a single
	// component, so their compiled trees overlap heavily; the cache
	// evaluates each distinct subtree once per dataset and every plan
	// sharing it — including the original query — reuses the batch.
	// Reusing the cache across datasets keeps its indexes, blocks and
	// slabs warm: after the largest dataset it allocates nothing new.
	sc := engine.NewSharedCacheSized(len(e.plans))
	for di := range datasets {
		if err := e.runDataset(di, sc); err != nil {
			return nil, err
		}
	}
	rep.Exec = e.stats.Counts()

	// Broadcast unique-plan kill bits to every mutant sharing the plan.
	for mi := range mutants {
		copy(rep.Killed[mi], e.killed[planOf[mi]])
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
