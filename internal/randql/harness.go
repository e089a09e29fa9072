package randql

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/refeval"
	"repro/internal/schema"
)

// maxDiffMutants bounds the number of mutants the differential oracle
// cross-checks per (case, dataset) pair; a deterministic stride sample
// keeps large mutant spaces cheap while still exercising every kind.
const maxDiffMutants = 12

// GoalTimeout is the per-kill-goal wall-clock budget applied by
// CheckCompleteness (0 = unlimited; the per-solve node/time budgets
// still apply). The nightly soak sets it (via the -randql.goal-timeout
// test flag or the randql CLI's -goal-timeout flag) so one pathological
// goal bounds a case instead of stalling the whole run; exhausted goals
// are counted as BudgetExceeded, like per-solve limits.
var GoalTimeout time.Duration

// DiffOne is the differential oracle for one (case, dataset) pair: the
// query — and a deterministic sample of its mutant plans — is evaluated
// by both the execution engine and the independent reference evaluator,
// and any result-multiset divergence is an error carrying the full
// reproducer.
func DiffOne(c *Case, ds *schema.Dataset) error {
	if err := diffPlan(c, engine.NewPlan(c.Query), ds, "original query"); err != nil {
		return err
	}
	if !joinConnected(c.Query) {
		// The mutant space is only defined over connected join graphs
		// (cross products have no join to mutate); the original-query
		// diff above is the whole oracle for such cases.
		return nil
	}
	mutants, err := mutation.Space(c.Query, mutation.DefaultOptions())
	if err != nil {
		return fmt.Errorf("randql: mutant space for seed %d: %w\n%s", c.Seed, err, c.Repro(ds))
	}
	stride := 1
	if len(mutants) > maxDiffMutants {
		stride = len(mutants)/maxDiffMutants + 1
	}
	for i := 0; i < len(mutants); i += stride {
		m := mutants[i]
		if err := diffPlan(c, m.Plan, ds, fmt.Sprintf("mutant %s (%s)", m.Key, m.Kind)); err != nil {
			return err
		}
	}
	return nil
}

// diffPlan compares one plan across both evaluators.
func diffPlan(c *Case, p *engine.Plan, ds *schema.Dataset, what string) error {
	er, eerr := p.Run(ds)
	rr, rerr := refeval.EvalPlan(p.Query, p.Tree, p.Preds, p.Subs, p.Aggs, p.Having, ds)
	if eerr != nil || rerr != nil {
		return fmt.Errorf("randql: seed %d: %s: engine err=%v, refeval err=%v\n%s",
			c.Seed, what, eerr, rerr, c.Repro(ds))
	}
	if len(er.Cols) != len(rr.Cols) {
		return fmt.Errorf("randql: seed %d: %s: arity mismatch: engine %d cols %v, refeval %d cols %v\n%s",
			c.Seed, what, len(er.Cols), er.Cols, len(rr.Cols), rr.Cols, c.Repro(ds))
	}
	em, rm := er.Multiset(), rr.Multiset()
	if !multisetEqual(em, rm) {
		return fmt.Errorf("randql: seed %d: %s: result multisets diverge\nengine (%d rows):\n%s\nrefeval (%d rows):\n%s\n%s",
			c.Seed, what, len(er.Rows), er, len(rr.Rows), rr, c.Repro(ds))
	}
	return nil
}

// joinConnected reports whether the query's occurrences form a single
// connected component under equivalence classes and join predicates —
// the precondition for the mutant space (cross products have no join
// semantics to mutate).
func joinConnected(q *qtree.Query) bool {
	if len(q.Occs) <= 1 {
		return true
	}
	comp := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if comp[x] == "" || comp[x] == x {
			comp[x] = x
			return x
		}
		comp[x] = find(comp[x])
		return comp[x]
	}
	union := func(a, b string) { comp[find(a)] = find(b) }
	for _, ec := range q.Classes {
		names := ec.OccNames()
		for i := 1; i < len(names); i++ {
			union(names[0], names[i])
		}
	}
	for _, p := range q.JoinPreds() {
		for i := 1; i < len(p.Occs); i++ {
			union(p.Occs[0], p.Occs[i])
		}
	}
	roots := map[string]bool{}
	for _, o := range q.Occs {
		roots[find(o.Name)] = true
	}
	return len(roots) == 1
}

func multisetEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// CompletenessResult reports one suite-completeness check: how the
// generated suite fared against the full mutant space, with surviving
// mutants split into suspected-equivalent (the random equivalence
// checker found no witness) and confirmed non-equivalent (a witness
// dataset distinguishes mutant from original — a completeness bug).
type CompletenessResult struct {
	Mutants  int
	Killed   int
	Skipped  int
	Datasets int
	// BudgetExceeded is set when the constraint solver ran out of its
	// per-case node/time budget before the suite could be generated.
	// Random queries occasionally hit pathological solver instances
	// (e.g. arithmetic join chains over repeated relations); the harness
	// counts these rather than failing, and the test asserts they stay
	// rare.
	BudgetExceeded bool
	// SuspectedEquivalent holds survivor descriptions the equivalence
	// checker could not distinguish from the original; under the
	// completeness grammar these are expected (UNSAT kill constraints).
	SuspectedEquivalent []string
	// NonEquivalent holds survivors a witness dataset distinguishes:
	// each entry is a reproducer (mutant SQL + witness inserts).
	NonEquivalent []string
}

// CheckCompleteness runs the paper's end-to-end guarantee for one case:
// core.Generate builds the kill suite, mutation.Evaluate computes the
// kill matrix, and every survivor is cross-examined by the random
// equivalence checker (seeded with equivSeed for determinism). Surviving
// non-equivalent mutants are completeness violations; their witnesses
// are double-checked against refeval so an engine bug cannot
// masquerade as a solver bug.
func CheckCompleteness(c *Case, equivSeed int64) (*CompletenessResult, error) {
	opts := core.DefaultOptions()
	opts.SolverNodeLimit = 2_000_000
	opts.SolverTimeout = 10 * time.Second
	opts.GoalTimeout = GoalTimeout
	suite, err := core.NewGenerator(c.Query, opts).Generate()
	if err != nil {
		if errors.Is(err, core.ErrPartialSuite) && suite != nil {
			// Goal or per-solve budgets exhausted (the goal pipeline
			// abandons a goal on either): a deliberate skip — unless a
			// goal actually panicked, which is a real bug the soak must
			// surface.
			for _, f := range suite.Incomplete {
				if f.Reason == core.ReasonPanic {
					return nil, fmt.Errorf("randql: seed %d: generate: goal panicked: %w\n%s", c.Seed, f.Err, c.Repro(nil))
				}
			}
			return &CompletenessResult{BudgetExceeded: true}, nil
		}
		return nil, fmt.Errorf("randql: seed %d: generate: %w\n%s", c.Seed, err, c.Repro(nil))
	}
	datasets := suite.All()
	for _, ds := range datasets {
		if err := c.Schema.CheckDataset(ds); err != nil {
			return nil, fmt.Errorf("randql: seed %d: suite dataset %q violates schema: %w\n%s",
				c.Seed, ds.Purpose, err, c.Repro(ds))
		}
	}
	mutants, err := mutation.Space(c.Query, mutation.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("randql: seed %d: mutant space: %w\n%s", c.Seed, err, c.Repro(nil))
	}
	report, err := mutation.Evaluate(c.Query, mutants, datasets)
	if err != nil {
		return nil, fmt.Errorf("randql: seed %d: evaluate: %w\n%s", c.Seed, err, c.Repro(nil))
	}

	res := &CompletenessResult{
		Mutants:  len(mutants),
		Skipped:  len(suite.Skipped),
		Datasets: len(datasets),
	}
	survivors := report.Survivors()
	res.Killed = len(mutants) - len(survivors)

	chk := mutation.NewEquivalenceChecker(equivSeed)
	for _, mi := range survivors {
		m := mutants[mi]
		equiv, witness, err := chk.Check(c.Query, m)
		if err != nil {
			return nil, fmt.Errorf("randql: seed %d: equivalence check of %s: %w\n%s", c.Seed, m.Key, err, c.Repro(nil))
		}
		if equiv {
			res.SuspectedEquivalent = append(res.SuspectedEquivalent, fmt.Sprintf("%s (%s): %s", m.Key, m.Kind, m.Desc))
			continue
		}
		// Confirm with the independent evaluator that the witness really
		// distinguishes mutant from original before reporting a
		// completeness violation.
		confirmed, detail := confirmWitness(c, m, witness)
		entry := fmt.Sprintf("mutant %s (%s): %s\nmutant SQL: %s\n%s\nwitness:\n%s",
			m.Key, m.Kind, m.Desc, mutantSQL(c.Query, m), detail, witnessRepro(c, witness))
		if confirmed {
			res.NonEquivalent = append(res.NonEquivalent, entry)
		} else {
			// The engine claims a divergence refeval does not see: that is
			// an engine bug, which the differential oracle owns — but it
			// still fails the completeness run loudly.
			res.NonEquivalent = append(res.NonEquivalent, "UNCONFIRMED BY REFEVAL (engine/refeval disagree): "+entry)
		}
	}
	sort.Strings(res.SuspectedEquivalent)
	return res, nil
}

// confirmWitness re-evaluates original and mutant on the witness with
// refeval and reports whether the divergence is real.
func confirmWitness(c *Case, m *mutation.Mutant, witness *schema.Dataset) (bool, string) {
	if witness == nil {
		return false, "no witness dataset returned"
	}
	orig, err1 := refeval.Eval(c.Query, witness)
	mut, err2 := refeval.EvalPlan(c.Query, m.Plan.Tree, m.Plan.Preds, m.Plan.Subs, m.Plan.Aggs, m.Plan.Having, witness)
	if err1 != nil || err2 != nil {
		return false, fmt.Sprintf("refeval errors: original=%v mutant=%v", err1, err2)
	}
	if multisetEqual(orig.Multiset(), mut.Multiset()) {
		return false, "refeval sees identical results on the witness"
	}
	return true, fmt.Sprintf("refeval confirms: original %d rows, mutant %d rows differ as multisets",
		len(orig.Rows), len(mut.Rows))
}

// mutantSQL renders a mutant plan back to SQL via the qtree printer so
// failure reports are runnable.
func mutantSQL(q *qtree.Query, m *mutation.Mutant) (s string) {
	defer func() { // printer is best-effort on exotic mutants
		if r := recover(); r != nil {
			s = fmt.Sprintf("(unrenderable: %v)", r)
		}
	}()
	return qtree.RenderSQLFull(q, m.Plan.Tree, m.Plan.Preds, m.Plan.Subs, m.Plan.Aggs, m.Plan.Having)
}

func witnessRepro(c *Case, witness *schema.Dataset) string {
	if witness == nil {
		return "(none)"
	}
	return strings.TrimSuffix(witness.SQLInserts(c.Schema), "\n")
}
