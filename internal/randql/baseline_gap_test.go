package randql

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/mutation"
	"repro/internal/refeval"
)

// TestBaselineMissesMutantsFullPipelineKills reproduces the full paper's
// §VI-C.1 comparison against the short-paper algorithm [14]: on random
// FK-free queries, the baseline suite (input database + one dataset per
// emptied relation) misses whole classes of mutants that the
// constraint-based suite kills — in particular comparison mutants, which
// require boundary values the input database only contains by luck, and
// which emptying a relation can never expose. Every gap the test counts
// is double-checked against the independent reference evaluator: the
// full-pipeline kill must be a real multiset divergence, not an engine
// artifact.
func TestBaselineMissesMutantsFullPipelineKills(t *testing.T) {
	cfg := CompletenessConfig()
	cfg.FKProb = 0 // [14] does not handle foreign keys (§IV-B)
	cfg.CompositeProb = 0

	missedKinds := map[mutation.Kind]int{}
	cases := 0
	for i := int64(0); i < 40 && cases < 8; i++ {
		seed := 77000 + i
		c, err := NewCase(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: NewCase: %v", seed, err)
		}
		mutants, err := mutation.Space(c.Query, mutation.DefaultOptions())
		if err != nil || len(mutants) == 0 {
			continue // e.g. no mutation points; try the next seed
		}
		input, err := c.NextDataset()
		if err != nil {
			t.Fatalf("seed %d: input dataset: %v", seed, err)
		}
		if len(input.TableNames()) == 0 {
			continue
		}

		baseDS, err := baseline.Generate(c.Query, input)
		if err != nil {
			t.Fatalf("seed %d: baseline.Generate: %v", seed, err)
		}
		baseRep, err := mutation.Evaluate(c.Query, mutants, baseDS)
		if err != nil {
			t.Fatalf("seed %d: evaluating baseline suite: %v", seed, err)
		}

		suite, err := core.NewGenerator(c.Query, core.DefaultOptions()).Generate()
		if err != nil {
			continue // solver budget; the gap count does not depend on any one seed
		}
		coreRep, err := mutation.Evaluate(c.Query, mutants, suite.All())
		if err != nil {
			t.Fatalf("seed %d: evaluating full-pipeline suite: %v", seed, err)
		}
		cases++

		for mi, m := range mutants {
			if baseRep.MutantKilled(mi) || !coreRep.MutantKilled(mi) {
				continue
			}
			// Found a gap: the constraint-based suite kills m, the
			// baseline suite does not. Confirm the kill with refeval on
			// the first killing dataset.
			confirmed := false
			for di, killed := range coreRep.Killed[mi] {
				if !killed {
					continue
				}
				ds := coreRep.Datasets[di]
				orig, err1 := refeval.Eval(c.Query, ds)
				mut, err2 := refeval.EvalPlan(c.Query, m.Plan.Tree, m.Plan.Preds, m.Plan.Subs, m.Plan.Aggs, m.Plan.Having, ds)
				if err1 != nil || err2 != nil {
					t.Fatalf("seed %d: refeval on killing dataset: original=%v mutant=%v", seed, err1, err2)
				}
				if multisetEqual(orig.Multiset(), mut.Multiset()) {
					t.Fatalf("seed %d: engine kill of mutant %s (%s) not confirmed by refeval\n%s",
						seed, m.Key, m.Desc, c.Repro(ds))
				}
				confirmed = true
				break
			}
			if confirmed {
				missedKinds[m.Kind]++
			}
		}
	}
	if cases < 8 {
		t.Fatalf("only %d/8 seeds produced evaluable cases; widen the seed window", cases)
	}
	if len(missedKinds) == 0 {
		t.Fatalf("baseline suite killed everything the full pipeline killed across %d cases; "+
			"expected it to miss at least one mutant class (§VI-C.1)", cases)
	}
	t.Logf("mutant kills missed by the [14] baseline but confirmed (refeval) for the full pipeline, by kind: %v", missedKinds)
}
