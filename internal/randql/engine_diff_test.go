package randql

import (
	"flag"
	"testing"

	"repro/internal/mutation"
	"repro/internal/schema"
)

var flagEngineDiff = flag.Int("randql.engine-diff", 25, "number of compiled-vs-refeval kill-matrix cases")

// TestCompiledRefevalDifferential extends the differential oracle to the
// kill-matrix level: for random queries drawn from the full grammar, the
// compiled executor and refeval must produce cell-identical kill
// matrices over the same mutant space and datasets. TestDifferentialOracle
// checks single results; this checks the matrix the generator's fitness
// signal is built from. refeval shares no code with the engine, so it
// also catches compile faults such as a misplaced predicate: a cell is
// killed there when the multisets of refeval.Eval (the original) and
// refeval.EvalPlan (the mutant) differ.
func TestCompiledRefevalDifferential(t *testing.T) {
	cfg := DefaultConfig()
	const datasetsPerCase = 2
	cases, cells := 0, int64(0)
	for i := 0; i < *flagEngineDiff; i++ {
		// Offset past the oracle and completeness seed ranges so the
		// corpora don't overlap.
		seed := *flagSeed + 30000 + int64(i)
		c, err := NewCase(seed, cfg)
		if err != nil {
			t.Fatalf("NewCase(%d): %v", seed, err)
		}
		if !joinConnected(c.Query) {
			// mutation.Space rejects cross products; the grammar allows them.
			continue
		}
		var datasets []*schema.Dataset
		for d := 0; d < datasetsPerCase; d++ {
			ds, err := c.NextDataset()
			if err != nil {
				t.Fatalf("seed %d dataset %d: %v", seed, d, err)
			}
			datasets = append(datasets, ds)
		}
		ms, err := mutation.Space(c.Query, mutation.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: mutant space: %v", seed, err)
		}
		if len(ms) == 0 {
			continue
		}
		compiled, err := mutation.EvaluateOpts(c.Query, ms, datasets, mutation.EvalOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("seed %d: compiled evaluation: %v", seed, err)
		}
		ref, err := mutation.ReferenceKills(c.Query, ms, datasets)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if mi, di, bad := compiled.FirstDisagreement(ref); bad {
			saveFailure(t, seed, c.Repro(datasets[di]))
			t.Fatalf("seed %d: kill-matrix disagreement: mutant %q dataset %d: compiled=%v refeval=%v\nquery: %s",
				seed, ms[mi].Desc, di, compiled.Killed[mi][di], ref[mi][di], c.SQL)
		}
		cases++
		cells += int64(len(ms)) * int64(len(datasets))
	}
	t.Logf("engine differential: %d cases, %d kill-matrix cells, zero divergences from refeval", cases, cells)
	if cases < 10 {
		t.Errorf("only %d cases with non-empty mutant spaces, want >= 10", cases)
	}
}
