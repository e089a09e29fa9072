package randql

import (
	"flag"
	"testing"

	"repro/internal/mutation"
	"repro/internal/refeval"
	"repro/internal/schema"
)

var flagEngineDiff = flag.Int("randql.engine-diff", 25, "number of compiled-vs-interpreted kill-matrix cases")

// TestCompiledInterpDifferential extends the differential oracle to the
// kill-matrix level: for random queries drawn from the full grammar, the
// compiled columnar executor and the reference interpreter must produce
// cell-identical kill matrices over the same mutant space and datasets.
// This is the corpus-wide form of the NoCompiledEngine ablation
// guarantee — TestDifferentialOracle checks single results, this checks
// the matrix the generator's fitness signal is built from.
//
// The interpreter walks the same compiled nodes as the columnar
// executor, so it cannot catch a compile fault such as a misplaced
// predicate. Every cell is therefore also checked against refeval,
// which shares no code with the engine: a cell is killed there when the
// multisets of refeval.Eval (the original) and refeval.EvalPlan (the
// mutant) differ.
func TestCompiledInterpDifferential(t *testing.T) {
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
		interp, err := mutation.EvaluateOpts(c.Query, ms, datasets, mutation.EvalOptions{Parallelism: 1, NoCompiledEngine: true})
		if err != nil {
			t.Fatalf("seed %d: interpreted evaluation: %v", seed, err)
		}
		for di, ds := range datasets {
			want, err := refeval.Eval(c.Query, ds)
			if err != nil {
				t.Fatalf("seed %d dataset %d: refeval original: %v", seed, di, err)
			}
			wantMS := want.Multiset()
			for mi, m := range ms {
				p := m.Plan
				got, err := refeval.EvalPlan(p.Query, p.Tree, p.Preds, p.Subs, p.Aggs, p.Having, ds)
				if err != nil {
					t.Fatalf("seed %d dataset %d: refeval mutant %q: %v", seed, di, m.Desc, err)
				}
				ref := !multisetEqual(wantMS, got.Multiset())
				if compiled.Killed[mi][di] != interp.Killed[mi][di] || compiled.Killed[mi][di] != ref {
					saveFailure(t, seed, c.Repro(ds))
					t.Fatalf("seed %d: kill-matrix disagreement: mutant %q dataset %d: compiled=%v interpreted=%v refeval=%v\nquery: %s",
						seed, m.Desc, di, compiled.Killed[mi][di], interp.Killed[mi][di], ref, c.SQL)
				}
			}
		}
		cases++
		cells += int64(len(ms)) * int64(len(datasets))
	}
	t.Logf("engine differential: %d cases, %d kill-matrix cells, zero divergences from the interpreter or refeval", cases, cells)
	if cases < 10 {
		t.Errorf("only %d cases with non-empty mutant spaces, want >= 10", cases)
	}
}
