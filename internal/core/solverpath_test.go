package core

import (
	"strings"
	"testing"

	"repro/internal/mutation"
	"repro/internal/solver"
)

// Tests for the solver-microarchitecture integration: the stats the
// optimized path must surface, agreement across every ablation-flag
// combination, and component-cache behaviour under injected faults.

// microarchSQL is a three-relation join with a selection: enough kill
// goals to exercise the shared core, decomposition, and repeated
// components across goals.
const microarchSQL = `SELECT * FROM instructor i, teaches t, course c
	WHERE i.id = t.id AND t.course_id = c.course_id AND i.salary > 70000`

// TestSolverMicroarchStats asserts the acceptance criterion: on a
// multi-join query with default options, Stats must show component
// decomposition, component-cache hits, and shared-base propagation all
// actually happening.
func TestSolverMicroarchStats(t *testing.T) {
	q := buildQuery(t, ddlFK, microarchSQL)
	suite := generate(t, q, DefaultOptions())
	st := suite.Stats
	if st.ComponentCount <= 0 {
		t.Errorf("ComponentCount = %d, want > 0 (decomposition should run by default)", st.ComponentCount)
	}
	if st.ComponentCacheHits <= 0 {
		t.Errorf("ComponentCacheHits = %d, want > 0 (kill goals share components)", st.ComponentCacheHits)
	}
	if st.BasePropagationNodes <= 0 {
		t.Errorf("BasePropagationNodes = %d, want > 0 (shared core should be prepared)", st.BasePropagationNodes)
	}
	if len(suite.Datasets) == 0 {
		t.Fatal("no kill datasets generated")
	}
}

// TestAblationFlagAgreement runs the same query under all 16
// combinations of the four solver ablation flags and checks the
// observable contract: identical goal structure (same dataset purposes
// in the same order), schema-valid datasets, and identical SAT/UNSAT
// outcomes per goal. Dataset contents may differ between search
// strategies (any valid witness kills the mutant); the suite shape
// must not. Every generated suite is also scored against refeval: its
// kill matrix under the compiled executor must be cell-identical to
// the independent reference evaluator's, closing the loop between
// solver-side ablations and the engine.
func TestAblationFlagAgreement(t *testing.T) {
	q := buildQuery(t, ddlFK, microarchSQL)

	ms, err := mutation.Space(q, mutation.DefaultOptions())
	if err != nil {
		t.Fatalf("mutant space: %v", err)
	}
	if len(ms) == 0 {
		t.Fatal("empty mutant space")
	}
	// checkEngines scores a suite's kill matrix under the compiled
	// executor and under refeval and fails on any cell difference.
	checkEngines := func(mask int, suite *Suite) {
		t.Helper()
		datasets := suite.All()
		if len(datasets) == 0 {
			return
		}
		compiled, err := mutation.EvaluateOpts(q, ms, datasets, mutation.EvalOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("mask %04b: compiled evaluation: %v", mask, err)
		}
		ref, err := mutation.ReferenceKills(q, ms, datasets)
		if err != nil {
			t.Fatalf("mask %04b: %v", mask, err)
		}
		if mi, di, bad := compiled.FirstDisagreement(ref); bad {
			t.Errorf("mask %04b: kill-matrix disagreement: mutant %q dataset %d: compiled=%v refeval=%v",
				mask, ms[mi].Desc, di, compiled.Killed[mi][di], ref[mi][di])
		}
	}

	purposes := func(s *Suite) []string {
		out := make([]string, 0, len(s.Datasets)+len(s.Skipped))
		for _, ds := range s.Datasets {
			out = append(out, "dataset: "+ds.Purpose)
		}
		for _, sk := range s.Skipped {
			out = append(out, "skipped: "+sk.Purpose)
		}
		return out
	}

	base := generate(t, q, DefaultOptions())
	want := purposes(base)
	if len(base.Datasets) == 0 {
		t.Fatal("baseline produced no datasets")
	}

	for mask := 0; mask < 16; mask++ {
		opts := DefaultOptions()
		opts.NoSolverHeuristics = mask&1 != 0
		opts.NoDecompose = mask&2 != 0
		opts.NoSharedCore = mask&4 != 0
		opts.NoComponentCache = mask&8 != 0
		suite := generate(t, q, opts)
		got := purposes(suite)
		if len(got) != len(want) {
			t.Fatalf("mask %04b: %d outcomes, want %d:\n%v\nvs\n%v", mask, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("mask %04b: outcome %d = %q, want %q", mask, i, got[i], want[i])
			}
		}
		for _, ds := range suite.All() {
			if err := q.Schema.CheckDataset(ds); err != nil {
				t.Errorf("mask %04b: invalid dataset %q: %v", mask, ds.Purpose, err)
			}
		}
		// Ablations toggle *which* machinery runs; the counters must
		// reflect that honestly.
		if opts.NoDecompose && suite.Stats.ComponentCount != 0 {
			t.Errorf("mask %04b: ComponentCount = %d with NoDecompose", mask, suite.Stats.ComponentCount)
		}
		if (opts.NoComponentCache || opts.NoDecompose) && suite.Stats.ComponentCacheHits != 0 {
			t.Errorf("mask %04b: ComponentCacheHits = %d with cache disabled", mask, suite.Stats.ComponentCacheHits)
		}
		if opts.NoSharedCore && suite.Stats.BasePropagationNodes != 0 {
			t.Errorf("mask %04b: BasePropagationNodes = %d with NoSharedCore", mask, suite.Stats.BasePropagationNodes)
		}
		checkEngines(mask, suite)
	}
}

// TestComponentCacheFaultRelease checks that a panic unwinding through
// a goal while the component cache is live (default options) cannot
// poison the cache for the surviving goals: the partial suite's other
// datasets must be byte-identical to an uninjected run, and a fresh
// uninjected Generate on the same (warm) generator must produce the
// full suite again.
func TestComponentCacheFaultRelease(t *testing.T) {
	q := buildQuery(t, ddlNoFK, robustSQL)
	baseline := generate(t, q, DefaultOptions())

	defer solver.SetFaultHook(nil)
	solver.SetFaultHook(func(label string, call int64) solver.Fault {
		if strings.Contains(label, panicLabelPat) {
			return solver.FaultPanic
		}
		return solver.FaultNone
	})

	opts := DefaultOptions()
	opts.Parallelism = 4 // concurrent claimants on shared cache entries
	g := NewGenerator(q, opts)
	suite, err := g.Generate()
	if err == nil {
		t.Fatal("injected panic: want ErrPartialSuite, got nil error")
	}
	if suite == nil {
		t.Fatal("partial suite must be returned")
	}
	if len(suite.Incomplete) != 1 || suite.Incomplete[0].Purpose != panicPurpose {
		t.Fatalf("Incomplete = %+v, want exactly the panicked goal %q", suite.Incomplete, panicPurpose)
	}
	// Surviving datasets must match the uninjected run byte for byte.
	want := map[string]string{}
	for _, ds := range baseline.All() {
		want[ds.Purpose] = ds.String()
	}
	for _, ds := range suite.All() {
		if w, ok := want[ds.Purpose]; !ok {
			t.Errorf("unexpected dataset %q in partial suite", ds.Purpose)
		} else if ds.String() != w {
			t.Errorf("dataset %q differs from uninjected run under fault injection", ds.Purpose)
		}
	}

	// Lift the fault: the same warm generator (shared caches intact)
	// must complete the full suite — an orphaned cache claim would
	// deadlock or poison this run.
	solver.SetFaultHook(nil)
	full, err := g.Generate()
	if err != nil {
		t.Fatalf("post-fault Generate on warm generator: %v", err)
	}
	if len(full.Datasets) != len(baseline.Datasets) {
		t.Fatalf("post-fault suite has %d datasets, want %d", len(full.Datasets), len(baseline.Datasets))
	}
	for _, ds := range full.All() {
		if w := want[ds.Purpose]; ds.String() != w {
			t.Errorf("post-fault dataset %q differs from uninjected run", ds.Purpose)
		}
	}
}
