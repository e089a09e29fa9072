package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/mutation"
	"repro/internal/solver"
)

// Tests for the solver-microarchitecture integration: the stats the
// default path must surface, agreement between the two solver paths,
// and component-cache behaviour under injected faults.

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

// TestSolverPathAgreement runs the same query down both solver paths —
// the default (unfolded: bitset kernel with decomposition, the
// component cache and the shared core) and quantified mode (lazy
// instantiation over the list kernel) — and checks the observable
// contract: the same dataset/skip sequence, schema-valid datasets, and
// counters that honestly report which machinery ran. Every suite is
// also scored against refeval: its kill matrix under the compiled
// executor must be cell-identical to the independent reference
// evaluator's, closing the loop between the solver paths and the
// engine.
func TestSolverPathAgreement(t *testing.T) {
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
	checkEngines := func(path string, suite *Suite) {
		t.Helper()
		datasets := suite.All()
		compiled, err := mutation.Evaluate(q, ms, datasets)
		if err != nil {
			t.Fatalf("%s: compiled evaluation: %v", path, err)
		}
		ref, err := mutation.ReferenceKills(q, ms, datasets)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if mi, di, bad := compiled.FirstDisagreement(ref); bad {
			t.Errorf("%s: kill-matrix disagreement: mutant %q dataset %d: compiled=%v refeval=%v",
				path, ms[mi].Desc, di, compiled.Killed[mi][di], ref[mi][di])
		}
	}

	base := generate(t, q, DefaultOptions())
	want := outcomes(base)
	if len(base.Datasets) == 0 {
		t.Fatal("default path produced no datasets")
	}
	quantifiedOpts := DefaultOptions()
	quantifiedOpts.Unfold = false
	quantified := generate(t, q, quantifiedOpts)
	if got := outcomes(quantified); !slices.Equal(got, want) {
		t.Fatalf("quantified outcomes differ from the default's:\n%v\nvs\n%v", got, want)
	}
	for _, run := range []struct {
		path  string
		suite *Suite
	}{{"default", base}, {"quantified", quantified}} {
		for _, ds := range run.suite.All() {
			if err := q.Schema.CheckDataset(ds); err != nil {
				t.Errorf("%s: invalid dataset %q: %v", run.path, ds.Purpose, err)
			}
		}
		checkEngines(run.path, run.suite)
	}
	// Quantified mode never decomposes, caches components or attaches
	// the shared core; its counters must say so.
	if st := quantified.Stats; st.ComponentCount != 0 || st.ComponentCacheHits != 0 || st.BasePropagationNodes != 0 {
		t.Errorf("quantified: ComponentCount %d, ComponentCacheHits %d, BasePropagationNodes %d; want all 0",
			st.ComponentCount, st.ComponentCacheHits, st.BasePropagationNodes)
	}
}

// outcomes lists a suite's goal outcomes in order: each dataset's and
// each skip's purpose. Dataset contents may differ between solver
// paths (any valid witness kills the mutant); this sequence must not.
func outcomes(s *Suite) []string {
	out := make([]string, 0, len(s.Datasets)+len(s.Skipped))
	for _, ds := range s.Datasets {
		out = append(out, "dataset: "+ds.Purpose)
	}
	for _, sk := range s.Skipped {
		out = append(out, "skipped: "+sk.Purpose)
	}
	return out
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

	g := NewGenerator(q, DefaultOptions())
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
	// must complete the full suite — a cache entry written by the
	// panicked solve would poison this run.
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
