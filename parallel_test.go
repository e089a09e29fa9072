// Determinism and race-regression tests for the parallel kill-goal
// pipeline: Generate() must produce a byte-identical Suite for every
// worker count, and the kill matrix must be invariant under evaluator
// parallelism (the ISSUE's determinism contract; see internal/core/goals.go).
package xdata_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/university"
)

// benchQueriesUnderTest returns the university workloads the determinism
// test covers: every Table I and Table II query at its first (and, when
// present, last) foreign-key count. -short trims to the first three of
// each family.
func benchQueriesUnderTest(t *testing.T) []struct {
	name string
	bq   university.BenchQuery
	fk   int
} {
	t.Helper()
	var out []struct {
		name string
		bq   university.BenchQuery
		fk   int
	}
	add := func(bq university.BenchQuery, fk int) {
		out = append(out, struct {
			name string
			bq   university.BenchQuery
			fk   int
		}{bq.Name + "/fk=" + itoa(fk), bq, fk})
	}
	for _, queries := range [][]university.BenchQuery{university.TableIQueries(), university.TableIIQueries()} {
		limit := len(queries)
		if testing.Short() && limit > 3 {
			limit = 3
		}
		for i := 0; i < limit; i++ {
			bq := queries[i]
			add(bq, bq.FKCounts[0])
			if !testing.Short() && len(bq.FKCounts) > 1 {
				add(bq, bq.FKCounts[len(bq.FKCounts)-1])
			}
		}
	}
	return out
}

// suiteFingerprint renders every observable, deterministic part of a
// suite: the original dataset, each kill dataset (purpose + contents),
// and each skip record.
func suiteFingerprint(s *core.Suite) []string {
	var out []string
	if s.Original != nil {
		out = append(out, "original:"+s.Original.String())
	} else {
		out = append(out, "original:<nil>")
	}
	for _, ds := range s.Datasets {
		out = append(out, "dataset:"+ds.Purpose+"\n"+ds.String())
	}
	for _, sk := range s.Skipped {
		out = append(out, "skip:"+sk.Purpose+" / "+sk.Reason)
	}
	return out
}

// legacySolverPaths are the generator configurations that bypass the
// bitset kernel: quantified mode (no unfolding, the paper's §VI-B
// ablation) and the legacy list kernel behind the kernel's ablation
// flags. Each solve on them runs a sequential restart ladder, so their
// suites and node counts must not depend on the goal worker count
// either.
func legacySolverPaths() []struct {
	name string
	opts core.Options
} {
	quantified := core.DefaultOptions()
	quantified.Unfold = false
	listKernel := core.DefaultOptions()
	listKernel.NoSolverHeuristics = true
	listKernel.NoDecompose = true
	return []struct {
		name string
		opts core.Options
	}{{"quantified", quantified}, {"list-kernel", listKernel}}
}

// generateSeqPar generates q under opts at Parallelism 1 and 8 and
// fails unless both runs give identical suite fingerprints and
// deterministic work counters.
func generateSeqPar(t *testing.T, q *qtree.Query, opts core.Options) (seq, par *core.Suite) {
	t.Helper()
	seqOpts, parOpts := opts, opts
	seqOpts.Parallelism = 1
	parOpts.Parallelism = 8

	seq, err := core.NewGenerator(q, seqOpts).Generate()
	if err != nil {
		t.Fatalf("sequential generate: %v", err)
	}
	par, err = core.NewGenerator(q, parOpts).Generate()
	if err != nil {
		t.Fatalf("parallel generate: %v", err)
	}

	sf, pf := suiteFingerprint(seq), suiteFingerprint(par)
	if !reflect.DeepEqual(sf, pf) {
		t.Fatalf("suite fingerprints differ between Parallelism=1 and 8:\n--- sequential (%d entries)\n%v\n--- parallel (%d entries)\n%v",
			len(sf), sf, len(pf), pf)
	}

	// Deterministic work counters must match too (solve wall times
	// legitimately differ).
	type counters struct {
		Calls, Sat, Unsat     int
		Nodes, Restarts, Size int64
	}
	sc := counters{seq.Stats.SolverCalls, seq.Stats.SatCount, seq.Stats.UnsatCount, seq.Stats.SolverNodes, seq.Stats.SolverRestarts, seq.Stats.SolverProblemSize}
	pc := counters{par.Stats.SolverCalls, par.Stats.SatCount, par.Stats.UnsatCount, par.Stats.SolverNodes, par.Stats.SolverRestarts, par.Stats.SolverProblemSize}
	if sc != pc {
		t.Fatalf("solver work counters differ: sequential %+v, parallel %+v", sc, pc)
	}
	return seq, par
}

// TestParallelGenerateDeterminism asserts that Generate() with
// Parallelism=1 and Parallelism=8 produce identical Suite.Datasets,
// Skipped, work counters, and kill matrices for the university bench
// queries, on the default solver path and on each legacy one.
func TestParallelGenerateDeterminism(t *testing.T) {
	for _, tc := range benchQueriesUnderTest(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sch := university.Schema(tc.fk)
			q, err := qtree.BuildSQL(sch, tc.bq.SQL)
			if err != nil {
				t.Fatal(err)
			}
			seq, par := generateSeqPar(t, q, core.DefaultOptions())

			// Kill matrices: byte-identical across generation AND
			// evaluation parallelism.
			ms, err := mutation.Space(q, mutation.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			seqRep, err := mutation.EvaluateOpts(q, ms, seq.All(), mutation.EvalOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			parRep, err := mutation.EvaluateOpts(q, ms, par.All(), mutation.EvalOptions{Parallelism: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seqRep.Killed, parRep.Killed) {
				t.Fatalf("kill matrices differ between sequential and parallel evaluation")
			}

			for _, lp := range legacySolverPaths() {
				t.Run(lp.name, func(t *testing.T) { generateSeqPar(t, q, lp.opts) })
			}
		})
	}
}

// TestParallelGenerateRace exercises a 4-way parallel generation and
// kill-matrix evaluation; run with -race it is the regression test for
// shared-state mutation inside the pipeline (e.g. the former
// ForceInputTuples toggle on shared Generator options).
func TestParallelGenerateRace(t *testing.T) {
	bq := university.TableIQueries()[2] // Q3: 3 joins, enough goals to contend
	sch := university.Schema(1)
	q, err := qtree.BuildSQL(sch, bq.SQL)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Parallelism = 4
	// Input-database constraints exercise the per-problem forceInput
	// threading (the retry path runs with and without them).
	opts.InputDB = university.SampleDB(sch, 3)
	opts.ForceInputTuples = true
	suite, err := core.NewGenerator(q, opts).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Datasets) == 0 {
		t.Fatal("parallel generate produced no datasets")
	}
	ms, err := mutation.Space(q, mutation.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mutation.EvaluateOpts(q, ms, suite.All(), mutation.EvalOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.KilledCount() == 0 {
		t.Fatal("parallel evaluation killed no mutants")
	}
}
