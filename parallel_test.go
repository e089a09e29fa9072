// Determinism and race-regression tests for the parallel kill-goal
// pipeline: Generate() must produce a byte-identical Suite, and so the
// same kill matrix, for every worker count (the determinism contract;
// see internal/core/goals.go).
package xdata_test

import (
	"reflect"
	"strconv"
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
		}{bq.Name + "/fk=" + strconv.Itoa(fk), bq, fk})
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

// outcomeSequence lists each kill goal's outcome in suite order: the
// purpose of every dataset, then of every skip. Solver paths may pick
// different witnesses, but must agree on this sequence.
func outcomeSequence(s *core.Suite) []string {
	var out []string
	for _, ds := range s.Datasets {
		out = append(out, "dataset:"+ds.Purpose)
	}
	for _, sk := range s.Skipped {
		out = append(out, "skip:"+sk.Purpose)
	}
	return out
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
// queries, on the default solver path and in quantified mode (the list
// kernel's restart ladder), and that quantified mode reaches the
// default's dataset/skip sequence (the list-kernel leg).
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

			// Kill matrices: byte-identical across generation
			// parallelism.
			ms, err := mutation.Space(q, mutation.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			seqRep, err := mutation.Evaluate(q, ms, seq.All())
			if err != nil {
				t.Fatal(err)
			}
			parRep, err := mutation.Evaluate(q, ms, par.All())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seqRep.Killed, parRep.Killed) {
				t.Fatalf("kill matrices differ between the sequential and the parallel suite")
			}

			quantified := core.DefaultOptions()
			quantified.Unfold = false
			t.Run("quantified", func(t *testing.T) { generateSeqPar(t, q, quantified) })
			// The list kernel is quantified mode's ground solver: its
			// suite must reach the default kernel's outcome sequence.
			t.Run("list-kernel", func(t *testing.T) {
				qs, err := core.NewGenerator(q, quantified).Generate()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := outcomeSequence(qs), outcomeSequence(seq); !reflect.DeepEqual(got, want) {
					t.Fatalf("quantified outcomes differ from the default's:\n%v\nvs\n%v", got, want)
				}
			})
		})
	}
}

// TestParallelGenerateRace exercises a 4-way parallel generation and
// scores its suite; run with -race it is the regression test for
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
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	if rep.KilledCount() == 0 {
		t.Fatal("the parallel suite killed no mutants")
	}
}
