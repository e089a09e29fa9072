// Determinism test for concurrent generation: generators running on
// separate goroutines over one query, as the daemon runs concurrent
// requests, must produce byte-identical suites, work counters and kill
// matrices. Each generator is confined to its own goroutine and shares
// only the read-only query (see internal/core/goals.go).
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

// generatePair generates q under opts on two fresh generators running
// on separate goroutines and fails unless both runs give identical
// suite fingerprints and deterministic work counters.
func generatePair(t *testing.T, q *qtree.Query, opts core.Options) (a, b *core.Suite) {
	t.Helper()
	var errA error
	done := make(chan struct{})
	go func() {
		defer close(done)
		a, errA = core.NewGenerator(q, opts).Generate()
	}()
	b, errB := core.NewGenerator(q, opts).Generate()
	<-done
	if errA != nil || errB != nil {
		t.Fatalf("generate: %v / %v", errA, errB)
	}

	af, bf := suiteFingerprint(a), suiteFingerprint(b)
	if !reflect.DeepEqual(af, bf) {
		t.Fatalf("suite fingerprints differ between two concurrent generators:\n--- first (%d entries)\n%v\n--- second (%d entries)\n%v",
			len(af), af, len(bf), bf)
	}

	// Deterministic work counters must match too (solve wall times
	// legitimately differ).
	type counters struct {
		Calls, Sat, Unsat     int
		Nodes, Restarts, Size int64
	}
	ac := counters{a.Stats.SolverCalls, a.Stats.SatCount, a.Stats.UnsatCount, a.Stats.SolverNodes, a.Stats.SolverRestarts, a.Stats.SolverProblemSize}
	bc := counters{b.Stats.SolverCalls, b.Stats.SatCount, b.Stats.UnsatCount, b.Stats.SolverNodes, b.Stats.SolverRestarts, b.Stats.SolverProblemSize}
	if ac != bc {
		t.Fatalf("solver work counters differ: first %+v, second %+v", ac, bc)
	}
	return a, b
}

// TestParallelGenerateDeterminism asserts that two generators running
// concurrently over one query produce identical Suite.Datasets,
// Skipped, work counters, and kill matrices for the university bench
// queries, on the default solver path and in quantified mode (the list
// kernel's restart ladder), and that quantified mode reaches the
// default's dataset/skip sequence (the list-kernel leg). Under -race it
// also checks that generators share no mutable state.
func TestParallelGenerateDeterminism(t *testing.T) {
	for _, tc := range benchQueriesUnderTest(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sch := university.Schema(tc.fk)
			q, err := qtree.BuildSQL(sch, tc.bq.SQL)
			if err != nil {
				t.Fatal(err)
			}
			a, b := generatePair(t, q, core.DefaultOptions())

			// Kill matrices: byte-identical across the two suites.
			ms, err := mutation.Space(q, mutation.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			aRep, err := mutation.Evaluate(q, ms, a.All())
			if err != nil {
				t.Fatal(err)
			}
			bRep, err := mutation.Evaluate(q, ms, b.All())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(aRep.Killed, bRep.Killed) {
				t.Fatalf("kill matrices differ between the two concurrent generators' suites")
			}

			quantified := core.DefaultOptions()
			quantified.Unfold = false
			t.Run("quantified", func(t *testing.T) { generatePair(t, q, quantified) })
			// The list kernel is quantified mode's ground solver: its
			// suite must reach the default kernel's outcome sequence.
			t.Run("list-kernel", func(t *testing.T) {
				qs, err := core.NewGenerator(q, quantified).Generate()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := outcomeSequence(qs), outcomeSequence(a); !reflect.DeepEqual(got, want) {
					t.Fatalf("quantified outcomes differ from the default's:\n%v\nvs\n%v", got, want)
				}
			})
		})
	}
}
