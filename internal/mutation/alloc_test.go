package mutation

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qtree"
	"repro/internal/testutil"
	"repro/internal/university"
)

// TestEvaluateAllocs locks the allocations of one cold kill-matrix
// evaluation: Evaluate over a cell's generated suite compiles the
// family afresh, runs every dataset through one SharedCache and carves
// the Report's and the evaluator's kill rows from one backing array
// each, not one row per mutant and per unique plan. The
// cells are the largest Table I family without foreign keys (Q6/fk0,
// 4,248 mutants), a mid-sized one (Q4/fk0) and an aggregate family
// (Q12/fk1), whose mutants still build their Results. The mutant space
// is built once outside the measured call, as a caller scoring several
// suites against one space does. The bounds are the counts measured
// when the gate was added plus at most 10% headroom. Run without -race:
// the race detector's instrumentation allocates.
func TestEvaluateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are measured without -race")
	}
	for _, tc := range []struct {
		query string
		fk    int
		bound float64
	}{
		// 1,392 measured; 1,758 with a kill row per mutant and per
		// unique plan.
		{"Q4", 0, 1530},
		// 26,479 measured; 34,973 before.
		{"Q6", 0, 29100},
		// 1,077 measured; 1,115 before.
		{"Q12", 1, 1180},
	} {
		name := fmt.Sprintf("%s/fk%d", tc.query, tc.fk)
		var sql string
		for _, bq := range append(university.TableIQueries(), university.TableIIQueries()...) {
			if bq.Name == tc.query {
				sql = bq.SQL
			}
		}
		q, err := qtree.BuildSQL(university.Schema(tc.fk), sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts := core.DefaultOptions()
		opts.Parallelism = 1
		suite, err := core.NewGenerator(q, opts).Generate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ms, err := Space(q, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		datasets := suite.All()
		got := testing.AllocsPerRun(5, func() {
			if _, err := Evaluate(q, ms, datasets); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d mutants, %d datasets: %.0f allocations per cold evaluation (bound %.0f)",
			name, len(ms), len(datasets), got, tc.bound)
		if got > tc.bound {
			t.Errorf("%s: a cold Evaluate allocates %.0f objects, bound %.0f", name, got, tc.bound)
		}
	}
}

// TestWarmRunDatasetAllocs locks the kill matrix's steady state. Once an
// evaluation's cache has run a family over a dataset, running the whole
// family over it again — Reset, the original query, then a verdict per
// unique mutant plan — allocates no more than building the original's
// Result and its row multiset does: every batch, index vector, value
// matrix and verdict comes from storage the cache already holds, and no
// mutant Result is built. The families are the Table I/II queries
// without aggregation, at every foreign-key count, over their generated
// suites; aggregate families still build each mutant's Result, so they
// are left out. Run without -race: the race detector's instrumentation
// allocates.
func TestWarmRunDatasetAllocs(t *testing.T) {
	families := 0
	for _, set := range [][]university.BenchQuery{university.TableIQueries(), university.TableIIQueries()} {
		for _, bq := range set {
			for _, fk := range bq.FKCounts {
				q, err := qtree.BuildSQL(university.Schema(fk), bq.SQL)
				if err != nil {
					t.Fatal(err)
				}
				if q.Agg != nil {
					continue
				}
				name := fmt.Sprintf("%s/fk%d", bq.Name, fk)
				opts := core.DefaultOptions()
				opts.Parallelism = 1
				suite, err := core.NewGenerator(q, opts).Generate()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ms, err := Space(q, DefaultOptions())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				datasets := suite.All()
				e, _, err := newEvaluator(context.Background(), q, ms, datasets)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sc := engine.NewSharedCacheSized(len(e.plans))
				for di := range datasets {
					if err := e.runDataset(di, sc); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				var most, bound float64
				for di, ds := range datasets {
					got := testing.AllocsPerRun(5, func() {
						if err := e.runDataset(di, sc); err != nil {
							t.Fatal(err)
						}
					})
					// The original's Result and its row multiset, built
					// alone through the same warm cache: Equal against an
					// uncached run of equal rows memoizes the multiset as
					// the verdicts do.
					other, err := e.orig.Run(ds)
					if err != nil {
						t.Fatal(err)
					}
					want := testing.AllocsPerRun(5, func() {
						sc.Reset()
						r, err := e.orig.RunOpts(ds, engine.RunOptions{Cache: sc})
						if err != nil {
							t.Fatal(err)
						}
						r.Equal(other)
					})
					if got > want {
						t.Errorf("%s dataset %d: a warm runDataset of %d plans allocates %.0f objects, the original's result %.0f",
							name, di, len(e.plans), got, want)
					}
					most, bound = max(most, got), max(bound, want)
				}
				t.Logf("%s: %d unique plans, %d datasets: at most %.0f allocations per warm runDataset (original's result: at most %.0f)",
					name, len(e.plans), len(datasets), most, bound)
				families++
			}
		}
	}
	if families == 0 {
		t.Fatal("no family without aggregation")
	}
}
