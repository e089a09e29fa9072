package mutation

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qtree"
	"repro/internal/university"
)

// TestWarmRunDatasetAllocs locks the kill matrix's steady state. Once a
// worker's cache has run a family over a dataset, running the whole
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
