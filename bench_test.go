// Benchmarks regenerating every table and in-text experiment of the
// paper's evaluation (§VI-C). Each benchmark prints custom metrics
// matching the paper's columns:
//
//   - BenchmarkTableI       — Table I: inner-join queries, 1–6 joins,
//     varying foreign-key counts, with and without quantifier unfolding.
//   - BenchmarkTableII      — Table II: selection/aggregation queries.
//   - BenchmarkInputDB      — §VI-C.3: generation time vs input-database
//     size (0, 5, 9 tuples per relation).
//   - BenchmarkBaselineComparison — §VI-C.1: the short-paper algorithm
//     [14] vs this implementation.
//   - BenchmarkAblationEquivClasses — the join-order enumeration
//     ablation called out in DESIGN.md.
//
// Metrics: datasets = kill datasets generated (original excluded, as in
// the paper); killed/mutants = kill-matrix results; solver-nodes and
// restarts = solver work (the implementation-independent view of the
// unfolding ablation).
package xdata_test

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/university"
	"repro/internal/xbench"
)

// killMetrics caches the (expensive) kill-matrix evaluation per cell so
// benchmark calibration rounds do not repeat it.
var killMetrics sync.Map // "name/fk" -> [2]float64{mutants, killed}

// benchCell measures one (query, fk, unfold) generation cell.
func benchCell(b *testing.B, bq university.BenchQuery, fk int, unfold bool) {
	sch := university.Schema(fk)
	q, err := qtree.BuildSQL(sch, bq.SQL)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Unfold = unfold
	var suite *core.Suite
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite, err = core.NewGenerator(q, opts).Generate()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(suite.Datasets)), "datasets")
	b.ReportMetric(float64(suite.Stats.SolverNodes), "solver-nodes")
	b.ReportMetric(float64(suite.Stats.SolverRestarts), "restarts")

	// Kill-matrix metrics (measured once per cell, not timed).
	key := fmt.Sprintf("%s/%d", bq.Name, fk)
	cached, ok := killMetrics.Load(key)
	if !ok {
		ms, err := mutation.Space(q, mutation.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		rep, err := mutation.Evaluate(q, ms, suite.All())
		if err != nil {
			b.Fatal(err)
		}
		cached = [2]float64{float64(len(ms)), float64(rep.KilledCount())}
		killMetrics.Store(key, cached)
	}
	m := cached.([2]float64)
	b.ReportMetric(m[0], "mutants")
	b.ReportMetric(m[1], "killed")
}

func benchTable(b *testing.B, queries []university.BenchQuery) {
	for _, bq := range queries {
		for _, fk := range bq.FKCounts {
			bq, fk := bq, fk
			b.Run(bq.Name+"/fk="+strconv.Itoa(fk)+"/unfold", func(b *testing.B) {
				benchCell(b, bq, fk, true)
			})
			b.Run(bq.Name+"/fk="+strconv.Itoa(fk)+"/quantified", func(b *testing.B) {
				benchCell(b, bq, fk, false)
			})
		}
	}
}

// BenchmarkTableI regenerates Table I (inner-join queries).
func BenchmarkTableI(b *testing.B) { benchTable(b, university.TableIQueries()) }

// BenchmarkTableII regenerates Table II (selection/aggregation queries).
func BenchmarkTableII(b *testing.B) { benchTable(b, university.TableIIQueries()) }

// BenchmarkInputDB regenerates the §VI-C.3 experiment: the 4-join query
// with tuples constrained to input databases of growing size.
func BenchmarkInputDB(b *testing.B) {
	bq := university.TableIQueries()[3]
	for _, n := range []int{0, 5, 9} {
		n := n
		b.Run("tuples="+strconv.Itoa(n), func(b *testing.B) {
			sch := university.Schema(0)
			q, err := qtree.BuildSQL(sch, bq.SQL)
			if err != nil {
				b.Fatal(err)
			}
			opts := core.DefaultOptions()
			if n > 0 {
				opts.InputDB = university.SampleDB(sch, n)
				opts.ForceInputTuples = true
			}
			var suite *core.Suite
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				suite, err = core.NewGenerator(q, opts).Generate()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(suite.Datasets)), "datasets")
		})
	}
}

// BenchmarkBaselineComparison times the §VI-C.1 comparison pass: the
// short-paper algorithm [14] (input-database selection, no synthetic
// data, no FK handling) vs the constraint-based generator. The per-cell
// kill counts are printed by `xbench -table baseline`.
func BenchmarkBaselineComparison(b *testing.B) {
	ctx := context.Background()
	b.Run("xdata", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xbench.RunBaseline(ctx, xbench.Options{SkipKillCheck: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationEquivClasses measures the effect of enumerating all
// equivalent join orders (the equivalence-class representation of
// Example 4) on the mutant space: with AllJoinOrders disabled, only the
// written tree's mutants are considered and reordered-tree mutants are
// never examined.
func BenchmarkAblationEquivClasses(b *testing.B) {
	bq := university.TableIQueries()[2] // Q3: 3 joins
	sch := university.Schema(0)
	q, err := qtree.BuildSQL(sch, bq.SQL)
	if err != nil {
		b.Fatal(err)
	}
	for _, allOrders := range []bool{true, false} {
		name := "all-orders"
		if !allOrders {
			name = "written-tree-only"
		}
		allOrders := allOrders
		b.Run(name, func(b *testing.B) {
			opts := mutation.DefaultOptions()
			opts.AllJoinOrders = allOrders
			var ms []*mutation.Mutant
			for i := 0; i < b.N; i++ {
				ms, err = mutation.Space(q, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(ms)), "mutants")
		})
	}
}
