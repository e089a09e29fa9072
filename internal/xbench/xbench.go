// Package xbench regenerates the paper's evaluation (§VI-C): Table I
// (inner-join queries), Table II (selection/aggregation queries), the
// §VI-C.1 comparison against the short-paper algorithm [14], and the
// §VI-C.3 input-database experiment. The same runners back the xbench
// command-line tool and the repository's Go benchmarks.
package xbench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/university"
)

// Row is one table row: a (query, foreign-key count) cell with the
// measurements the paper reports.
type Row struct {
	Query     string
	Joins     int
	Relations int
	Sels      int
	Aggs      int
	FKs       int

	Datasets      int // generated kill datasets (original excluded, as in the paper)
	MutantsTotal  int // de-duplicated mutant space size
	MutantsKilled int
	Survivors     int
	// SurvivorsEquivalent counts survivors confirmed (by randomized
	// testing) to be equivalent mutants; with complete generation it
	// equals Survivors.
	SurvivorsEquivalent int

	TimeWithoutUnfold time.Duration
	TimeWithUnfold    time.Duration
	// Solver work counters: the implementation-independent view of the
	// unfolding ablation (search nodes visited; instantiation restarts
	// occur only without unfolding).
	NodesWithoutUnfold    int64
	NodesWithUnfold       int64
	RestartsWithoutUnfold int64
}

// Options tune experiment runs.
type Options struct {
	// SkipQuantified skips the slow "without unfolding" timing column.
	SkipQuantified bool
	// SkipKillCheck skips mutant-space evaluation (timing-only runs).
	SkipKillCheck bool
	// CheckEquivalence verifies every surviving mutant by randomized
	// testing (automating the paper's manual check).
	CheckEquivalence bool
	// EquivTrials for the randomized equivalence checker.
	EquivTrials int
}

// runCell measures one (query, fkCount) cell. Cancelling ctx stops it
// cooperatively between and inside its runs.
func runCell(ctx context.Context, bq university.BenchQuery, fk int, opts Options) (Row, error) {
	row := Row{Query: bq.Name, Joins: bq.Joins, Relations: bq.Relations, Sels: bq.Sels, Aggs: bq.Aggs, FKs: fk}
	sch := university.Schema(fk)
	q, err := qtree.BuildSQL(sch, bq.SQL)
	if err != nil {
		return row, fmt.Errorf("%s: %w", bq.Name, err)
	}

	genOpts := core.DefaultOptions()

	t0 := time.Now()
	suite, err := core.NewGenerator(q, genOpts).GenerateContext(ctx)
	if err != nil {
		return row, fmt.Errorf("%s (unfolded): %w", bq.Name, err)
	}
	row.TimeWithUnfold = time.Since(t0)
	row.Datasets = len(suite.Datasets)
	row.NodesWithUnfold = suite.Stats.SolverNodes

	if !opts.SkipQuantified {
		qOpts := genOpts
		qOpts.Unfold = false
		t1 := time.Now()
		qSuite, err := core.NewGenerator(q, qOpts).GenerateContext(ctx)
		if err != nil {
			return row, fmt.Errorf("%s (quantified): %w", bq.Name, err)
		}
		row.TimeWithoutUnfold = time.Since(t1)
		row.NodesWithoutUnfold = qSuite.Stats.SolverNodes
		row.RestartsWithoutUnfold = qSuite.Stats.SolverRestarts
	}

	if !opts.SkipKillCheck {
		ms, err := mutation.Space(q, mutation.DefaultOptions())
		if err != nil {
			return row, fmt.Errorf("%s: %w", bq.Name, err)
		}
		rep, err := mutation.EvaluateContext(ctx, q, ms, suite.All())
		if err != nil {
			return row, fmt.Errorf("%s: %w", bq.Name, err)
		}
		row.MutantsTotal = len(ms)
		row.MutantsKilled = rep.KilledCount()
		row.Survivors = len(rep.Survivors())
		if opts.CheckEquivalence {
			trials := opts.EquivTrials
			if trials <= 0 {
				trials = 120
			}
			chk := mutation.NewEquivalenceChecker(1)
			chk.Trials = trials
			for _, mi := range rep.Survivors() {
				equiv, _, err := chk.Check(q, ms[mi])
				if err != nil {
					return row, err
				}
				if equiv {
					row.SurvivorsEquivalent++
				}
			}
		}
	}
	return row, nil
}

// RunTableI regenerates Table I: inner-join queries of 1–6 joins under
// varying foreign-key counts. On cancellation it returns the rows
// completed so far with the error, as every runner here does.
func RunTableI(ctx context.Context, opts Options) ([]Row, error) {
	var rows []Row
	for _, bq := range university.TableIQueries() {
		for _, fk := range bq.FKCounts {
			row, err := runCell(ctx, bq, fk, opts)
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RunTableII regenerates Table II: queries with selections and
// aggregations.
func RunTableII(ctx context.Context, opts Options) ([]Row, error) {
	var rows []Row
	for _, bq := range university.TableIIQueries() {
		for _, fk := range bq.FKCounts {
			row, err := runCell(ctx, bq, fk, opts)
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// InputDBRow is one cell of the §VI-C.3 experiment: generation time as a
// function of input-database size.
type InputDBRow struct {
	InputTuples int // tuples per relation (0 = no input database)
	Datasets    int
	Time        time.Duration
	// SolverProblemSize is the cell's total constraint-plus-domain
	// size. Unlike Time it is deterministic, so tests assert the
	// paper's growth-with-input-size shape on it without wall-clock
	// flakiness.
	SolverProblemSize int64
}

// RunInputDB regenerates the §VI-C.3 experiment on the paper's subject
// (the 4-join query with no foreign keys), with tuples constrained to
// come from input databases of increasing size.
func RunInputDB(ctx context.Context, sizes []int) ([]InputDBRow, error) {
	bq := university.TableIQueries()[3] // Q4: 4 joins, 5 relations
	var rows []InputDBRow
	for _, n := range sizes {
		sch := university.Schema(0)
		q, err := qtree.BuildSQL(sch, bq.SQL)
		if err != nil {
			return rows, err
		}
		genOpts := core.DefaultOptions()
		if n > 0 {
			genOpts.InputDB = university.SampleDB(sch, n)
			genOpts.ForceInputTuples = true
		}
		t0 := time.Now()
		suite, err := core.NewGenerator(q, genOpts).GenerateContext(ctx)
		if err != nil {
			return rows, err
		}
		rows = append(rows, InputDBRow{
			InputTuples:       n,
			Datasets:          len(suite.Datasets),
			Time:              time.Since(t0),
			SolverProblemSize: suite.Stats.SolverProblemSize,
		})
	}
	return rows, nil
}

// BaselineRow is one cell of the §VI-C.1 comparison between the
// short-paper algorithm [14] and the current algorithm.
type BaselineRow struct {
	Query            string
	FKs              int
	Joins            int
	BaselineDatasets int
	BaselineKilled   int
	BaselineTime     time.Duration
	XDataDatasets    int
	XDataKilled      int
	XDataTime        time.Duration
	MutantsTotal     int
}

// RunBaseline regenerates the §VI-C.1 comparison. As in the paper, the
// Table I queries run on the schema without foreign keys (the [14]
// algorithm does not handle them); the additional cells on FK schemas
// and on queries with selections/aggregations exhibit where [14] fails
// to kill non-equivalent mutants. The sample database is the baseline's
// tuple source.
func RunBaseline(ctx context.Context, opts Options) ([]BaselineRow, error) {
	type cell struct {
		bq university.BenchQuery
		fk int
	}
	var cells []cell
	for _, bq := range university.TableIQueries() {
		cells = append(cells, cell{bq, 0})
	}
	// Q1 with its foreign key, and the selection/aggregation queries:
	// cases where emptying relations cannot kill everything.
	cells = append(cells, cell{university.TableIQueries()[0], 1})
	for _, bq := range university.TableIIQueries() {
		cells = append(cells, cell{bq, bq.FKCounts[0]})
	}
	var rows []BaselineRow
	for _, c := range cells {
		bq := c.bq
		sch := university.Schema(c.fk)
		q, err := qtree.BuildSQL(sch, bq.SQL)
		if err != nil {
			return rows, err
		}
		input := university.SampleDB(sch, 5)

		t0 := time.Now()
		bl, err := baseline.Generate(q, input)
		if err != nil {
			return rows, err
		}
		blTime := time.Since(t0)

		t1 := time.Now()
		suite, err := core.NewGenerator(q, core.DefaultOptions()).GenerateContext(ctx)
		if err != nil {
			return rows, err
		}
		xTime := time.Since(t1)

		row := BaselineRow{
			Query: bq.Name, FKs: c.fk, Joins: bq.Joins,
			BaselineDatasets: len(bl), BaselineTime: blTime,
			XDataDatasets: len(suite.Datasets), XDataTime: xTime,
		}
		if !opts.SkipKillCheck {
			ms, err := mutation.Space(q, mutation.DefaultOptions())
			if err != nil {
				return rows, err
			}
			row.MutantsTotal = len(ms)
			blRep, err := mutation.EvaluateContext(ctx, q, ms, bl)
			if err != nil {
				return rows, err
			}
			row.BaselineKilled = blRep.KilledCount()
			xRep, err := mutation.EvaluateContext(ctx, q, ms, suite.All())
			if err != nil {
				return rows, err
			}
			row.XDataKilled = xRep.KilledCount()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable renders rows in the paper's Table I/II layout.
func FormatTable(rows []Row, withSelAgg bool) string {
	var sb strings.Builder
	if withSelAgg {
		sb.WriteString("Query  #Joins  #Sel  #Agg  #FK  #Datasets  #MutantsKilled/Total  Time(Work) w/o Unfolding   Time(Work) with\n")
	} else {
		sb.WriteString("Query  #Joins(#Rel)  #FK  #Datasets  #MutantsKilled/Total  Time(Work) w/o Unfolding   Time(Work) with\n")
	}
	for _, r := range rows {
		noUnfold := fmt.Sprintf("%s (%d nodes, %d restarts)", fmtDur(r.TimeWithoutUnfold), r.NodesWithoutUnfold, r.RestartsWithoutUnfold)
		if r.TimeWithoutUnfold == 0 {
			noUnfold = "-"
		}
		withUnfold := fmt.Sprintf("%s (%d nodes)", fmtDur(r.TimeWithUnfold), r.NodesWithUnfold)
		if withSelAgg {
			fmt.Fprintf(&sb, "%-6s %-7d %-5d %-5d %-4d %-10d %6d/%-13d %-26s %s\n",
				r.Query, r.Joins, r.Sels, r.Aggs, r.FKs, r.Datasets, r.MutantsKilled, r.MutantsTotal,
				noUnfold, withUnfold)
		} else {
			fmt.Fprintf(&sb, "%-6s %3d (%d)       %-4d %-10d %6d/%-13d %-26s %s\n",
				r.Query, r.Joins, r.Relations, r.FKs, r.Datasets, r.MutantsKilled, r.MutantsTotal,
				noUnfold, withUnfold)
		}
	}
	return sb.String()
}

// FormatInputDB renders the §VI-C.3 rows.
func FormatInputDB(rows []InputDBRow) string {
	var sb strings.Builder
	sb.WriteString("InputTuples/Relation  #Datasets  TotalTime\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-21d %-10d %s\n", r.InputTuples, r.Datasets, fmtDur(r.Time))
	}
	return sb.String()
}

// FormatBaseline renders the §VI-C.1 comparison rows.
func FormatBaseline(rows []BaselineRow) string {
	var sb strings.Builder
	sb.WriteString("Query  #Joins  #FK  [14] datasets/killed/time        X-Data datasets/killed/time      MutantSpace\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-6s %-7d %-4d %3d / %4d / %-14s %3d / %4d / %-14s %d\n",
			r.Query, r.Joins, r.FKs,
			r.BaselineDatasets, r.BaselineKilled, fmtDur(r.BaselineTime),
			r.XDataDatasets, r.XDataKilled, fmtDur(r.XDataTime),
			r.MutantsTotal)
	}
	return sb.String()
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(10 * time.Microsecond).String()
}
