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
// measurements the paper reports. JSON field names are part of the
// BENCH_<n>.json schema documented in EXPERIMENTS.md; durations
// serialize as integer nanoseconds.
type Row struct {
	Query     string `json:"query"`
	Joins     int    `json:"joins"`
	Relations int    `json:"relations"`
	Sels      int    `json:"sels"`
	Aggs      int    `json:"aggs"`
	FKs       int    `json:"fks"`

	Datasets      int `json:"datasets"`       // generated kill datasets (original excluded, as in the paper)
	Skipped       int `json:"skipped"`        // unsatisfiable dataset attempts (equivalent mutant groups)
	MutantsTotal  int `json:"mutants_total"`  // de-duplicated mutant space size
	MutantsKilled int `json:"mutants_killed"` //
	Survivors     int `json:"survivors"`      //
	// SurvivorsEquivalent counts survivors confirmed (by randomized
	// testing) to be equivalent mutants; with complete generation it
	// equals Survivors.
	SurvivorsEquivalent int `json:"survivors_equivalent"`

	TimeWithoutUnfold time.Duration `json:"time_without_unfold_ns"`
	TimeWithUnfold    time.Duration `json:"time_with_unfold_ns"`
	// Solver work counters: the implementation-independent view of the
	// unfolding ablation (search nodes visited; instantiation restarts
	// occur only without unfolding).
	NodesWithoutUnfold    int64 `json:"nodes_without_unfold"`
	NodesWithUnfold       int64 `json:"nodes_with_unfold"`
	RestartsWithoutUnfold int64 `json:"restarts_without_unfold"`
	// Solver-microarchitecture counters for the unfolded run: connected
	// components solved, component-cache hits across kill goals, and
	// shared-base fixed-point propagation work performed once.
	ComponentCount       int64 `json:"component_count"`
	ComponentCacheHits   int64 `json:"component_cache_hits"`
	BasePropagationNodes int64 `json:"base_propagation_nodes"`
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
	// InputDB tuples per relation (0 = none) for domain seeding.
	InputTuples int
	// ForceInputTuples additionally constrains tuples to the input DB.
	ForceInputTuples bool
	// Parallelism is the worker count for both dataset generation and
	// kill-matrix evaluation (0 = all CPUs, 1 = sequential). Every
	// reported number is identical for every value; only wall-clock
	// timings change.
	Parallelism int
	// Context, when non-nil, cancels the experiment cooperatively
	// between and inside cells: runners return the rows completed so
	// far together with the cancellation error, so partial benchmark
	// results survive an interrupt.
	Context context.Context
}

// ctx returns the run's context (Background when unset).
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// runCell measures one (query, fkCount) cell.
func runCell(bq university.BenchQuery, fk int, opts Options) (Row, error) {
	row := Row{Query: bq.Name, Joins: bq.Joins, Relations: bq.Relations, Sels: bq.Sels, Aggs: bq.Aggs, FKs: fk}
	sch := university.Schema(fk)
	q, err := qtree.BuildSQL(sch, bq.SQL)
	if err != nil {
		return row, fmt.Errorf("%s: %w", bq.Name, err)
	}

	genOpts := core.DefaultOptions()
	genOpts.Parallelism = opts.Parallelism
	if opts.InputTuples > 0 {
		genOpts.InputDB = university.SampleDB(sch, opts.InputTuples)
		genOpts.ForceInputTuples = opts.ForceInputTuples
	}

	ctx := opts.ctx()
	t0 := time.Now()
	suite, err := core.NewGenerator(q, genOpts).GenerateContext(ctx)
	if err != nil {
		return row, fmt.Errorf("%s (unfolded): %w", bq.Name, err)
	}
	row.TimeWithUnfold = time.Since(t0)
	row.Datasets = len(suite.Datasets)
	row.Skipped = len(suite.Skipped)
	row.NodesWithUnfold = suite.Stats.SolverNodes
	row.ComponentCount = suite.Stats.ComponentCount
	row.ComponentCacheHits = suite.Stats.ComponentCacheHits
	row.BasePropagationNodes = suite.Stats.BasePropagationNodes

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
		rep, err := mutation.EvaluateContext(ctx, q, ms, suite.All(), mutation.EvalOptions{Parallelism: opts.Parallelism})
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
// varying foreign-key counts.
func RunTableI(opts Options) ([]Row, error) {
	var rows []Row
	for _, bq := range university.TableIQueries() {
		for _, fk := range bq.FKCounts {
			row, err := runCell(bq, fk, opts)
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
func RunTableII(opts Options) ([]Row, error) {
	var rows []Row
	for _, bq := range university.TableIIQueries() {
		for _, fk := range bq.FKCounts {
			row, err := runCell(bq, fk, opts)
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
	InputTuples int           `json:"input_tuples"` // tuples per relation (0 = no input database)
	Datasets    int           `json:"datasets"`
	Time        time.Duration `json:"time_ns"`
	// SolverProblemSize is the cell's total constraint-plus-domain
	// size. Unlike Time it is deterministic, so tests assert the
	// paper's growth-with-input-size shape on it without wall-clock
	// flakiness.
	SolverProblemSize int64 `json:"solver_problem_size"`
}

// RunInputDB regenerates the §VI-C.3 experiment on the paper's subject
// (the 4-join query with no foreign keys), with tuples constrained to
// come from input databases of increasing size.
func RunInputDB(sizes []int) ([]InputDBRow, error) {
	return RunInputDBContext(context.Background(), sizes)
}

// RunInputDBContext is RunInputDB with cooperative cancellation: the
// rows completed before cancellation are returned with the error.
func RunInputDBContext(ctx context.Context, sizes []int) ([]InputDBRow, error) {
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
	Query            string        `json:"query"`
	FKs              int           `json:"fks"`
	Joins            int           `json:"joins"`
	BaselineDatasets int           `json:"baseline_datasets"`
	BaselineKilled   int           `json:"baseline_killed"`
	BaselineTime     time.Duration `json:"baseline_time_ns"`
	XDataDatasets    int           `json:"xdata_datasets"`
	XDataKilled      int           `json:"xdata_killed"`
	XDataTime        time.Duration `json:"xdata_time_ns"`
	MutantsTotal     int           `json:"mutants_total"`
}

// RunBaseline regenerates the §VI-C.1 comparison. As in the paper, the
// Table I queries run on the schema without foreign keys (the [14]
// algorithm does not handle them); the additional cells on FK schemas
// and on queries with selections/aggregations exhibit where [14] fails
// to kill non-equivalent mutants. The sample database is the baseline's
// tuple source.
func RunBaseline(opts Options) ([]BaselineRow, error) {
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
	ctx := opts.ctx()
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

		genOpts := core.DefaultOptions()
		genOpts.Parallelism = opts.Parallelism
		t1 := time.Now()
		suite, err := core.NewGenerator(q, genOpts).GenerateContext(ctx)
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
			evalOpts := mutation.EvalOptions{Parallelism: opts.Parallelism}
			blRep, err := mutation.EvaluateContext(ctx, q, ms, bl, evalOpts)
			if err != nil {
				return rows, err
			}
			row.BaselineKilled = blRep.KilledCount()
			xRep, err := mutation.EvaluateContext(ctx, q, ms, suite.All(), evalOpts)
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
