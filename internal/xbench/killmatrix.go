package xbench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/university"
)

// KillMatrixBench pins the kill-matrix evaluation throughput tracked
// across PRs: the full university mutation workload — every Table I and
// Table II cell's mutant space against its generated suite — evaluated
// by the engine. Suites and mutant spaces are prepared once outside the
// timed region.
//
// The timed passes include plan compilation: every evaluation compiles
// its original query and mutant plans as one family, as a request
// does, so a pass measures compile plus execution. (Before family
// compiles returned copies, timed passes reused the plans the untimed
// agreement pass had compiled and measured execution alone; ns/op from
// those versions is not comparable.)
type KillMatrixBench struct {
	// Name identifies the workload ("university_kill_matrix": every
	// Table I and Table II cell, Parallelism=1).
	Name  string `json:"name"`
	Iters int    `json:"iters"`
	// Cells is the number of (query, fk) workload cells; Mutants,
	// Datasets and MatrixCells total the mutant spaces, suite sizes and
	// mutant x dataset kill-matrix cells across them.
	Cells       int   `json:"cells"`
	Mutants     int64 `json:"mutants"`
	Datasets    int64 `json:"datasets"`
	MatrixCells int64 `json:"matrix_cells"`
	// CompiledNsPerOp is the mean wall time of one full-workload
	// evaluation pass.
	CompiledNsPerOp int64 `json:"compiled_ns_per_op"`
	// Exec holds the engine counters of one compiled evaluation pass
	// (deterministic per pass): plan runs, batches built, joins by
	// strategy, family prefix-cache and result-memo hits.
	Exec engine.ExecCounts `json:"exec"`
}

// kmCell is one prepared workload cell.
type kmCell struct {
	q     *qtree.Query
	ms    []*mutation.Mutant
	suite *core.Suite
}

// prepareKillMatrixCells generates every Table I and Table II suite and
// mutant space once (untimed).
func prepareKillMatrixCells(ctx context.Context) ([]kmCell, error) {
	var cells []kmCell
	for _, set := range [][]university.BenchQuery{university.TableIQueries(), university.TableIIQueries()} {
		for _, bq := range set {
			for _, fk := range bq.FKCounts {
				sch := university.Schema(fk)
				q, err := qtree.BuildSQL(sch, bq.SQL)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", bq.Name, err)
				}
				opts := core.DefaultOptions()
				opts.Parallelism = 1
				suite, err := core.NewGenerator(q, opts).GenerateContext(ctx)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", bq.Name, err)
				}
				ms, err := mutation.Space(q, mutation.DefaultOptions())
				if err != nil {
					return nil, fmt.Errorf("%s: %w", bq.Name, err)
				}
				cells = append(cells, kmCell{q: q, ms: ms, suite: suite})
			}
		}
	}
	return cells, nil
}

// RunKillMatrixBench measures kill-matrix evaluation and cross-checks
// it: the first, untimed pass's kill matrix is compared cell by cell
// with refeval's (mutation.ReferenceKills), and any disagreement is an
// error, enforced even in benchmark runs.
func RunKillMatrixBench(ctx context.Context, iters int) (KillMatrixBench, error) {
	if iters <= 0 {
		iters = 10
	}
	b := KillMatrixBench{Name: "university_kill_matrix", Iters: iters}
	cells, err := prepareKillMatrixCells(ctx)
	if err != nil {
		return b, err
	}
	b.Cells = len(cells)
	for _, c := range cells {
		nd := int64(len(c.suite.All()))
		b.Mutants += int64(len(c.ms))
		b.Datasets += nd
		b.MatrixCells += int64(len(c.ms)) * nd
	}

	evalPass := func() ([]*mutation.Report, engine.ExecCounts, error) {
		var reps []*mutation.Report
		var exec engine.ExecCounts
		for _, c := range cells {
			rep, err := mutation.EvaluateContext(ctx, c.q, c.ms, c.suite.All(), mutation.EvalOptions{Parallelism: 1})
			if err != nil {
				return nil, exec, err
			}
			exec.Add(rep.Exec)
			reps = append(reps, rep)
		}
		return reps, exec, nil
	}

	// Agreement check (untimed): every cell must match refeval.
	reps, exec, err := evalPass()
	if err != nil {
		return b, err
	}
	b.Exec = exec
	for ci, c := range cells {
		if err := ctx.Err(); err != nil {
			return b, err
		}
		ref, err := mutation.ReferenceKills(c.q, c.ms, c.suite.All())
		if err != nil {
			return b, fmt.Errorf("cell %d: %w", ci, err)
		}
		if mi, di, bad := reps[ci].FirstDisagreement(ref); bad {
			return b, fmt.Errorf("kill-matrix disagreement: cell %d mutant %q dataset %d: compiled=%v refeval=%v",
				ci, c.ms[mi].Desc, di, reps[ci].Killed[mi][di], ref[mi][di])
		}
	}

	// Each timed pass starts from a collected heap (the boundary GC is
	// untimed: its cost is marking the long-lived workload data —
	// suites, mutant plans — which is a constant unrelated to the
	// executor), while collector cycles the executor's own allocation
	// rate triggers still run, and are charged, inside the pass.
	var ns int64
	for i := 0; i < iters; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, _, err := evalPass(); err != nil {
			return b, err
		}
		ns += time.Since(t0).Nanoseconds()
	}
	b.CompiledNsPerOp = ns / int64(iters)
	return b, nil
}
