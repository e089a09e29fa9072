package xbench

import (
	"context"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/qtree"
	"repro/internal/university"
)

// This file defines the machine-readable benchmark report emitted by
// `xbench -json` and pinned at the repo root as BENCH_<n>.json — the
// repository's performance trajectory. The JSON schema is documented in
// EXPERIMENTS.md; all durations are integer nanoseconds.

// ReportSchemaVersion identifies the BENCH_<n>.json schema. Bump it
// when a field changes meaning; additions are backward compatible.
const ReportSchemaVersion = 1

// Environment pins the machine facts a benchmark number depends on.
type Environment struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS is the scheduler's parallelism ceiling at report time.
	// Parallel-scaling rows are only meaningful relative to it: on a
	// GOMAXPROCS=1 machine every worker setting measures ~1x.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// Benchmark is one headline measurement: a fixed workload repeated
// Iters times, with the deterministic work counters that make the
// number interpretable (and regressions diagnosable) across machines.
type Benchmark struct {
	// Name identifies the workload ("university_generation": every
	// Table I and Table II cell, unfolded, Parallelism=1; or
	// "university_generation_parallel": the same workload at a given
	// worker budget — the parallel-scaling rows).
	Name  string `json:"name"`
	Iters int    `json:"iters"`
	// Workers is the worker count the iteration ran with
	// (core Options.Parallelism; 1 = the sequential headline
	// configuration).
	Workers int `json:"workers"`
	// NsPerOp is the mean wall time of one workload iteration.
	NsPerOp int64 `json:"ns_per_op"`
	TotalNs int64 `json:"total_ns"`
	// AllocsPerOp/BytesPerOp are the mean heap allocation count and
	// byte volume of one workload iteration (runtime.MemStats deltas
	// across the timed loop — the same accounting as testing.B
	// ReportAllocs). The steady-state solver target is tracked by the
	// 0-allocs/op lock in internal/solver; these whole-workload numbers
	// include parsing, goal enumeration, and suite assembly.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Deterministic per-iteration work counters (identical every iter).
	Datasets             int64 `json:"datasets"`
	SolverCalls          int64 `json:"solver_calls"`
	SolverNodes          int64 `json:"solver_nodes"`
	ComponentCount       int64 `json:"component_count"`
	ComponentCacheHits   int64 `json:"component_cache_hits"`
	BasePropagationNodes int64 `json:"base_propagation_nodes"`
}

// BaselineRef is an earlier pinned measurement the report compares
// against (the perf trajectory: BENCH_3 -> BENCH_4 -> ...).
type BaselineRef struct {
	Label   string  `json:"label"`
	NsPerOp int64   `json:"ns_per_op"`
	Speedup float64 `json:"speedup"` // baseline ns/op divided by current ns/op
}

// Report is the root object of a BENCH_<n>.json file. Sections are
// emitted only for the experiments that ran.
type Report struct {
	SchemaVersion int         `json:"schema_version"`
	GeneratedAt   string      `json:"generated_at"` // RFC 3339, UTC
	Environment   Environment `json:"environment"`
	Parallelism   int         `json:"parallelism"` // worker setting for table sections (0 = all CPUs)
	Benchmarks    []Benchmark `json:"benchmarks,omitempty"`
	// KillMatrix is the kill-matrix throughput measurement, checked
	// against refeval (see RunKillMatrixBench).
	KillMatrix  *KillMatrixBench `json:"kill_matrix,omitempty"`
	Baseline    *BaselineRef     `json:"baseline,omitempty"`
	TableI      []Row            `json:"table1,omitempty"`
	TableII     []Row            `json:"table2,omitempty"`
	InputDB     []InputDBRow     `json:"inputdb,omitempty"`
	BaselineCmp []BaselineRow    `json:"baseline_cmp,omitempty"`
}

// NewReport returns a Report stamped with the current time and machine.
func NewReport(parallelism int) *Report {
	return &Report{
		SchemaVersion: ReportSchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Environment: Environment{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Parallelism: parallelism,
	}
}

// SetBaseline records the trajectory comparison against an earlier
// pinned run of the named benchmark (no-op when the benchmark is
// missing or either number is zero).
func (r *Report) SetBaseline(label string, nsPerOp int64, benchName string) {
	if nsPerOp <= 0 {
		return
	}
	for _, b := range r.Benchmarks {
		if b.Name == benchName && b.NsPerOp > 0 {
			r.Baseline = &BaselineRef{
				Label:   label,
				NsPerOp: nsPerOp,
				Speedup: float64(nsPerOp) / float64(b.NsPerOp),
			}
			return
		}
	}
}

// RunUniversityBench measures the headline single-thread number tracked
// across PRs: one iteration generates every Table I and Table II cell
// (unfolded mode, Parallelism=1, fresh generator per cell — the same
// workload as BenchmarkUniversityGeneration). The work counters are
// from the final iteration; they are deterministic, so any iteration
// reports the same values.
func RunUniversityBench(ctx context.Context, iters int) (Benchmark, error) {
	return runUniversity(ctx, "university_generation", iters, 1)
}

// RunUniversityScaling measures the parallel-scaling rows: the same
// university workload at goal-level Parallelism 1, 2, and 4. Read the
// rows against Environment.GOMAXPROCS — with one schedulable CPU every
// row is ~1x.
func RunUniversityScaling(ctx context.Context, iters int, workers []int) ([]Benchmark, error) {
	if len(workers) == 0 {
		workers = []int{1, 2, 4}
	}
	var rows []Benchmark
	for _, w := range workers {
		b, err := runUniversity(ctx, "university_generation_parallel", iters, w)
		if err != nil {
			return rows, err
		}
		rows = append(rows, b)
	}
	return rows, nil
}

// runUniversity runs the shared workload loop: one iteration generates
// every Table I and Table II cell with a fresh generator per cell, at
// the given total worker budget.
func runUniversity(ctx context.Context, name string, iters, workers int) (Benchmark, error) {
	if iters <= 0 {
		iters = 20
	}
	b := Benchmark{Name: name, Iters: iters, Workers: workers}

	type cell struct{ q *qtree.Query }
	var cells []cell
	for _, set := range [][]university.BenchQuery{university.TableIQueries(), university.TableIIQueries()} {
		for _, bq := range set {
			for _, fk := range bq.FKCounts {
				sch := university.Schema(fk)
				q, err := qtree.BuildSQL(sch, bq.SQL)
				if err != nil {
					return b, err
				}
				cells = append(cells, cell{q: q})
			}
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return b, err
		}
		var st core.Stats
		var datasets int64
		for _, c := range cells {
			opts := core.DefaultOptions()
			opts.Parallelism = workers
			suite, err := core.NewGenerator(c.q, opts).GenerateContext(ctx)
			if err != nil {
				return b, err
			}
			datasets += int64(len(suite.Datasets))
			st.SolverCalls += suite.Stats.SolverCalls
			st.SolverNodes += suite.Stats.SolverNodes
			st.ComponentCount += suite.Stats.ComponentCount
			st.ComponentCacheHits += suite.Stats.ComponentCacheHits
			st.BasePropagationNodes += suite.Stats.BasePropagationNodes
		}
		b.Datasets = datasets
		b.SolverCalls = int64(st.SolverCalls)
		b.SolverNodes = st.SolverNodes
		b.ComponentCount = st.ComponentCount
		b.ComponentCacheHits = st.ComponentCacheHits
		b.BasePropagationNodes = st.BasePropagationNodes
	}
	b.TotalNs = time.Since(t0).Nanoseconds()
	b.NsPerOp = b.TotalNs / int64(iters)
	runtime.ReadMemStats(&ms1)
	b.AllocsPerOp = int64(ms1.Mallocs-ms0.Mallocs) / int64(iters)
	b.BytesPerOp = int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(iters)
	return b, nil
}
