// Command xbench regenerates the tables of the paper's evaluation
// (§VI-C) on this machine:
//
//	xbench -table 1          # Table I: inner-join queries
//	xbench -table 2          # Table II: selection/aggregation queries
//	xbench -table inputdb    # §VI-C.3: input-database experiment
//	xbench -table baseline   # §VI-C.1: comparison with the [14] algorithm
//	xbench -table bench      # headline single-thread generation benchmark
//	xbench -table killmatrix # kill-matrix throughput, checked against refeval
//	xbench -table all        # everything
//
// Flags tune thoroughness: -fast skips the slow "without unfolding"
// column, -equiv verifies surviving mutants by randomized equivalence
// testing. -timeout bounds the whole run.
//
// -json emits one machine-readable report (schema documented in
// EXPERIMENTS.md) to stdout instead of the text tables; pinned runs are
// committed as BENCH_<n>.json at the repo root to track the perf
// trajectory. -baseline-ns/-baseline-label embed the previous pinned
// headline number so the report carries its own speedup.
//
// -cpuprofile/-memprofile write runtime/pprof profiles of the run for
// use with `go tool pprof`.
//
// Interruption is graceful: on SIGINT/SIGTERM (or -timeout expiry) the
// current cell stops cooperatively and every table prints the rows
// completed so far before the process exits, instead of dying
// mid-benchmark with nothing flushed.
//
// Exit codes: 0 complete run; 1 fatal error; 2 usage error; 3
// interrupted or timed out (partial results printed).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"repro/internal/xbench"
)

func main() {
	os.Exit(run())
}

func run() int {
	table := flag.String("table", "all", "which experiment to run: 1, 2, inputdb, baseline, bench, killmatrix, all")
	fast := flag.Bool("fast", false, "skip the quantified (without-unfolding) timing column")
	equiv := flag.Bool("equiv", false, "verify surviving mutants by randomized equivalence testing")
	trials := flag.Int("trials", 120, "randomized equivalence trials per surviving mutant")
	parallel := flag.Int("parallel", 0, "workers for generation and kill-matrix evaluation (0 = all CPUs, 1 = sequential)")
	scaling := flag.Bool("scaling", true, "include parallel-scaling rows (workers 1/2/4) in -table bench")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget (0 = unlimited); partial results are printed on expiry")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON report (see EXPERIMENTS.md) instead of text tables")
	iters := flag.Int("iters", 50, "iterations for -table bench (the headline single-thread benchmark)")
	kmIters := flag.Int("killmatrix-iters", 10, "timed evaluation passes for -table killmatrix")
	baseNs := flag.Int64("baseline-ns", 0, "previous pinned headline ns/op to embed as the trajectory baseline (0 = none)")
	baseLabel := flag.String("baseline-label", "", "label for -baseline-ns (e.g. BENCH_3)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	switch *table {
	case "1", "2", "inputdb", "baseline", "bench", "killmatrix", "all":
	default:
		flag.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "xbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "xbench: -memprofile: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := xbench.Options{
		SkipQuantified:   *fast,
		CheckEquivalence: *equiv,
		EquivTrials:      *trials,
		Parallelism:      *parallel,
		Context:          ctx,
	}
	report := xbench.NewReport(*parallel)

	exit := 0
	// run executes one experiment; the closure must print whatever rows
	// it accumulated BEFORE returning an error, so interrupts flush
	// partial results.
	run := func(name string, f func() error) {
		if exit == 3 {
			return // already interrupted: don't start further tables
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "xbench: %s: %v\n", name, err)
			if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				exit = 3
				return
			}
			exit = 1
		}
	}

	want := func(t string) bool { return *table == "all" || *table == t }
	text := !*jsonOut

	if want("1") {
		run("table 1", func() error {
			rows, err := xbench.RunTableI(opts)
			report.TableI = rows
			if text {
				fmt.Println("=== Table I: inner-join queries ===")
				fmt.Print(xbench.FormatTable(rows, false))
				if *equiv {
					printEquiv(rows)
				}
				fmt.Println()
			}
			return err
		})
	}
	if want("2") {
		run("table 2", func() error {
			rows, err := xbench.RunTableII(opts)
			report.TableII = rows
			if text {
				fmt.Println("=== Table II: selection/aggregation queries ===")
				fmt.Print(xbench.FormatTable(rows, true))
				if *equiv {
					printEquiv(rows)
				}
				fmt.Println()
			}
			return err
		})
	}
	if want("inputdb") {
		run("inputdb", func() error {
			rows, err := xbench.RunInputDBContext(ctx, []int{0, 5, 9})
			report.InputDB = rows
			if text {
				fmt.Println("=== §VI-C.3: input-database experiment (Q4, 0 FKs) ===")
				fmt.Print(xbench.FormatInputDB(rows))
				fmt.Println()
			}
			return err
		})
	}
	if want("baseline") {
		run("baseline", func() error {
			rows, err := xbench.RunBaseline(opts)
			report.BaselineCmp = rows
			if text {
				fmt.Println("=== §VI-C.1: short-paper algorithm [14] vs X-Data (0 FKs) ===")
				fmt.Print(xbench.FormatBaseline(rows))
				fmt.Println()
			}
			return err
		})
	}
	if want("bench") {
		run("bench", func() error {
			b, err := xbench.RunUniversityBench(ctx, *iters)
			if err != nil {
				return err
			}
			report.Benchmarks = append(report.Benchmarks, b)
			if text {
				fmt.Println("=== headline: university workload, single thread ===")
				fmt.Printf("%s: %d iters, %d ns/op, %d allocs/op, %d B/op, %d datasets, %d solver nodes, %d components (%d cache hits), %d base propagation nodes\n\n",
					b.Name, b.Iters, b.NsPerOp, b.AllocsPerOp, b.BytesPerOp, b.Datasets, b.SolverNodes, b.ComponentCount, b.ComponentCacheHits, b.BasePropagationNodes)
			}
			if *scaling {
				rows, err := xbench.RunUniversityScaling(ctx, *iters, []int{1, 2, 4})
				report.Benchmarks = append(report.Benchmarks, rows...)
				if text && len(rows) > 0 {
					fmt.Printf("=== parallel scaling: university workload (GOMAXPROCS=%d) ===\n", runtime.GOMAXPROCS(0))
					for _, r := range rows {
						fmt.Printf("workers=%d: %d ns/op, %d allocs/op, %d B/op, %d solver nodes\n", r.Workers, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, r.SolverNodes)
					}
					fmt.Println()
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
	}

	if want("killmatrix") {
		run("killmatrix", func() error {
			kb, err := xbench.RunKillMatrixBench(ctx, *kmIters)
			if err != nil {
				return err
			}
			report.KillMatrix = &kb
			if text {
				fmt.Println("=== kill matrix: compiled columnar engine, checked against refeval ===")
				fmt.Printf("%s: %d iters, %d cells (%d mutants x %d datasets = %d matrix cells)\n",
					kb.Name, kb.Iters, kb.Cells, kb.Mutants, kb.Datasets, kb.MatrixCells)
				fmt.Printf("refeval agreement: %d matrix cells, 0 disagreements\n", kb.MatrixCells)
				fmt.Printf("compiled %d ns/op\n", kb.CompiledNsPerOp)
				fmt.Printf("exec: %d compiled runs, %d batches, %d hash joins, %d small joins, %d nested-loop joins, %d prefix-cache hits, %d result-memo hits\n\n",
					kb.Exec.CompiledRuns, kb.Exec.CompiledBatches, kb.Exec.HashJoins, kb.Exec.SmallJoins, kb.Exec.NestedLoopJoins, kb.Exec.FamilyPrefixHits, kb.Exec.ResultMemoHits)
			}
			return nil
		})
	}

	if *jsonOut {
		report.SetBaseline(*baseLabel, *baseNs, "university_generation")
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "xbench: encode report: %v\n", err)
			return 1
		}
	}
	return exit
}

func printEquiv(rows []xbench.Row) {
	for _, r := range rows {
		if r.Survivors > 0 {
			fmt.Printf("  %s (FK=%d): %d survivors, %d confirmed equivalent by randomized testing\n",
				r.Query, r.FKs, r.Survivors, r.SurvivorsEquivalent)
		}
	}
}
