// Command xbench regenerates the tables of the paper's evaluation
// (§VI-C) on this machine:
//
//	xbench -table 1          # Table I: inner-join queries
//	xbench -table 2          # Table II: selection/aggregation queries
//	xbench -table inputdb    # §VI-C.3: input-database experiment
//	xbench -table baseline   # §VI-C.1: comparison with the [14] algorithm
//	xbench -table all        # all four
//
// Flags tune thoroughness: -fast skips the slow "without unfolding"
// column, -equiv verifies surviving mutants by randomized equivalence
// testing. -timeout bounds the whole run.
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
	table := flag.String("table", "all", "which experiment to run: 1, 2, inputdb, baseline, all")
	fast := flag.Bool("fast", false, "skip the quantified (without-unfolding) timing column")
	equiv := flag.Bool("equiv", false, "verify surviving mutants by randomized equivalence testing")
	trials := flag.Int("trials", 120, "randomized equivalence trials per surviving mutant")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget (0 = unlimited); partial results are printed on expiry")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	switch *table {
	case "1", "2", "inputdb", "baseline", "all":
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
	}

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

	if want("1") {
		run("table 1", func() error {
			rows, err := xbench.RunTableI(ctx, opts)
			fmt.Println("=== Table I: inner-join queries ===")
			fmt.Print(xbench.FormatTable(rows, false))
			if *equiv {
				printEquiv(rows)
			}
			fmt.Println()
			return err
		})
	}
	if want("2") {
		run("table 2", func() error {
			rows, err := xbench.RunTableII(ctx, opts)
			fmt.Println("=== Table II: selection/aggregation queries ===")
			fmt.Print(xbench.FormatTable(rows, true))
			if *equiv {
				printEquiv(rows)
			}
			fmt.Println()
			return err
		})
	}
	if want("inputdb") {
		run("inputdb", func() error {
			rows, err := xbench.RunInputDB(ctx, []int{0, 5, 9})
			fmt.Println("=== §VI-C.3: input-database experiment (Q4, 0 FKs) ===")
			fmt.Print(xbench.FormatInputDB(rows))
			fmt.Println()
			return err
		})
	}
	if want("baseline") {
		run("baseline", func() error {
			rows, err := xbench.RunBaseline(ctx, opts)
			fmt.Println("=== §VI-C.1: short-paper algorithm [14] vs X-Data (0 FKs) ===")
			fmt.Print(xbench.FormatBaseline(rows))
			fmt.Println()
			return err
		})
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
