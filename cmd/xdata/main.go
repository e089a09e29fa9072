// Command xdata generates an X-Data test suite for a SQL query: a set of
// small datasets that together kill every non-equivalent join-type,
// comparison-operator and aggregation-operator mutant of the query.
//
// Usage:
//
//	xdata -schema schema.sql -query "SELECT * FROM r, s WHERE r.x = s.x"
//	xdata -schema schema.sql -queryfile q.sql -format sql
//	xdata -schema schema.sql -query ... -no-unfold -show-skipped
//	xdata -schema schema.sql -query ... -parallel 8
//
// The schema file contains CREATE TABLE statements (INT/VARCHAR/FLOAT
// types, PRIMARY KEY, FOREIGN KEY ... REFERENCES, NOT NULL). Output is
// one dataset per mutant group, as text tables (default) or INSERT
// statements (-format sql).
//
// Budgets and interruption: -timeout bounds the whole run, -goal-timeout
// and -goal-nodes bound each kill goal (exhausted goals are retried with
// escalating budgets, then reported as incomplete). SIGINT/SIGTERM stop
// generation gracefully: whatever datasets were already produced are
// printed, followed by an incomplete-goals report.
//
// -cpuprofile/-memprofile write runtime/pprof profiles of the run for
// use with `go tool pprof`.
//
// -replay re-runs a failure repro bundle captured by the daemon's
// -failure-dir (schema, query and options are read from the bundle;
// no other flags apply). Exit 3 means the captured failure reproduced,
// 0 means the suite now completes.
//
// Exit codes: 0 complete suite; 1 fatal error; 2 usage or bad input
// (flag misuse, a query outside the supported class, or a
// resource-limit rejection); 3 partial suite (some kill goals
// incomplete after budgets or interruption).
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
	"strings"
	"syscall"

	"repro"
	"repro/internal/cli"
)

func main() {
	os.Exit(run())
}

func run() int {
	schemaPath := flag.String("schema", "", "path to a DDL file with CREATE TABLE statements (required)")
	query := flag.String("query", "", "the SQL query to generate test data for")
	queryFile := flag.String("queryfile", "", "file containing the SQL query (alternative to -query)")
	format := flag.String("format", "text", "output format: text or sql")
	noUnfold := flag.Bool("no-unfold", false, "disable quantifier unfolding (paper §VI-B ablation; slower)")
	showSkipped := flag.Bool("show-skipped", true, "list dataset attempts skipped as equivalent-mutant groups")
	inputDB := flag.String("inputdb", "", "optional SQL file of INSERT statements providing an input database (§VI-A)")
	forceInput := flag.Bool("force-input-tuples", false, "constrain generated tuples to come from the input database")
	minimize := flag.Bool("minimize", false, "prune datasets whose kills are covered by others (greedy set cover)")
	parallel := flag.Int("parallel", 0, "kill-goal solver workers (0 = all CPUs, 1 = sequential); output is identical for every value")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget for generation (0 = unlimited); on expiry the partial suite is printed and the exit code is 3")
	goalTimeout := flag.Duration("goal-timeout", 0, "wall-clock budget per kill goal (0 = unlimited)")
	goalNodes := flag.Int64("goal-nodes", 0, "solver node budget per kill goal, with escalating 1x/4x/16x retries (0 = unlimited)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	replay := flag.String("replay", "", "re-run a failure repro bundle directory (written by xdatad -failure-dir); exit 3 = reproduced")
	flag.Parse()

	if *replay != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return cli.Replay(ctx, *replay, os.Stdout, os.Stderr)
	}
	if *schemaPath == "" || (*query == "" && *queryFile == "") {
		flag.Usage()
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "xdata: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "xdata: -memprofile:", err)
			}
		}()
	}
	ddl, err := os.ReadFile(*schemaPath)
	if err != nil {
		fatal(err)
	}
	sch, err := xdata.ParseSchema(string(ddl))
	if err != nil {
		return inputFail(err)
	}
	sql := *query
	if *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			fatal(err)
		}
		sql = string(b)
	}
	q, err := xdata.ParseQuery(sch, sql)
	if err != nil {
		return inputFail(err)
	}

	opts := xdata.DefaultOptions()
	opts.Unfold = !*noUnfold
	opts.Parallelism = *parallel
	opts.GoalTimeout = *goalTimeout
	opts.GoalNodeLimit = *goalNodes
	if *inputDB != "" {
		ds, err := loadInserts(sch, *inputDB)
		if err != nil {
			fatal(err)
		}
		opts.InputDB = ds
		opts.ForceInputTuples = *forceInput
	}

	// SIGINT/SIGTERM cancel generation cooperatively; already-generated
	// datasets are still printed below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	suite, err := xdata.GenerateContext(ctx, q, opts)
	partial := false
	if err != nil {
		if errors.Is(err, xdata.ErrPartialSuite) && suite != nil {
			partial = true
			fmt.Fprintln(os.Stderr, "xdata:", err)
		} else {
			// Option-validation rejections (e.g. a negative
			// -parallel) are flag misuse: exit 2, not 1.
			return inputFail(err)
		}
	}

	fmt.Printf("-- query: %s\n", strings.Join(strings.Fields(sql), " "))
	fmt.Printf("-- %d datasets (plus the original-query dataset), %d skipped as equivalent\n\n",
		len(suite.Datasets), len(suite.Skipped))
	datasets := suite.All()
	if *minimize {
		eopts := xdata.EvalOptions{Parallelism: *parallel}
		datasets, err = xdata.MinimizeOpts(q, suite, xdata.DefaultMutationOptions(), eopts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("-- minimized to %d datasets\n\n", len(datasets))
	}
	for i, ds := range datasets {
		fmt.Printf("=== dataset %d: %s ===\n", i, ds.Purpose)
		if *format == "sql" {
			out := ds.SQLInserts(sch)
			fmt.Println(strings.TrimPrefix(out, "-- "+ds.Purpose+"\n"))
		} else {
			out := ds.String()
			fmt.Println(strings.TrimPrefix(out, "-- "+ds.Purpose+"\n"))
		}
	}
	if *showSkipped && len(suite.Skipped) > 0 {
		fmt.Println("=== skipped (equivalent mutant groups) ===")
		for _, sk := range suite.Skipped {
			fmt.Printf("  %s\n    -> %s\n", sk.Purpose, sk.Reason)
		}
	}
	if len(suite.Incomplete) > 0 {
		fmt.Println("=== incomplete kill goals ===")
		for _, f := range suite.Incomplete {
			fmt.Printf("  %s\n", f.String())
		}
	}
	fmt.Printf("\n-- solver: %d calls, %d unsat, %v total solve time\n",
		suite.Stats.SolverCalls, suite.Stats.UnsatCount, suite.Stats.SolveTime)
	if suite.Stats.RetryCount > 0 || suite.Stats.LimitCount > 0 || suite.Stats.PanicCount > 0 {
		fmt.Printf("-- robustness: %d retries, %d budget exhaustions, %d recovered panics\n",
			suite.Stats.RetryCount, suite.Stats.LimitCount, suite.Stats.PanicCount)
	}
	if partial {
		return 3
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xdata:", err)
	os.Exit(1)
}

// inputFail reports a schema/query rejection and classifies it:
// unsupported constructs and resource-limit rejections are the
// caller's fault (exit 2, the daemon's 422 class), the rest fatal.
func inputFail(err error) int {
	fmt.Fprintln(os.Stderr, "xdata:", err)
	return cli.InputExitCode(err)
}

// loadInserts parses a minimal INSERT INTO t VALUES (...) file into a
// dataset.
func loadInserts(sch *xdata.Schema, path string) (*xdata.Dataset, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ds, err := xdata.ParseInserts(sch, string(b))
	if err != nil {
		return nil, err
	}
	return ds, nil
}
