// Command mutcheck enumerates the mutant space of a SQL query, generates
// the X-Data test suite, and reports the kill matrix: which datasets
// kill which mutants, which mutants survive, and (optionally) whether
// each survivor is equivalent to the original query according to
// randomized testing.
//
// Usage:
//
//	mutcheck -schema schema.sql -query "SELECT * FROM r, s WHERE r.x = s.x"
//	mutcheck -schema schema.sql -query ... -matrix -equiv
//
// Budgets and interruption: -timeout bounds the whole run, -goal-timeout
// and -goal-nodes bound each kill goal during suite generation.
// SIGINT/SIGTERM stop the run gracefully: the kill matrix of whatever
// was generated so far is still reported, along with the incomplete kill
// goals.
//
// Exit codes: 0 complete run; 1 fatal error or a non-equivalent mutant
// surviving the complete suite (a kill failure); 2 usage error or bad
// input (flag misuse, a query outside the supported class, or a
// resource-limit rejection); 3 partial suite (some kill goals
// incomplete after budgets or interruption — survivor counts are then
// only a lower bound).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro"
	"repro/internal/cli"
)

func main() {
	os.Exit(run())
}

func run() int {
	schemaPath := flag.String("schema", "", "path to a DDL file (required)")
	query := flag.String("query", "", "the SQL query to analyze (required)")
	matrix := flag.Bool("matrix", false, "print the full mutant x dataset kill matrix")
	equiv := flag.Bool("equiv", false, "test surviving mutants for equivalence by randomized execution")
	trials := flag.Int("trials", 120, "randomized trials per surviving mutant")
	fullOuter := flag.Bool("full-outer", false, "include mutations to FULL OUTER JOIN (the paper's tables exclude them)")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget (0 = unlimited); on expiry the partial results are reported and the exit code is 3")
	goalTimeout := flag.Duration("goal-timeout", 0, "wall-clock budget per kill goal (0 = unlimited)")
	goalNodes := flag.Int64("goal-nodes", 0, "solver node budget per kill goal, with escalating 1x/4x/16x retries (0 = unlimited)")
	flag.Parse()

	if *schemaPath == "" || *query == "" {
		flag.Usage()
		return 2
	}
	ddl, err := os.ReadFile(*schemaPath)
	if err != nil {
		fatal(err)
	}
	sch, err := xdata.ParseSchema(string(ddl))
	if err != nil {
		return inputFail(err)
	}
	q, err := xdata.ParseQuery(sch, *query)
	if err != nil {
		return inputFail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	genOpts := xdata.DefaultOptions()
	genOpts.GoalTimeout = *goalTimeout
	genOpts.GoalNodeLimit = *goalNodes
	suite, err := xdata.GenerateContext(ctx, q, genOpts)
	partial := false
	if err != nil {
		if errors.Is(err, xdata.ErrPartialSuite) && suite != nil {
			partial = true
			fmt.Fprintln(os.Stderr, "mutcheck:", err)
		} else {
			// Option-validation rejections (e.g. a negative
			// -goal-nodes) are flag misuse: exit 2, not 1.
			return inputFail(err)
		}
	}
	mopts := xdata.DefaultMutationOptions()
	mopts.IncludeFullOuter = *fullOuter
	// The kill matrix over a partial suite still evaluates cleanly; it
	// just reports a lower bound on kills. Use a fresh context so an
	// expired -timeout doesn't suppress the partial report.
	evalCtx := ctx
	if partial && ctx.Err() != nil {
		evalCtx = context.Background()
	}
	rep, err := xdata.AnalyzeContext(evalCtx, q, suite, mopts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("query: %s\n", *query)
	fmt.Printf("datasets: %d (+original), skipped as equivalent: %d\n", len(suite.Datasets), len(suite.Skipped))
	// Every engine counter, under its /statsz JSON name.
	exec, err := json.Marshal(rep.Exec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("engine: %s\n", exec)
	if len(suite.Incomplete) > 0 {
		fmt.Printf("incomplete kill goals: %d (kill counts are a lower bound)\n", len(suite.Incomplete))
		for _, f := range suite.Incomplete {
			fmt.Printf("  %s\n", f.String())
		}
	}
	fmt.Print(rep)

	if *matrix {
		fmt.Println("\nkill matrix (rows: mutants, columns: datasets; X = killed):")
		for di, ds := range rep.Datasets {
			fmt.Printf("  d%-3d %s\n", di, ds.Purpose)
		}
		for mi, m := range rep.Mutants {
			fmt.Printf("  %-60.60s ", m.Desc)
			for di := range rep.Datasets {
				if rep.Killed[mi][di] {
					fmt.Print("X")
				} else {
					fmt.Print(".")
				}
			}
			fmt.Println()
		}
	}

	killFailure := false
	ms := rep.Mutants
	survivors := rep.Survivors()
	if len(survivors) > 0 {
		fmt.Printf("\nsurviving mutants: %d\n", len(survivors))
		for _, mi := range survivors {
			fmt.Printf("  %s\n", ms[mi].Desc)
			if *equiv {
				isEquiv, witness, err := xdata.CheckEquivalent(q, ms[mi], *trials, 1)
				if err != nil {
					fatal(err)
				}
				if isEquiv {
					fmt.Printf("    -> equivalent (randomized testing, %d trials)\n", *trials)
				} else {
					fmt.Printf("    -> NOT equivalent! witness:\n%s\n", witness)
					killFailure = true
				}
			}
		}
	} else {
		fmt.Println("\nall mutants killed")
	}
	switch {
	case partial:
		return 3
	case killFailure:
		// A demonstrably non-equivalent mutant survived the complete
		// suite: the completeness guarantee failed.
		return 1
	default:
		return 0
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mutcheck:", err)
	os.Exit(1)
}

// inputFail reports a schema/query rejection and classifies it:
// unsupported constructs and resource-limit rejections are the
// caller's fault (exit 2, the daemon's 422 class), the rest fatal.
func inputFail(err error) int {
	fmt.Fprintln(os.Stderr, "mutcheck:", err)
	return cli.InputExitCode(err)
}
