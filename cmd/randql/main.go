// Command randql prints one randomized test case as a self-contained
// reproducer: the DDL, the query SQL, and -datasets random datasets as
// INSERT statements. It derives the case through the same entry point
// (randql.NewCase) the test harnesses use, so the case a failing test's
// reproducer names prints identically here.
//
// Usage:
//
//	randql -seed 10518                       # a case of the default grammar
//	randql -seed 10518 -config completeness  # the paper's guaranteed class
//	randql -seed 30092 -config completeness -subq 1 -having 1 -like 0.6
//
// The soaks themselves are go test runs: TestDifferentialOracle and
// TestSuiteCompleteness in internal/randql (see the -randql.* flags).
//
// Exit status is 0 on success, 1 when the case cannot be generated, 2 on
// usage errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/randql"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 1, "case seed")
	datasets := flag.Int("datasets", 3, "random datasets to print")
	configName := flag.String("config", "default", "grammar preset: default (full engine surface) or completeness (the paper's guaranteed class)")
	subq := flag.Float64("subq", -1, "WHERE-subquery probability override (-1 = preset)")
	having := flag.Float64("having", -1, "HAVING probability override (-1 = preset)")
	like := flag.Float64("like", -1, "LIKE probability override (-1 = preset)")
	flag.Parse()

	var cfg randql.Config
	switch *configName {
	case "default":
		cfg = randql.DefaultConfig()
	case "completeness":
		cfg = randql.CompletenessConfig()
	default:
		fmt.Fprintf(os.Stderr, "randql: unknown -config %q (want default or completeness)\n", *configName)
		return 2
	}
	if *subq >= 0 {
		cfg.SubqProb = *subq
	}
	if *having >= 0 {
		cfg.HavingProb = *having
	}
	if *like >= 0 {
		cfg.LikeProb = *like
	}

	c, err := randql.NewCase(*seed, cfg)
	if err != nil {
		return fatalf("seed %d: %v", *seed, err)
	}
	fmt.Print(c.Repro(nil))
	for d := 0; d < *datasets; d++ {
		ds, err := c.NextDataset()
		if err != nil {
			return fatalf("seed %d: dataset %d: %v", *seed, d, err)
		}
		fmt.Printf("-- dataset %d (%s)\n%s", d+1, ds.Purpose, ds.SQLInserts(c.Schema))
	}
	return 0
}

func fatalf(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "randql: "+format+"\n", args...)
	return 1
}
