package solver_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/qtree"
	"repro/internal/randql"
	"repro/internal/solver"
	"repro/internal/sqlparser"
	"repro/internal/testutil"
	"repro/internal/university"
)

// TestLCVOrderOracle checks the least-constraining-value order against
// the full-scan reference on every orderValues call made while
// generating the 22 paper generation cells and randql default-grammar
// seeds 30001–30200 (node-budgeted, as in TestGenerationDigest). It
// fails on the first case whose orders differ.
func TestLCVOrderOracle(t *testing.T) {
	var first string
	remove := solver.SetOrderValuesOracle(func(v solver.VarID, in, got, want []int64) {
		if first == "" {
			first = fmt.Sprintf("variable %d, candidates %v: order %v, full scan %v", v, in, got, want)
		}
	})
	defer remove()
	check := func(name string) {
		t.Helper()
		if first != "" {
			t.Fatalf("%s: %s", name, first)
		}
	}
	for _, c := range university.GenerationCells() {
		sch, err := sqlparser.ParseSchema(c.DDL)
		if err != nil {
			t.Fatal(err)
		}
		q, err := qtree.BuildSQL(sch, c.SQL)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		if c.Inserts != "" {
			if opts.InputDB, err = sqlparser.ParseInserts(sch, c.Inserts); err != nil {
				t.Fatal(err)
			}
			opts.ForceInputTuples = true
		}
		if _, err := core.NewGenerator(q, opts).Generate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		check(c.Name)
	}
	if !testutil.RaceEnabled {
		for seed := int64(30001); seed <= 30200; seed++ {
			c, err := randql.NewCase(seed, randql.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.GoalNodeLimit = 2000
			// Errors and partial suites are TestGenerationDigest's concern.
			_, _ = core.NewGenerator(c.Query, opts).Generate()
			check(fmt.Sprintf("randql seed %d", seed))
		}
	} else {
		t.Log("randql window skipped under -race; the non-race solver gate runs it")
	}
	calls := remove()
	t.Logf("%d orderValues calls matched the full-scan order", calls)
	if calls == 0 {
		t.Fatal("no orderValues call was checked")
	}
}
