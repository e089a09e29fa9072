package core

import (
	"testing"

	"repro/internal/qtree"
	"repro/internal/sqlparser"
	"repro/internal/testutil"
	"repro/internal/university"
)

// TestGenerateAllocs locks the allocations of one cold generation
// request: NewGenerator(q, opts).Generate() for a Table I cell, a Table
// II cell with comparison goals and the 9-tuple §VI-C.3 input-database
// cell. A warm generator reuses its layouts and shared cores, so it
// would hide the per-request cost this gate watches. The bounds are the
// counts measured when the gate was last changed plus at most 10%
// headroom. Run without -race: the race detector's instrumentation
// allocates.
func TestGenerateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are measured without -race")
	}
	for _, tc := range []struct {
		cell  string
		bound float64
	}{
		// 741 measured with the goals solved on the calling goroutine
		// over a lock-free component cache; 755 with a goal pool and
		// a claim entry and channel per cached component, 2,015 before
		// the per-Generate state, map-free extraction and carved
		// constraint nodes.
		{"Q6/fk0", 815},
		// 1,105 measured; 1,127 with the goal pool, 1,200 while a wide
		// equality merge built a map, 3,571 before that. The bound sits
		// below 1,200, so a per-merge allocation fails the gate.
		{"Q4/fk0/input9", 1160},
		// 797 measured; 819 with the goal pool. Its two selections run
		// the §V-E comparison goals, whose NOT-EXISTS quantifiers the
		// other two cells never build.
		{"Q11/fk1", 875},
	} {
		var cell university.Cell
		for _, c := range university.GenerationCells() {
			if c.Name == tc.cell {
				cell = c
			}
		}
		sch, err := sqlparser.ParseSchema(cell.DDL)
		if err != nil {
			t.Fatal(err)
		}
		q, err := qtree.BuildSQL(sch, cell.SQL)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		if cell.Inserts != "" {
			if opts.InputDB, err = sqlparser.ParseInserts(sch, cell.Inserts); err != nil {
				t.Fatal(err)
			}
			opts.ForceInputTuples = true
		}
		got := testing.AllocsPerRun(10, func() {
			if _, err := NewGenerator(q, opts).Generate(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per cold Generate (bound %.0f)", tc.cell, got, tc.bound)
		if got > tc.bound {
			t.Errorf("%s: a cold Generate allocates %.0f objects, bound %.0f", tc.cell, got, tc.bound)
		}
	}
}
