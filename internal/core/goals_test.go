package core

import (
	"runtime"
	"testing"

	"repro/internal/qtree"
	"repro/internal/solver"
	"repro/internal/sqlparser"
	"repro/internal/university"
)

// TestGenerateStartsNoGoroutine: every kill goal solves on the goroutine
// that called Generate. A fault hook that injects nothing samples the
// goroutine count at each solve of the Q6/fk6 cell, and every sample
// must equal the count taken before Generate; a helper goroutine alive
// during any solve shows as one more.
func TestGenerateStartsNoGoroutine(t *testing.T) {
	var cell university.Cell
	for _, c := range university.GenerationCells() {
		if c.Name == "Q6/fk6" {
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

	var samples []int
	defer solver.SetFaultHook(nil)
	solver.SetFaultHook(func(string, int64) solver.Fault {
		samples = append(samples, runtime.NumGoroutine())
		return solver.FaultNone
	})
	before := runtime.NumGoroutine()
	if _, err := NewGenerator(q, DefaultOptions()).Generate(); err != nil {
		t.Fatal(err)
	}
	solver.SetFaultHook(nil)
	if len(samples) == 0 {
		t.Fatal("no solve was sampled")
	}
	for i, n := range samples {
		if n != before {
			t.Errorf("solve %d ran beside %d goroutines, want the %d before Generate", i+1, n, before)
		}
	}
}
