package xbench

import (
	"context"
	"strings"
	"testing"
)

// The full Table I/II runs execute in the repository benchmarks; these
// tests exercise the runners on a fast subset and validate the paper-
// shape invariants the tables must exhibit.

func TestTableIShape(t *testing.T) {
	rows, err := RunTableI(context.Background(), Options{SkipQuantified: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("rows = %d, want 14 (the paper's Table I)", len(rows))
	}
	byQuery := map[string][]Row{}
	for _, r := range rows {
		byQuery[r.Query] = append(byQuery[r.Query], r)
	}
	for q, rs := range byQuery {
		// Within one query, adding foreign keys must not increase the
		// dataset count or the kill count (more equivalent mutants).
		for i := 1; i < len(rs); i++ {
			if rs[i].FKs < rs[i-1].FKs {
				t.Fatalf("%s: FK counts not ascending", q)
			}
			if rs[i].Datasets > rs[i-1].Datasets {
				t.Errorf("%s: datasets increased with FKs: %+v", q, rs)
			}
			if rs[i].MutantsKilled > rs[i-1].MutantsKilled {
				t.Errorf("%s: kills increased with FKs: %+v", q, rs)
			}
		}
	}
	// Across queries at FK=0, kills must grow with join count.
	prevKilled := -1
	for _, name := range []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"} {
		r := byQuery[name][0]
		if r.MutantsKilled <= prevKilled {
			t.Errorf("kills not increasing with joins at %s: %d <= %d", name, r.MutantsKilled, prevKilled)
		}
		prevKilled = r.MutantsKilled
	}
}

func TestTableIIShape(t *testing.T) {
	rows, err := RunTableII(context.Background(), Options{SkipQuantified: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MutantsKilled == 0 || r.Datasets == 0 {
			t.Errorf("%s: empty cell: %+v", r.Query, r)
		}
	}
	out := FormatTable(rows, true)
	for _, q := range []string{"Q7", "Q12"} {
		if !strings.Contains(out, q) {
			t.Errorf("formatted table missing %s:\n%s", q, out)
		}
	}
}

func TestUnfoldingWorkAblation(t *testing.T) {
	// The quantified mode must do strictly more solver work (nodes and
	// restarts) than the unfolded mode on every FK-bearing cell.
	rows, err := RunTableI(context.Background(), Options{SkipKillCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.NodesWithoutUnfold < r.NodesWithUnfold {
			t.Errorf("%s fk=%d: quantified nodes %d < unfolded %d",
				r.Query, r.FKs, r.NodesWithoutUnfold, r.NodesWithUnfold)
		}
		if r.RestartsWithoutUnfold == 0 && r.Datasets > 0 {
			t.Errorf("%s fk=%d: no instantiation restarts recorded", r.Query, r.FKs)
		}
	}
}

func TestInputDBGrowth(t *testing.T) {
	rows, err := RunInputDB(context.Background(), []int{0, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// §VI-C.3 shape: generation work grows with input-database size.
	// Problem size (constraints + candidate domains) is asserted
	// instead of wall time because it is deterministic; total time
	// tracks it but is noisy under a loaded test machine.
	if !(rows[0].SolverProblemSize < rows[1].SolverProblemSize && rows[1].SolverProblemSize < rows[2].SolverProblemSize) {
		t.Errorf("input-db problem size not increasing: %d %d %d (times %v %v %v)",
			rows[0].SolverProblemSize, rows[1].SolverProblemSize, rows[2].SolverProblemSize,
			rows[0].Time, rows[1].Time, rows[2].Time)
	}
	if !strings.Contains(FormatInputDB(rows), "InputTuples") {
		t.Error("FormatInputDB header missing")
	}
}

func TestBaselineComparisonShape(t *testing.T) {
	rows, err := RunBaseline(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	// §VI-C.1 shape: X-Data kills at least as many mutants everywhere,
	// and strictly more on at least one aggregation/selection cell.
	strictly := false
	for _, r := range rows {
		if r.XDataKilled < r.BaselineKilled {
			t.Errorf("%s fk=%d: X-Data killed %d < baseline %d", r.Query, r.FKs, r.XDataKilled, r.BaselineKilled)
		}
		if r.XDataKilled > r.BaselineKilled {
			strictly = true
		}
	}
	if !strictly {
		t.Error("baseline never strictly worse; the [14] incompleteness did not reproduce")
	}
	if !strings.Contains(FormatBaseline(rows), "[14]") {
		t.Error("FormatBaseline header missing")
	}
}
