package core

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/qtree"
	"repro/internal/solver"
)

// TestArithmeticOffsetDomainClosure is a regression test for a
// finite-domain gap found by the randql soak (seed 10518): a comparison
// constant c contributes boundary values c±1 to the value pool, but if
// the query routes that boundary through an arithmetic join condition
// (a.x + k = b.y), the partner column needs (c±1)±k — two hops from any
// collected constant. The pool used to contain only one-level pairwise
// sums/differences, so salary > 6 AND id = salary + 1 had no
// satisfying assignment inside the pool (8 = (6+1)+1 was missing) and
// the generator wrongly declared the original query unsatisfiable,
// silently skipping every kill dataset with it.
func TestArithmeticOffsetDomainClosure(t *testing.T) {
	q := buildQuery(t, ddlNoFK,
		"SELECT i.id, t.course_id FROM instructor AS i JOIN teaches AS t "+
			"ON i.salary + 1 = t.id WHERE i.salary > 6 AND t.course_id <= t.id")
	suite, err := NewGenerator(q, DefaultOptions()).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if suite.Original == nil {
		t.Fatalf("no dataset satisfying the original query was generated; "+
			"skips: %v", suite.Skipped)
	}
	if err := q.Schema.CheckDataset(suite.Original); err != nil {
		t.Fatalf("original dataset violates schema: %v", err)
	}
	res, err := engine.NewPlan(q).Run(suite.Original)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("original dataset yields an empty result")
	}
}

// TestLinOf checks the scalar translation every constraint goes
// through: linear arithmetic with coefficients and cancellation, an
// occurrence bound to another slot, and the rejection of forms outside
// assumption A4.
func TestLinOf(t *testing.T) {
	// lin compiles the right side of the query's one predicate in tuple
	// set 0 of a two-set problem, with c bound to its tuple-set-1 slot
	// when bound is set.
	lin := func(t *testing.T, sql string, bound bool) (solver.Lin, *problem, error) {
		t.Helper()
		q := buildQuery(t, ddlNoFK, sql)
		p, err := NewGenerator(q, DefaultOptions()).newProblem(2, false)
		if err != nil {
			t.Fatal(err)
		}
		var bind map[string]*slot
		if bound {
			bind = map[string]*slot{"c": p.occSlot[occSet{"c", 1}]}
		}
		l, err := p.linOf(q.Preds[0].R, bind, 0)
		return l, p, err
	}
	cx := qtree.AttrRef{Occ: "c", Attr: "x"}
	t.Run("linear", func(t *testing.T) {
		l, p, err := lin(t, "SELECT * FROM nums_b b, nums_c c WHERE b.x = 2 * c.x + 10", false)
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.varOf(cx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if l.Const != 10 || len(l.Terms) != 1 || l.Terms[0] != (solver.Term{Coef: 2, V: v}) {
			t.Errorf("linOf = %+v, want 2*%d + 10", l, v)
		}
	})
	t.Run("cancellation", func(t *testing.T) {
		l, _, err := lin(t, "SELECT * FROM nums_b b, nums_c c WHERE b.x = c.x - c.x + 3", false)
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Terms) != 0 || l.Const != 3 {
			t.Errorf("linOf = %+v, want the constant 3", l)
		}
	})
	t.Run("bound", func(t *testing.T) {
		l, p, err := lin(t, "SELECT * FROM nums_b b, nums_c c WHERE b.x = c.x + 1", true)
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.varOf(cx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if l.Const != 1 || len(l.Terms) != 1 || l.Terms[0] != (solver.Term{Coef: 1, V: v}) {
			t.Errorf("linOf = %+v, want the bound slot's %d + 1", l, v)
		}
	})
	t.Run("rejects_nonlinear", func(t *testing.T) {
		for _, sql := range []string{
			"SELECT * FROM nums_b b, nums_c c WHERE b.x = c.x * c.x",
			"SELECT * FROM nums_b b, nums_c c WHERE b.x = c.x / 2",
		} {
			if l, _, err := lin(t, sql, false); err == nil || !strings.Contains(err.Error(), "linear") {
				t.Errorf("%s: linOf = %+v, %v; want a non-linear error", sql, l, err)
			}
		}
	})
}
