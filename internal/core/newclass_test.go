package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/mutation"
	"repro/internal/qtree"
)

// assertAllKilledOrEquivalent generates the full mutation space for q,
// evaluates it against the suite, and requires every survivor to pass
// the randomized equivalence check (the paper's manual vetting step).
func assertAllKilledOrEquivalent(t *testing.T, q *qtree.Query, suite *Suite) *mutation.Report {
	t.Helper()
	ms, err := mutation.Space(q, mutation.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	checker := mutation.NewEquivalenceChecker(7)
	for _, mi := range rep.Survivors() {
		equiv, witness, err := checker.Check(q, ms[mi])
		if err != nil {
			t.Fatalf("equivalence check for %s: %v", ms[mi].Desc, err)
		}
		if !equiv {
			t.Errorf("survivor %s is NOT equivalent; witness:\n%s", ms[mi].Desc, witness)
		}
	}
	return rep
}

func TestSubqueryNotInMutantsAllKilled(t *testing.T) {
	q := buildQuery(t, ddlNoFK,
		"SELECT * FROM instructor i WHERE i.id NOT IN (SELECT t.id FROM teaches t)")
	suite := generate(t, q, DefaultOptions())
	rep := assertAllKilledOrEquivalent(t, q, suite)
	// All three connective mutants (IN, EXISTS, NOT EXISTS) are
	// non-equivalent here and must be killed outright.
	ms := mutation.SubqueryMutants(q)
	if len(ms) != 3 {
		t.Fatalf("subquery mutants = %d, want 3", len(ms))
	}
	for _, s := range rep.Survivors() {
		if rep.Mutants[s].Kind == mutation.KindSubquery {
			t.Errorf("subquery mutant survived: %s", rep.Mutants[s].Desc)
		}
	}
}

func TestSubqueryNotInWithInnerPredKilled(t *testing.T) {
	q := buildQuery(t, ddlNoFK,
		"SELECT * FROM instructor i WHERE i.id NOT IN (SELECT t.id FROM teaches t WHERE t.course_id > 5)")
	suite := generate(t, q, DefaultOptions())
	assertAllKilledOrEquivalent(t, q, suite)
}

// TestSubqueryNotInFKWitnessKilled pins the FK-repair fix in
// killSubWitness: with teaches.id referencing instructor(id) and the
// block selecting t.id against outer i.id, the witness dataset needs a
// second instructor tuple for the differing teaches row to reference.
// Without repair capacity the witness goal is UNSAT, silently skipped
// as equivalent, and the (non-equivalent) NOT IN -> NOT EXISTS mutant
// survives.
func TestSubqueryNotInFKWitnessKilled(t *testing.T) {
	q := buildQuery(t, ddlFK,
		"SELECT i.name FROM instructor i WHERE i.id NOT IN (SELECT t.id FROM teaches t WHERE t.course_id > 2)")
	suite := generate(t, q, DefaultOptions())
	rep := assertAllKilledOrEquivalent(t, q, suite)
	for _, s := range rep.Survivors() {
		if rep.Mutants[s].Kind == mutation.KindSubquery {
			t.Errorf("subquery mutant survived: %s", rep.Mutants[s].Desc)
		}
	}
}

func TestSubqueryCorrelatedNotExistsKilled(t *testing.T) {
	q := buildQuery(t, ddlNoFK,
		"SELECT * FROM instructor i WHERE NOT EXISTS (SELECT * FROM teaches t WHERE t.id = i.id)")
	suite := generate(t, q, DefaultOptions())
	// The only connective mutant with no outer expression is EXISTS; the
	// original dataset kills it (instructor present, teaches block empty
	// of matches ⇒ original returns rows, EXISTS returns none).
	assertAllKilledOrEquivalent(t, q, suite)
}

func TestSubqueryGoalDatasetShapes(t *testing.T) {
	q := buildQuery(t, ddlNoFK,
		"SELECT * FROM instructor i WHERE i.id NOT IN (SELECT t.id FROM teaches t)")
	g := NewGenerator(q, DefaultOptions())
	suite := runFamily(t, g, g.subqueryGoals())
	if len(suite.Datasets) != 2 {
		t.Fatalf("datasets = %d, want 2 (violation + witness): %v", len(suite.Datasets), purposes(suite))
	}
	var sawViolation, sawWitness bool
	for _, ds := range suite.Datasets {
		ids := map[int64]bool{}
		for _, r := range ds.Rows("teaches") {
			ids[r[0].Int()] = true
		}
		switch {
		case strings.Contains(ds.Purpose, "matching row"):
			sawViolation = true
			// Some instructor id must appear in the block, so the
			// original drops the row while IN and EXISTS keep it.
			found := false
			for _, r := range ds.Rows("instructor") {
				found = found || ids[r[0].Int()]
			}
			if !found {
				t.Errorf("violation dataset has no matching teaches row:\n%s", ds)
			}
		case strings.Contains(ds.Purpose, "witness"):
			sawWitness = true
			if len(ids) == 0 {
				t.Errorf("witness dataset has no teaches rows:\n%s", ds)
			}
		}
	}
	if !sawViolation || !sawWitness {
		t.Errorf("missing goal datasets: %v", purposes(suite))
	}
}

func TestHavingCountMutantsAllKilled(t *testing.T) {
	q := buildQuery(t, ddlNoFK,
		"SELECT dept_name, COUNT(*) FROM instructor GROUP BY dept_name HAVING COUNT(*) > 1")
	suite := generate(t, q, DefaultOptions())
	// COUNT(*) > 1 -> COUNT(*) <> 1 survives: groups are never empty, so
	// the two comparisons coincide — the checker must vet it equivalent.
	assertAllKilledOrEquivalent(t, q, suite)
}

func TestHavingSumMutantsAllKilled(t *testing.T) {
	q := buildQuery(t, ddlNoFK,
		"SELECT dept_name, SUM(salary) FROM instructor GROUP BY dept_name HAVING SUM(salary) >= 100")
	suite := generate(t, q, DefaultOptions())
	assertAllKilledOrEquivalent(t, q, suite)
}

func TestHavingMinStringKilled(t *testing.T) {
	q := buildQuery(t, ddlNoFK,
		"SELECT dept_name, COUNT(*) FROM instructor GROUP BY dept_name HAVING MIN(name) <> 'zz'")
	suite := generate(t, q, DefaultOptions())
	assertAllKilledOrEquivalent(t, q, suite)
}

func TestLikeMutantsAllKilled(t *testing.T) {
	q := buildQuery(t, ddlNoFK, "SELECT name FROM instructor WHERE name LIKE 'a%'")
	suite := generate(t, q, DefaultOptions())
	rep := assertAllKilledOrEquivalent(t, q, suite)
	for _, s := range rep.Survivors() {
		if rep.Mutants[s].Kind == mutation.KindLike {
			t.Errorf("like mutant survived: %s", rep.Mutants[s].Desc)
		}
	}
}

func TestNotLikeUnderscoreKilled(t *testing.T) {
	q := buildQuery(t, ddlNoFK,
		"SELECT name FROM instructor WHERE dept_name NOT LIKE '_s%' AND salary > 0")
	suite := generate(t, q, DefaultOptions())
	assertAllKilledOrEquivalent(t, q, suite)
}

func TestNewClassOriginalDatasetsNonEmpty(t *testing.T) {
	// Every new-class query's original dataset must produce rows, so the
	// suites witness non-trivial behaviour (paper §V-A).
	for _, sql := range []string{
		"SELECT * FROM instructor i WHERE i.id NOT IN (SELECT t.id FROM teaches t)",
		"SELECT * FROM instructor i WHERE NOT EXISTS (SELECT * FROM teaches t WHERE t.id = i.id)",
		"SELECT dept_name, COUNT(*) FROM instructor GROUP BY dept_name HAVING COUNT(*) > 1",
		"SELECT name FROM instructor WHERE name LIKE 'a%'",
	} {
		q := buildQuery(t, ddlNoFK, sql)
		suite := generate(t, q, DefaultOptions())
		if suite.Original == nil {
			t.Errorf("%s: no original dataset", sql)
			continue
		}
		res, err := engine.NewPlan(q).Run(suite.Original)
		if err != nil {
			t.Errorf("%s: %v", sql, err)
			continue
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s: original query empty on its dataset:\n%s", sql, suite.Original)
		}
	}
}

// TestHavingGoalsUnderCountConjuncts pins the HAVING comparison goals of
// a SUM/AVG/MIN/MAX conjunct beside COUNT conjuncts that need a group of
// two or more rows: the goal's group takes the smallest size the COUNT
// conjuncts admit, and the conjuncts are asserted exactly per tuple set,
// but for a DISTINCT SUM/AVG, which has no form over free values and
// holds on a shared aggregated value, targeted or not. On one-row groups
// each such goal was unsatisfiable, and non-equivalent operator mutants
// of the conjunct survived.
func TestHavingGoalsUnderCountConjuncts(t *testing.T) {
	const ddl = `CREATE TABLE dept (did INT PRIMARY KEY, budget INT);
		CREATE TABLE emp (eid INT PRIMARY KEY, did INT NOT NULL REFERENCES dept(did), sal INT NOT NULL);`
	chk := &mutation.EquivalenceChecker{Trials: 4000, MaxRows: 3, Seed: 7}
	for _, tc := range []struct {
		sql             string
		mutants, killed int
		// open lists the survivors known to be non-equivalent.
		open []string
	}{
		{"SELECT e.did, COUNT(*) FROM emp e GROUP BY e.did HAVING COUNT(*) = 2 AND SUM(e.sal) > 10", 10, 10, nil},
		{"SELECT e.did, MAX(e.sal) FROM emp e GROUP BY e.did HAVING COUNT(*) >= 2 AND MAX(e.sal) < 9", 17, 17, nil},
		// The three survivors are equivalent: COUNT(DISTINCT e.sal) > 1
		// -> <> 1 (a group holds at least one salary), and the outer
		// joins (the foreign key leaves no emp row unmatched, and a
		// padded dept row's group counts no salary).
		{"SELECT d.did, COUNT(*) FROM dept d, emp e WHERE d.did = e.did GROUP BY d.did HAVING COUNT(DISTINCT e.sal) > 1 AND MIN(e.sal) >= 3", 12, 9, nil},
		// Every HAVING mutant dies, and so does MAX -> SUM: every goal
		// holds SUM(DISTINCT e.sal) on a shared salary, so the original
		// dataset and Algorithm 4's "dropped S2" rung are satisfiable,
		// and that rung's three equal salaries tell SUM from MAX. The
		// other SELECT-list MAX(e.sal) mutants survive: the rungs that
		// would kill them need the group's values to differ, which the
		// shared value forbids.
		{"SELECT e.did, MAX(e.sal) FROM emp e GROUP BY e.did HAVING SUM(DISTINCT e.sal) > 10 AND MAX(e.sal) < 50", 17, 13, []string{
			"MAX(e.sal) -> MIN(e.sal)", "MAX(e.sal) -> AVG(e.sal)",
			"MAX(e.sal) -> SUM(DISTINCT e.sal)", "MAX(e.sal) -> AVG(DISTINCT e.sal)",
		}},
		{"SELECT e.did, COUNT(*) FROM emp e GROUP BY e.did HAVING COUNT(*) = 2 AND SUM(DISTINCT e.sal) > 10 AND MAX(e.sal) < 50", 15, 15, nil},
		// Algorithm 4's three tuple sets hold two distinct salaries (S1
		// shares one, S2 adds another), which the COUNT(DISTINCT)
		// conjunct must admit; asserting only one or three left every
		// rung unsatisfiable, and SUM -> MAX and SUM -> SUM(DISTINCT)
		// survived.
		{"SELECT e.did, SUM(e.sal) FROM emp e GROUP BY e.did HAVING COUNT(DISTINCT e.sal) = 2", 12, 12, nil},
	} {
		q := buildQuery(t, ddl, tc.sql)
		suite := generate(t, q, DefaultOptions())
		ms, err := mutation.Space(q, mutation.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mutation.Evaluate(q, ms, suite.All())
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != tc.mutants || rep.KilledCount() != tc.killed {
			t.Errorf("%s: killed %d of %d mutants, want %d of %d\n%s", tc.sql, rep.KilledCount(), len(ms), tc.killed, tc.mutants, rep)
		}
		for _, mi := range rep.Survivors() {
			equiv, witness, err := chk.Check(q, ms[mi])
			if err != nil {
				t.Fatal(err)
			}
			if !equiv && !slices.Contains(tc.open, ms[mi].Desc) {
				t.Errorf("%s: survivor %s is NOT equivalent; witness:\n%s", tc.sql, ms[mi].Desc, witness)
			}
		}
	}
}
