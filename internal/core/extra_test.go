package core

import (
	"strings"
	"testing"

	"repro/internal/mutation"
	"repro/internal/schema"
	"repro/internal/sqltypes"
)

// Self-joins: repeated relation occurrences get separate tuple slots in
// one shared array (the paper's R[1], R[2] scheme).
func TestSelfJoinGeneration(t *testing.T) {
	const ddl = `CREATE TABLE emp (id INT PRIMARY KEY, mgr INT NOT NULL);`
	q := buildQuery(t, ddl, "SELECT * FROM emp e, emp m WHERE e.mgr = m.id")
	suite := generate(t, q, DefaultOptions())
	if suite.Original == nil {
		t.Fatal("no original dataset")
	}
	// Nullifying m.id requires no emp tuple matching e.mgr — possible:
	// e.mgr points nowhere.
	ms, err := mutation.Space(q, mutation.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	chk := mutation.NewEquivalenceChecker(9)
	for _, mi := range rep.Survivors() {
		equiv, witness, err := chk.Check(q, ms[mi])
		if err != nil {
			t.Fatal(err)
		}
		if !equiv {
			t.Errorf("self-join survivor %q not equivalent; witness:\n%s", ms[mi].Desc, witness)
		}
	}
}

// A self-join on the SAME attribute: nullifying either side is
// impossible (the other occurrence's tuple always matches itself), so
// both class datasets must be skipped as equivalent (§V-B discussion of
// repeated occurrences).
func TestSelfJoinSameAttributeEquivalent(t *testing.T) {
	const ddl = `CREATE TABLE r (x INT PRIMARY KEY);`
	q := buildQuery(t, ddl, "SELECT * FROM r a, r b WHERE a.x = b.x")
	suite := &Suite{}
	g := NewGenerator(q, DefaultOptions())
	if err := g.KillEquivalenceClasses(suite); err != nil {
		t.Fatal(err)
	}
	if len(suite.Datasets) != 0 {
		t.Errorf("datasets = %v, want none (nullifying r.x against itself is impossible)", purposes(suite))
	}
	if len(suite.Skipped) != 2 {
		t.Errorf("skips = %+v, want 2", suite.Skipped)
	}
	// And indeed all join-type mutants are equivalent.
	ms, err := mutation.JoinTypeMutants(q, mutation.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	chk := mutation.NewEquivalenceChecker(4)
	for _, m := range ms {
		equiv, witness, err := chk.Check(q, m)
		if err != nil {
			t.Fatal(err)
		}
		if !equiv {
			t.Errorf("mutant %q should be equivalent; witness:\n%s", m.Desc, witness)
		}
	}
}

// Queries containing outer joins: the written tree is mutated in place
// and the suite still covers the non-equivalent mutants.
func TestOuterJoinQueryGeneration(t *testing.T) {
	q := buildQuery(t, ddlNoFK, `SELECT i.id, i.name, t.id, t.course_id
		FROM instructor i LEFT OUTER JOIN teaches t ON i.id = t.id`)
	suite := generate(t, q, DefaultOptions())
	ms, err := mutation.Space(q, mutation.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	// LOJ -> JOIN is killed by the dataset with a non-teaching
	// instructor; LOJ -> ROJ by either nullification.
	if rep.KilledCount() != len(ms) {
		for mi, m := range ms {
			if !rep.MutantKilled(mi) {
				equiv, witness, err := mutation.NewEquivalenceChecker(2).Check(q, m)
				if err != nil {
					t.Fatal(err)
				}
				if !equiv {
					t.Errorf("outer-join survivor %q not equivalent; witness:\n%s", m.Desc, witness)
				}
			}
		}
	}
}

// Full outer join queries under assumption A7.
func TestFullOuterJoinQueryGeneration(t *testing.T) {
	q := buildQuery(t, ddlNoFK, `SELECT i.id, i.name, t.id, t.course_id
		FROM instructor i FULL OUTER JOIN teaches t ON i.id = t.id`)
	suite := generate(t, q, DefaultOptions())
	opts := mutation.DefaultOptions()
	opts.IncludeFullOuter = true
	ms, err := mutation.Space(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	// FOJ mutates to JOIN, LOJ, ROJ; all killable without FKs.
	if rep.KilledCount() != len(ms) {
		t.Errorf("killed %d of %d:\n%s", rep.KilledCount(), len(ms), rep)
	}
}

// Non-linear predicates are outside assumption A4 and must be rejected
// with a diagnostic at generation time (the engine can still run them).
func TestNonLinearPredicateRejected(t *testing.T) {
	const ddl = `CREATE TABLE n1 (x INT PRIMARY KEY, y INT NOT NULL);
		CREATE TABLE n2 (x INT PRIMARY KEY);`
	q := buildQuery(t, ddl, "SELECT * FROM n1 a, n2 b WHERE a.x = b.x * b.x")
	_, err := NewGenerator(q, DefaultOptions()).Generate()
	if err == nil || !strings.Contains(err.Error(), "linear") {
		t.Errorf("non-linear predicate not rejected: %v", err)
	}
	q2 := buildQuery(t, ddl, "SELECT * FROM n1 a, n2 b WHERE a.x = b.x / 2")
	if _, err := NewGenerator(q2, DefaultOptions()).Generate(); err == nil {
		t.Error("division predicate not rejected")
	}
}

// Foreign-key cycles cannot be ordered for repair-tuple sizing and must
// fail with a clear error.
func TestForeignKeyCycleRejected(t *testing.T) {
	const ddl = `
	CREATE TABLE p (x INT PRIMARY KEY, FOREIGN KEY (x) REFERENCES q(x));
	CREATE TABLE q (x INT PRIMARY KEY, FOREIGN KEY (x) REFERENCES p(x));`
	q := buildQuery(t, ddl, "SELECT * FROM p WHERE p.x > 0")
	_, err := NewGenerator(q, DefaultOptions()).Generate()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("FK cycle not rejected: %v", err)
	}
}

// Multiple aggregate calls each get their own Algorithm 4 dataset.
func TestMultipleAggregates(t *testing.T) {
	q := buildQuery(t, ddlNoFK, `SELECT dept_name, SUM(salary), MIN(id)
		FROM instructor GROUP BY dept_name`)
	suite := &Suite{}
	g := NewGenerator(q, DefaultOptions())
	if err := g.KillAggregates(suite); err != nil {
		t.Fatal(err)
	}
	if len(suite.Datasets) != 2 {
		t.Fatalf("datasets = %d, want 2 (one per aggregate): %v", len(suite.Datasets), purposes(suite))
	}
	ms := mutation.AggregateMutants(q)
	if len(ms) != 14 {
		t.Fatalf("mutants = %d, want 14", len(ms))
	}
	rep, err := mutation.Evaluate(q, ms, suite.Datasets)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KilledCount() != len(ms) {
		for mi, m := range ms {
			if !rep.MutantKilled(mi) {
				t.Errorf("survivor: %s", m.Desc)
			}
		}
	}
}

// Aggregation with a unique (G, A) pair: S1 is inconsistent with the
// chase and must be dropped, leaving SUM / SUM DISTINCT equivalent
// (paper §V-F).
func TestAggregateRelaxationUniqueGA(t *testing.T) {
	const ddl = `CREATE TABLE u (g INT NOT NULL, a INT NOT NULL, PRIMARY KEY (g, a));`
	q := buildQuery(t, ddl, "SELECT g, SUM(a) FROM u GROUP BY g")
	suite := &Suite{}
	g := NewGenerator(q, DefaultOptions())
	if err := g.KillAggregates(suite); err != nil {
		t.Fatal(err)
	}
	if len(suite.Datasets) != 1 {
		t.Fatalf("datasets = %v", purposes(suite))
	}
	if !strings.Contains(suite.Datasets[0].Purpose, "dropped") {
		t.Errorf("S1 drop not recorded in purpose: %s", suite.Datasets[0].Purpose)
	}
	// SUM vs SUM(DISTINCT) must be equivalent now; MIN/MAX still differ.
	ms := mutation.AggregateMutants(q)
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	chk := mutation.NewEquivalenceChecker(3)
	for _, mi := range rep.Survivors() {
		equiv, witness, err := chk.Check(q, ms[mi])
		if err != nil {
			t.Fatal(err)
		}
		if !equiv {
			t.Errorf("survivor %q not equivalent; witness:\n%s", ms[mi].Desc, witness)
		}
	}
	for mi, m := range ms {
		if strings.Contains(m.Desc, "MAX") && !rep.MutantKilled(mi) {
			t.Errorf("MAX mutant should be killed even with unique (G,A)")
		}
	}
}

// Aggregation where the group-by attributes form the primary key: every
// group has one tuple; S1 and S2 both drop; only COUNT-vs-others remains
// killable (paper §V-F).
func TestAggregateRelaxationGroupByIsKey(t *testing.T) {
	const ddl = `CREATE TABLE w (g INT PRIMARY KEY, a INT NOT NULL);`
	q := buildQuery(t, ddl, "SELECT g, SUM(a) FROM w GROUP BY g")
	suite := &Suite{}
	g := NewGenerator(q, DefaultOptions())
	if err := g.KillAggregates(suite); err != nil {
		t.Fatal(err)
	}
	if len(suite.Datasets) != 1 {
		t.Fatalf("datasets = %v (skips %+v)", purposes(suite), suite.Skipped)
	}
	ms := mutation.AggregateMutants(q)
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	// COUNT and COUNT(DISTINCT) return 1 while SUM returns a (choosable
	// as != 1); MIN = MAX = SUM = AVG on singleton groups are equivalent
	// mutants. Verify survivors are equivalent.
	chk := mutation.NewEquivalenceChecker(5)
	for _, mi := range rep.Survivors() {
		equiv, witness, err := chk.Check(q, ms[mi])
		if err != nil {
			t.Fatal(err)
		}
		if !equiv {
			t.Errorf("survivor %q not equivalent; witness:\n%s", ms[mi].Desc, witness)
		}
	}
}

// COUNT over a string column: numeric aggregate mutants are excluded
// from the space, and the datasets still kill the remaining ones.
func TestStringAggregate(t *testing.T) {
	q := buildQuery(t, ddlNoFK, "SELECT dept_name, COUNT(name) FROM instructor GROUP BY dept_name")
	suite := generate(t, q, DefaultOptions())
	ms := mutation.AggregateMutants(q)
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	if rep.KilledCount() != len(ms) {
		t.Errorf("killed %d of %d:\n%s", rep.KilledCount(), len(ms), rep)
	}
}

// The purpose labels must name the nullified elements so a human tester
// can understand each dataset (the paper's "small and intuitive"
// requirement).
func TestPurposeLabels(t *testing.T) {
	q := buildQuery(t, ddlFK, `SELECT * FROM instructor i, teaches t
		WHERE i.id = t.id AND i.salary > 1000`)
	suite := generate(t, q, DefaultOptions())
	for _, ds := range suite.Datasets {
		if !strings.Contains(ds.Purpose, "kill") {
			t.Errorf("uninformative purpose: %q", ds.Purpose)
		}
	}
	for _, sk := range suite.Skipped {
		if sk.Reason == "" {
			t.Errorf("skip without reason: %+v", sk)
		}
	}
}

// Datasets remain small: the paper stresses every test case must be
// inspectable by a human.
func TestDatasetsAreSmall(t *testing.T) {
	q := buildQuery(t, ddlFK, `SELECT * FROM instructor i, teaches t, course c
		WHERE i.id = t.id AND t.course_id = c.course_id`)
	suite := generate(t, q, DefaultOptions())
	for _, ds := range suite.All() {
		if ds.Size() > 12 {
			t.Errorf("dataset %q has %d rows; expected small intuitive datasets:\n%s",
				ds.Purpose, ds.Size(), ds)
		}
	}
}

// TestJointNullifyKillsTopJoinMutant: Algorithm 2 nullifies a class
// element jointly with the foreign keys referencing it. On the paper's
// (C LOJ A) JOIN B example, with A.x referencing B.x, that joint
// nullification is what makes the dataset with a c tuple lacking a b
// match satisfiable, and the suite kills every non-equivalent mutant:
// both mutants of the top join are killed, and the two of the inner
// join are equivalent, because the class closure also places
// a.x = b.x on the top join.
func TestJointNullifyKillsTopJoinMutant(t *testing.T) {
	const ddl = `
	CREATE TABLE b_rel (x INT PRIMARY KEY);
	CREATE TABLE a_rel (x INT NOT NULL, PRIMARY KEY(x), FOREIGN KEY (x) REFERENCES b_rel(x));
	CREATE TABLE c_rel (x INT PRIMARY KEY);`
	const sql = `SELECT c.x, a.x, b.x FROM (c_rel c LEFT OUTER JOIN a_rel a ON c.x = a.x)
		JOIN b_rel b ON c.x = b.x`
	q := buildQuery(t, ddl, sql)
	suite := generate(t, q, DefaultOptions())

	// The joint dataset contains a c tuple with NO matching b tuple.
	var joint bool
	for _, ds := range suite.Datasets {
		cRows, bRows := ds.Rows("c_rel"), ds.Rows("b_rel")
		for _, cr := range cRows {
			matched := false
			for _, br := range bRows {
				if sqltypes.Identical(cr[0], br[0]) {
					matched = true
				}
			}
			if !matched {
				joint = true
			}
		}
	}
	if !joint {
		t.Error("no dataset with a c tuple lacking a b match (the Algorithm 2 discussion example)")
	}

	ms, err := mutation.Space(q, mutation.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	chk := mutation.NewEquivalenceChecker(6)
	for _, mi := range rep.Survivors() {
		if strings.Contains(ms[mi].Desc, "|[b]") {
			t.Errorf("top-join mutant %q survived", ms[mi].Desc)
		}
		equiv, witness, err := chk.Check(q, ms[mi])
		if err != nil {
			t.Fatal(err)
		}
		if !equiv {
			t.Errorf("survivor %q not equivalent; witness:\n%s", ms[mi].Desc, witness)
		}
	}
}

// §V-H subquery decorrelation end to end: the IN subquery becomes a
// join, and the suite kills the join-type mutants of the decorrelated
// form.
func TestSubqueryDecorrelationEndToEnd(t *testing.T) {
	q := buildQuery(t, ddlNoFK, `SELECT * FROM instructor i
		WHERE i.id IN (SELECT t.id FROM teaches t WHERE t.course_id > 100)`)
	suite := generate(t, q, DefaultOptions())
	ms, err := mutation.Space(q, mutation.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("decorrelated query has no join mutants")
	}
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	chk := mutation.NewEquivalenceChecker(6)
	for _, mi := range rep.Survivors() {
		equiv, witness, err := chk.Check(q, ms[mi])
		if err != nil {
			t.Fatal(err)
		}
		if !equiv {
			t.Errorf("survivor %q not equivalent; witness:\n%s", ms[mi].Desc, witness)
		}
	}
}

// §VI-A: when the forced input-database constraints conflict with a kill
// constraint, the generator retries without them, recording the
// relaxation in the dataset's purpose.
func TestInputDBRelaxationRetry(t *testing.T) {
	q := buildQuery(t, ddlNoFK, "SELECT * FROM instructor i WHERE i.salary > 70000")
	// Input database with only one salary value: the <- and =-boundary
	// datasets cannot be built from it.
	input := schema.NewDataset("input")
	input.Insert("instructor", sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("a"), sqltypes.NewString("CS"), sqltypes.NewInt(90000)})
	opts := DefaultOptions()
	opts.InputDB = input
	opts.ForceInputTuples = true
	suite := generate(t, q, opts)
	if len(suite.Datasets) != 3 {
		t.Fatalf("datasets = %v", purposes(suite))
	}
	relaxed := 0
	for _, ds := range suite.Datasets {
		if strings.Contains(ds.Purpose, "relaxed") {
			relaxed++
		}
	}
	if relaxed == 0 {
		t.Errorf("no relaxation recorded: %v", purposes(suite))
	}
	// And the comparison mutants are still all killed.
	ms := mutation.ComparisonMutants(q)
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	if rep.KilledCount() != len(ms) {
		t.Errorf("killed %d of %d after relaxation", rep.KilledCount(), len(ms))
	}
}
