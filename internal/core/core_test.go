package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// DDL without foreign keys.
const ddlNoFK = `
CREATE TABLE instructor (
	id INT PRIMARY KEY,
	name VARCHAR(20) NOT NULL,
	dept_name VARCHAR(20) NOT NULL,
	salary INT NOT NULL
);
CREATE TABLE teaches (
	id INT NOT NULL,
	course_id INT NOT NULL,
	PRIMARY KEY (id, course_id)
);
CREATE TABLE course (
	course_id INT PRIMARY KEY,
	title VARCHAR(50) NOT NULL
);
CREATE TABLE nums_b (x INT PRIMARY KEY, y INT NOT NULL);
CREATE TABLE nums_c (x INT PRIMARY KEY, y INT NOT NULL);
`

// DDL with the paper's foreign keys (Example 2).
const ddlFK = `
CREATE TABLE instructor (
	id INT PRIMARY KEY,
	name VARCHAR(20) NOT NULL,
	dept_name VARCHAR(20) NOT NULL,
	salary INT NOT NULL
);
CREATE TABLE teaches (
	id INT NOT NULL,
	course_id INT NOT NULL,
	PRIMARY KEY (id, course_id),
	FOREIGN KEY (id) REFERENCES instructor(id)
);
CREATE TABLE course (
	course_id INT PRIMARY KEY,
	title VARCHAR(50) NOT NULL
);
`

func buildQuery(t *testing.T, ddl, sql string) *qtree.Query {
	t.Helper()
	sch, err := sqlparser.ParseSchema(ddl)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	q, err := qtree.BuildSQL(sch, sql)
	if err != nil {
		t.Fatalf("BuildSQL: %v", err)
	}
	return q
}

// runFamily solves one kill-goal family through the goal pipeline and
// merges the goals' sub-suites in goal order, as GenerateContext does.
func runFamily(t *testing.T, g *Generator, goals []killGoal) *Suite {
	t.Helper()
	subs, err := g.runGoals(context.Background(), goals)
	if err != nil {
		t.Fatal(err)
	}
	suite := &Suite{}
	for _, sub := range subs {
		mergeInto(suite, sub)
	}
	return suite
}

func generate(t *testing.T, q *qtree.Query, opts Options) *Suite {
	t.Helper()
	suite, err := NewGenerator(q, opts).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return suite
}

func TestOriginalDatasetNonEmptyResult(t *testing.T) {
	q := buildQuery(t, ddlNoFK, `SELECT * FROM instructor i, teaches t, course c
		WHERE i.id = t.id AND t.course_id = c.course_id`)
	suite := generate(t, q, DefaultOptions())
	if suite.Original == nil {
		t.Fatal("no original dataset")
	}
	res, err := engine.NewPlan(q).Run(suite.Original)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Errorf("original query empty on its dataset:\n%s", suite.Original)
	}
}

func TestDatasetsAreValid(t *testing.T) {
	q := buildQuery(t, ddlFK, `SELECT * FROM instructor i, teaches t, course c
		WHERE i.id = t.id AND t.course_id = c.course_id AND i.salary > 70000`)
	suite := generate(t, q, DefaultOptions())
	for _, ds := range suite.All() {
		if err := q.Schema.CheckDataset(ds); err != nil {
			t.Errorf("invalid dataset %q: %v", ds.Purpose, err)
		}
	}
}

func TestClassDatasetCountsNoFK(t *testing.T) {
	// One 2-member class, no FK: 2 nullification datasets (paper Table I
	// query 1, row 1).
	q := buildQuery(t, ddlNoFK, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	g := NewGenerator(q, DefaultOptions())
	suite := runFamily(t, g, g.equivalenceClassGoals())
	if len(suite.Datasets) != 2 {
		t.Errorf("datasets = %d, want 2", len(suite.Datasets))
	}
}

func TestClassDatasetCountsWithFK(t *testing.T) {
	// With FK teaches.id -> instructor.id: nullifying instructor.id is
	// impossible (P empty), leaving 1 dataset (Table I query 1, row 2).
	q := buildQuery(t, ddlFK, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	g := NewGenerator(q, DefaultOptions())
	suite := runFamily(t, g, g.equivalenceClassGoals())
	if len(suite.Datasets) != 1 {
		t.Errorf("datasets = %d, want 1: %v", len(suite.Datasets), purposes(suite))
	}
	if len(suite.Skipped) != 1 || !strings.Contains(suite.Skipped[0].Reason, "equivalent") {
		t.Errorf("skips = %+v", suite.Skipped)
	}
}

func purposes(s *Suite) []string {
	var out []string
	for _, d := range s.Datasets {
		out = append(out, d.Purpose)
	}
	return out
}

func TestNullificationDatasetShape(t *testing.T) {
	// The dataset nullifying teaches.id must contain an instructor with
	// no matching teaches tuple (Example: kills i LOJ t).
	q := buildQuery(t, ddlNoFK, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	g := NewGenerator(q, DefaultOptions())
	suite := runFamily(t, g, g.equivalenceClassGoals())
	var nullifyT *schema.Dataset
	for _, ds := range suite.Datasets {
		if strings.Contains(ds.Purpose, "nullify {t.id}") {
			nullifyT = ds
		}
	}
	if nullifyT == nil {
		t.Fatalf("no teaches nullification dataset in %v", purposes(suite))
	}
	inst := nullifyT.Rows("instructor")
	if len(inst) == 0 {
		t.Fatal("no instructor rows")
	}
	for _, ir := range inst {
		for _, tr := range nullifyT.Rows("teaches") {
			if sqltypes.Identical(ir[0], tr[0]) {
				t.Errorf("instructor %v has matching teaches %v; nullification failed", ir, tr)
			}
		}
	}
}

func TestExample2ForeignKeyWithSelection(t *testing.T) {
	// Paper Example 2: FK teaches.id -> instructor.id plus selection
	// dept_name = 'CS'. Nullifying instructor.id is impossible, but the
	// comparison datasets violating the selection provide an instructor
	// that matches the FK yet fails the selection, killing i ROJ t.
	q := buildQuery(t, ddlFK, `SELECT * FROM instructor i, teaches t
		WHERE i.id = t.id AND i.dept_name = 'CS'`)
	suite := generate(t, q, DefaultOptions())

	ms, err := mutation.JoinTypeMutants(q, mutation.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, mi := range rep.Survivors() {
		// Any survivor must be equivalent.
		equiv, witness, err := mutation.NewEquivalenceChecker(3).Check(q, ms[mi])
		if err != nil {
			t.Fatal(err)
		}
		if !equiv {
			t.Errorf("non-equivalent mutant %q survived; witness:\n%s", ms[mi].Desc, witness)
		}
	}
	// Specifically, the ROJ mutant must be killed (it is NOT equivalent
	// thanks to the selection).
	for mi, m := range ms {
		if strings.Contains(m.Desc, "ROJ") && !rep.MutantKilled(mi) {
			t.Errorf("ROJ mutant not killed despite selection (Example 2)")
		}
	}
}

func TestKillOtherPredicatesNonEquiJoin(t *testing.T) {
	// The paper's B.x = C.x + 10 example: two nullification datasets.
	q := buildQuery(t, ddlNoFK, "SELECT * FROM nums_b b, nums_c c WHERE b.x = c.x + 10")
	g := NewGenerator(q, DefaultOptions())
	suite := runFamily(t, g, g.otherPredicateGoals())
	if len(suite.Datasets) != 2 {
		t.Fatalf("datasets = %d, want 2: %v", len(suite.Datasets), purposes(suite))
	}
	// Each dataset: no b row equals any c row + 10 -- or vice versa; and
	// both relations non-empty so the difference reaches the root.
	for _, ds := range suite.Datasets {
		if len(ds.Rows("nums_b")) == 0 || len(ds.Rows("nums_c")) == 0 {
			t.Errorf("%q: empty side:\n%s", ds.Purpose, ds)
		}
	}
}

func TestComparisonDatasets(t *testing.T) {
	q := buildQuery(t, ddlNoFK, "SELECT * FROM instructor i WHERE i.salary > 70000")
	g := NewGenerator(q, DefaultOptions())
	suite := runFamily(t, g, g.comparisonOperatorGoals())
	if len(suite.Datasets) != 3 {
		t.Fatalf("datasets = %d, want 3: %v", len(suite.Datasets), purposes(suite))
	}
	// The three datasets have salary =, <, > 70000 respectively.
	signs := map[int]bool{}
	for _, ds := range suite.Datasets {
		for _, row := range ds.Rows("instructor") {
			switch {
			case row[3].Int() == 70000:
				signs[0] = true
			case row[3].Int() < 70000:
				signs[-1] = true
			default:
				signs[1] = true
			}
		}
	}
	if !signs[0] || !signs[-1] || !signs[1] {
		t.Errorf("missing boundary datasets: %v", signs)
	}
}

func TestComparisonMutantsAllKilled(t *testing.T) {
	q := buildQuery(t, ddlNoFK, "SELECT * FROM instructor i WHERE i.salary > 70000")
	suite := generate(t, q, DefaultOptions())
	ms := mutation.ComparisonMutants(q)
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.KilledCount(); got != len(ms) {
		t.Errorf("killed %d of %d comparison mutants\n%s", got, len(ms), rep)
	}
}

func TestStringComparisonMutantsAllKilled(t *testing.T) {
	q := buildQuery(t, ddlNoFK, "SELECT * FROM instructor i WHERE i.dept_name = 'CS'")
	suite := generate(t, q, DefaultOptions())
	ms := mutation.ComparisonMutants(q)
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.KilledCount(); got != len(ms) {
		t.Errorf("killed %d of %d string comparison mutants\n%s", got, len(ms), rep)
	}
}

func TestAggregateDatasetShape(t *testing.T) {
	q := buildQuery(t, ddlNoFK, "SELECT i.dept_name, SUM(i.salary) FROM instructor i GROUP BY i.dept_name")
	g := NewGenerator(q, DefaultOptions())
	suite := runFamily(t, g, g.aggregateGoals())
	if len(suite.Datasets) != 1 {
		t.Fatalf("datasets = %d, want 1 (skips: %+v)", len(suite.Datasets), suite.Skipped)
	}
	rows := suite.Datasets[0].Rows("instructor")
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 distinct tuples:\n%s", len(rows), suite.Datasets[0])
	}
	// All three share the group value; two share a non-zero salary and
	// the third differs.
	g0 := rows[0][2]
	salaries := map[int64]int{}
	for _, r := range rows {
		if !sqltypes.Identical(r[2], g0) {
			t.Errorf("group values differ: %v", rows)
		}
		salaries[r[3].Int()]++
	}
	if len(salaries) != 2 {
		t.Errorf("salary multiset = %v, want {v:2, w:1}", salaries)
	}
	for v, n := range salaries {
		if n == 2 && v == 0 {
			t.Errorf("duplicated aggregated value is zero: %v", salaries)
		}
	}
}

func TestAggregateMutantsAllKilled(t *testing.T) {
	q := buildQuery(t, ddlNoFK, "SELECT i.dept_name, SUM(i.salary) FROM instructor i GROUP BY i.dept_name")
	suite := generate(t, q, DefaultOptions())
	ms := mutation.AggregateMutants(q)
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.KilledCount(); got != len(ms) {
		for mi, m := range ms {
			if !rep.MutantKilled(mi) {
				t.Errorf("survivor: %s", m.Desc)
			}
		}
	}
}

func TestAggregateWithJoinAndFK(t *testing.T) {
	// Table II query 9 shape: 1 join, 1 FK, 1 aggregation.
	q := buildQuery(t, ddlFK, `SELECT i.dept_name, COUNT(t.course_id) FROM instructor i, teaches t
		WHERE i.id = t.id GROUP BY i.dept_name`)
	suite := generate(t, q, DefaultOptions())
	ms, err := mutation.Space(q, mutation.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	chk := mutation.NewEquivalenceChecker(11)
	for _, mi := range rep.Survivors() {
		equiv, witness, err := chk.Check(q, ms[mi])
		if err != nil {
			t.Fatal(err)
		}
		if !equiv {
			t.Errorf("non-equivalent survivor %q; witness:\n%s", ms[mi].Desc, witness)
		}
	}
}

// The headline completeness property (Theorem 1) on the paper's running
// example: generate the suite, enumerate the join-type mutant space over
// all join orders, and verify every surviving mutant is equivalent.
func TestCompletenessChainQuery(t *testing.T) {
	for _, ddl := range []string{ddlNoFK, ddlFK} {
		q := buildQuery(t, ddl, `SELECT * FROM instructor i, teaches t, course c
			WHERE i.id = t.id AND t.course_id = c.course_id`)
		suite := generate(t, q, DefaultOptions())
		ms, err := mutation.Space(q, mutation.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mutation.Evaluate(q, ms, suite.All())
		if err != nil {
			t.Fatal(err)
		}
		chk := mutation.NewEquivalenceChecker(5)
		for _, mi := range rep.Survivors() {
			equiv, witness, err := chk.Check(q, ms[mi])
			if err != nil {
				t.Fatal(err)
			}
			if !equiv {
				t.Errorf("non-equivalent survivor %q; witness:\n%s\ndatasets:\n%v",
					ms[mi].Desc, witness, purposes(suite))
			}
		}
	}
}

func TestQuantifiedModeSameDatasets(t *testing.T) {
	// Both solver modes must produce a complete suite (identical counts).
	q := buildQuery(t, ddlFK, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	opts := DefaultOptions()
	su := generate(t, q, opts)
	opts.Unfold = false
	sq := generate(t, q, opts)
	if len(su.Datasets) != len(sq.Datasets) || len(su.Skipped) != len(sq.Skipped) {
		t.Errorf("unfolded: %d/%d, quantified: %d/%d",
			len(su.Datasets), len(su.Skipped), len(sq.Datasets), len(sq.Skipped))
	}
}

func TestInputDBDomains(t *testing.T) {
	q := buildQuery(t, ddlNoFK, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	input := schema.NewDataset("input")
	input.Insert("instructor", sqltypes.Row{sqltypes.NewInt(42), sqltypes.NewString("einstein"), sqltypes.NewString("Physics"), sqltypes.NewInt(95000)})
	input.Insert("teaches", sqltypes.Row{sqltypes.NewInt(42), sqltypes.NewInt(101)})
	opts := DefaultOptions()
	opts.InputDB = input
	suite := generate(t, q, opts)
	// The original dataset should reuse familiar values.
	found := false
	for _, row := range suite.Original.Rows("instructor") {
		if row[1].Str() == "einstein" {
			found = true
		}
	}
	if !found {
		t.Errorf("input-db values not preferred:\n%s", suite.Original)
	}
}

func TestForceInputTuples(t *testing.T) {
	q := buildQuery(t, ddlNoFK, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	input := schema.NewDataset("input")
	input.Insert("instructor", sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("a"), sqltypes.NewString("CS"), sqltypes.NewInt(1)})
	input.Insert("instructor", sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewString("b"), sqltypes.NewString("CS"), sqltypes.NewInt(2)})
	input.Insert("teaches", sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(7)})
	input.Insert("teaches", sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewInt(8)})
	opts := DefaultOptions()
	opts.InputDB = input
	opts.ForceInputTuples = true
	suite := generate(t, q, opts)
	inputKeys := map[string]bool{}
	for _, tn := range input.TableNames() {
		for _, r := range input.Rows(tn) {
			inputKeys[tn+":"+r.Key()] = true
		}
	}
	// Original dataset tuples must all come from the input database.
	for _, tn := range suite.Original.TableNames() {
		for _, r := range suite.Original.Rows(tn) {
			if !inputKeys[tn+":"+r.Key()] {
				t.Errorf("tuple %s of %s not from input DB", r, tn)
			}
		}
	}
}

func TestGenerateStats(t *testing.T) {
	q := buildQuery(t, ddlFK, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	suite := generate(t, q, DefaultOptions())
	st := suite.Stats
	if st.SolverCalls == 0 || st.SatCount == 0 || st.SolveTime <= 0 || st.TotalTime < st.SolveTime {
		t.Errorf("stats = %+v", st)
	}
	if st.SatCount+st.UnsatCount != st.SolverCalls {
		t.Errorf("stats inconsistent: %+v", st)
	}
}

// The NP-hardness reduction of §IV-A: a containment instance encoded as
// a join/outer-join mutation-kill instance. Q2 ⊆ Q1 iff no dataset
// differentiates Q2 JOIN Q1 from Q2 LOJ Q1. Here Q2 = nums_b with y > 5
// and Q1 = nums_c with y > 5 joined on x: not contained, so a dataset
// must exist.
func TestContainmentReduction(t *testing.T) {
	q := buildQuery(t, ddlNoFK, "SELECT * FROM nums_b b, nums_c c WHERE b.x = c.x")
	suite := generate(t, q, DefaultOptions())
	ms, err := mutation.JoinTypeMutants(q, mutation.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	// Without constraints relating b and c, neither containment holds:
	// both outer-join mutants must be killed.
	if rep.KilledCount() != len(ms) {
		t.Errorf("killed %d of %d:\n%s", rep.KilledCount(), len(ms), rep)
	}
}
