package qtree

import (
	"strings"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

const testDDL = `
CREATE TABLE department (
	dept_name VARCHAR(20) PRIMARY KEY,
	budget INT
);
CREATE TABLE instructor (
	id INT PRIMARY KEY,
	name VARCHAR(20) NOT NULL,
	dept_name VARCHAR(20) NOT NULL,
	salary INT,
	FOREIGN KEY (dept_name) REFERENCES department(dept_name)
);
CREATE TABLE teaches (
	id INT NOT NULL,
	course_id INT NOT NULL,
	PRIMARY KEY (id, course_id),
	FOREIGN KEY (id) REFERENCES instructor(id)
);
CREATE TABLE course (
	course_id INT PRIMARY KEY,
	title VARCHAR(50),
	credits INT
);
CREATE TABLE abc_a (x INT PRIMARY KEY, y INT);
CREATE TABLE abc_b (x INT PRIMARY KEY, y INT);
CREATE TABLE abc_c (x INT PRIMARY KEY, y INT);
`

func buildQ(t *testing.T, sql string) *Query {
	t.Helper()
	sch, err := sqlparser.ParseSchema(testDDL)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	q, err := BuildSQL(sch, sql)
	if err != nil {
		t.Fatalf("BuildSQL(%q): %v", sql, err)
	}
	return q
}

func buildErr(t *testing.T, sql string) error {
	t.Helper()
	sch, err := sqlparser.ParseSchema(testDDL)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	_, err = BuildSQL(sch, sql)
	if err == nil {
		t.Fatalf("BuildSQL(%q): expected error", sql)
	}
	return err
}

func TestOccurrencesAndAliases(t *testing.T) {
	q := buildQ(t, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	if len(q.Occs) != 2 {
		t.Fatalf("occs = %d", len(q.Occs))
	}
	if q.Occ("i") == nil || q.Occ("t") == nil || q.Occ("I") == nil {
		t.Error("occurrence lookup failed")
	}
	if q.Occ("i").Rel.Name != "instructor" {
		t.Errorf("occ i rel = %s", q.Occ("i").Rel.Name)
	}
}

func TestRepeatedRelationNeedsAlias(t *testing.T) {
	err := buildErr(t, "SELECT * FROM instructor, instructor")
	if !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("error = %v", err)
	}
	// With aliases it works.
	q := buildQ(t, "SELECT * FROM instructor i1, instructor i2 WHERE i1.id = i2.id")
	if len(q.Occs) != 2 || q.Occs[0].Rel != q.Occs[1].Rel {
		t.Error("self-join occurrences wrong")
	}
}

// Example 4 of the paper: both conjunct forms must yield the same
// equivalence class {a.x, b.x, c.x}.
func TestEquivalenceClassNormalization(t *testing.T) {
	q1 := buildQ(t, "SELECT * FROM abc_a a, abc_b b, abc_c c WHERE a.x = b.x AND b.x = c.x")
	q2 := buildQ(t, "SELECT * FROM abc_a a, abc_b b, abc_c c WHERE a.x = b.x AND a.x = c.x")
	if len(q1.Classes) != 1 || len(q2.Classes) != 1 {
		t.Fatalf("classes = %d, %d", len(q1.Classes), len(q2.Classes))
	}
	if q1.Classes[0].String() != q2.Classes[0].String() {
		t.Errorf("class mismatch: %s vs %s", q1.Classes[0], q2.Classes[0])
	}
	if got := q1.Classes[0].String(); got != "{a.x, b.x, c.x}" {
		t.Errorf("class = %s", got)
	}
	// Equi-join conjuncts must be dropped from the predicate list
	// (preprocessing step 2).
	if len(q1.Preds) != 0 {
		t.Errorf("preds = %v, want none", q1.Preds)
	}
}

func TestMultipleClasses(t *testing.T) {
	q := buildQ(t, `SELECT * FROM instructor i, teaches t, course c
		WHERE i.id = t.id AND t.course_id = c.course_id`)
	if len(q.Classes) != 2 {
		t.Fatalf("classes = %v", q.Classes)
	}
}

func TestSelectionClassification(t *testing.T) {
	q := buildQ(t, `SELECT * FROM instructor i, teaches t
		WHERE i.id = t.id AND i.salary > 70000 AND i.dept_name = 'CS'`)
	sels := q.Selections()
	if len(sels) != 2 {
		t.Fatalf("selections = %v", sels)
	}
	if len(q.JoinPreds()) != 0 {
		t.Errorf("join preds = %v", q.JoinPreds())
	}
	// Both selections have the attr-op-const shape.
	for _, p := range sels {
		if _, _, _, ok := p.ComparisonMutable(); !ok {
			t.Errorf("%s should be comparison-mutable", p)
		}
	}
}

func TestNonEquiJoinPredicate(t *testing.T) {
	q := buildQ(t, "SELECT * FROM abc_b b, abc_c c WHERE b.x = c.x + 10")
	if len(q.Classes) != 0 {
		t.Errorf("classes = %v", q.Classes)
	}
	jps := q.JoinPreds()
	if len(jps) != 1 {
		t.Fatalf("join preds = %v", jps)
	}
	if jps[0].IsSelection() {
		t.Error("cross-occurrence predicate misclassified as selection")
	}
	if _, _, _, ok := jps[0].ComparisonMutable(); ok {
		t.Error("join predicate should not be comparison-mutable")
	}
}

func TestInequalityJoinStaysPredicate(t *testing.T) {
	// a.x < b.x crosses occurrences but is not an equi-join: it must stay
	// in Preds, not form a class.
	q := buildQ(t, "SELECT * FROM abc_a a, abc_b b WHERE a.x < b.x")
	if len(q.Classes) != 0 || len(q.JoinPreds()) != 1 {
		t.Errorf("classes=%v preds=%v", q.Classes, q.Preds)
	}
}

func TestSameOccurrenceEqualityIsSelection(t *testing.T) {
	q := buildQ(t, "SELECT * FROM abc_a a WHERE a.x = a.y")
	if len(q.Classes) != 0 || len(q.Selections()) != 1 {
		t.Errorf("classes=%v sels=%v", q.Classes, q.Selections())
	}
}

func TestTreeShapeCommaJoins(t *testing.T) {
	q := buildQ(t, `SELECT * FROM instructor i, teaches t, course c
		WHERE i.id = t.id AND t.course_id = c.course_id`)
	if got := q.Root.String(); got != "((i JOIN t) JOIN c)" {
		t.Errorf("tree = %s", got)
	}
	if !q.AllInner() {
		t.Error("AllInner should be true")
	}
	leaves := q.Root.Leaves(nil)
	if len(leaves) != 3 || leaves[0].Name != "i" || leaves[2].Name != "c" {
		t.Errorf("leaves = %v", leaves)
	}
}

func TestTreeShapeExplicitOuterJoin(t *testing.T) {
	q := buildQ(t, "SELECT * FROM instructor i LEFT OUTER JOIN teaches t ON i.id = t.id")
	if q.AllInner() {
		t.Error("AllInner should be false")
	}
	if got := q.Root.String(); got != "(i LOJ t)" {
		t.Errorf("tree = %s", got)
	}
	// The ON equi-join merges into the equivalence classes.
	if len(q.Classes) != 1 {
		t.Errorf("classes = %v", q.Classes)
	}
}

// TestTreeStringOuterJoins pins the algebra rendering of nested outer
// joins of every type: mutant descriptions embed it byte for byte.
func TestTreeStringOuterJoins(t *testing.T) {
	for _, tc := range []struct{ sql, want string }{
		{`SELECT * FROM (instructor i RIGHT OUTER JOIN teaches t ON i.id = t.id)
			FULL OUTER JOIN course c ON t.course_id = c.course_id`, "((i ROJ t) FOJ c)"},
		{`SELECT * FROM instructor i LEFT OUTER JOIN
			(teaches t JOIN course c ON t.course_id = c.course_id) ON i.id = t.id`, "(i LOJ (t JOIN c))"},
		{`SELECT * FROM (instructor i FULL OUTER JOIN teaches t ON i.id = t.id)
			LEFT OUTER JOIN course c ON t.course_id = c.course_id`, "((i FOJ t) LOJ c)"},
	} {
		if got := buildQ(t, tc.sql).Root.String(); got != tc.want {
			t.Errorf("tree = %s, want %s", got, tc.want)
		}
	}
}

func TestOuterJoinWithoutConditionRejected(t *testing.T) {
	// Parser requires ON for outer joins; an ON that doesn't link the
	// sides must be caught semantically.
	err := buildErr(t, "SELECT * FROM instructor i LEFT OUTER JOIN teaches t ON i.salary > 0")
	if !strings.Contains(err.Error(), "no join condition") {
		t.Errorf("error = %v", err)
	}
}

func TestNaturalJoinConditions(t *testing.T) {
	q := buildQ(t, "SELECT a.y, b.y FROM abc_a a NATURAL JOIN abc_b b")
	// Common columns x and y both join.
	if len(q.Classes) != 2 {
		t.Fatalf("classes = %v", q.Classes)
	}
}

func TestFullOuterJoinVisibility(t *testing.T) {
	// A7: both inputs must expose an attribute.
	q := buildQ(t, "SELECT i.name, t.course_id FROM instructor i FULL OUTER JOIN teaches t ON i.id = t.id")
	if q.Root.Type != sqlparser.FullOuterJoin {
		t.Fatalf("tree = %s", q.Root)
	}
	err := buildErr(t, "SELECT i.name FROM instructor i FULL OUTER JOIN teaches t ON i.id = t.id")
	if !strings.Contains(err.Error(), "A7") {
		t.Errorf("error = %v", err)
	}
	// A8: for natural full outer joins the common attribute doesn't count.
	err = buildErr(t, "SELECT a.x, b.x FROM abc_a a NATURAL FULL OUTER JOIN abc_b b")
	if !strings.Contains(err.Error(), "A7") {
		t.Errorf("error = %v", err)
	}
}

func TestAggregationSpec(t *testing.T) {
	q := buildQ(t, `SELECT i.dept_name, SUM(i.salary) FROM instructor i GROUP BY i.dept_name`)
	if q.Agg == nil {
		t.Fatal("no agg spec")
	}
	if len(q.Agg.GroupBy) != 1 || q.Agg.GroupBy[0] != (AttrRef{"i", "dept_name"}) {
		t.Errorf("group by = %v", q.Agg.GroupBy)
	}
	if len(q.Agg.Calls) != 1 || q.Agg.Calls[0].Func != sqlparser.AggSum || q.Agg.Calls[0].Distinct {
		t.Errorf("calls = %v", q.Agg.Calls)
	}
}

func TestCountStarSpec(t *testing.T) {
	q := buildQ(t, "SELECT COUNT(*) FROM instructor")
	if q.Agg == nil || !q.Agg.Calls[0].Star {
		t.Fatalf("agg = %+v", q.Agg)
	}
	if len(q.Agg.GroupBy) != 0 {
		t.Errorf("group by = %v", q.Agg.GroupBy)
	}
}

func TestAggregationErrors(t *testing.T) {
	buildErr(t, "SELECT name, SUM(salary) FROM instructor GROUP BY dept_name") // name not grouped
	buildErr(t, "SELECT dept_name FROM instructor GROUP BY dept_name")         // no aggregate
	buildErr(t, "SELECT SUM(name) FROM instructor")                            // non-numeric sum
	buildErr(t, "SELECT * FROM instructor GROUP BY dept_name")                 // * with group by
	buildErr(t, "SELECT SUM(salary) FROM instructor WHERE SUM(salary) > 5")    // agg in where
}

func TestNameResolutionErrors(t *testing.T) {
	buildErr(t, "SELECT * FROM nosuch")
	buildErr(t, "SELECT * FROM instructor WHERE ghost.id = 1")
	buildErr(t, "SELECT * FROM instructor WHERE nosuchcol = 1")
	// x is ambiguous between a and b.
	buildErr(t, "SELECT * FROM abc_a a, abc_b b WHERE x = 1")
	// Unqualified unique column resolves.
	q := buildQ(t, "SELECT * FROM instructor WHERE salary > 10")
	if q.Selections()[0].Attrs()[0] != (AttrRef{"instructor", "salary"}) {
		t.Errorf("resolved = %v", q.Selections()[0].Attrs())
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	buildErr(t, "SELECT * FROM instructor WHERE name = 5")
	buildErr(t, "SELECT * FROM instructor WHERE salary = 'abc'")
	buildErr(t, "SELECT * FROM instructor WHERE name + 1 = 2")
}

func TestDisjunctionRejected(t *testing.T) {
	err := buildErr(t, "SELECT * FROM instructor WHERE salary > 5 OR salary < 2")
	if !strings.Contains(err.Error(), "A5") {
		t.Errorf("error = %v", err)
	}
	buildErr(t, "SELECT * FROM instructor WHERE NOT salary > 5")
}

func TestJoinGraphEdge(t *testing.T) {
	q := buildQ(t, `SELECT * FROM instructor i, teaches t, course c
		WHERE i.id = t.id AND t.course_id = c.course_id`)
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	if !q.JoinGraphEdge(set("i"), set("t")) {
		t.Error("i-t edge missing")
	}
	if q.JoinGraphEdge(set("i"), set("c")) {
		t.Error("i-c should not be directly joinable")
	}
	if !q.JoinGraphEdge(set("i", "t"), set("c")) {
		t.Error("it-c edge missing")
	}
	// Non-equi predicates also create edges.
	q2 := buildQ(t, "SELECT * FROM abc_b b, abc_c c WHERE b.x = c.x + 10")
	if !q2.JoinGraphEdge(set("b"), set("c")) {
		t.Error("non-equi edge missing")
	}
}

func TestEquivClassEdgeViaTransitivity(t *testing.T) {
	// With one class {a.x,b.x,c.x}, a and c ARE directly joinable
	// (Fig. 2(c) of the paper).
	q := buildQ(t, "SELECT * FROM abc_a a, abc_b b, abc_c c WHERE a.x = b.x AND b.x = c.x")
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	if !q.JoinGraphEdge(set("a"), set("c")) {
		t.Error("class-induced a-c edge missing (Example 4)")
	}
}

func TestScalarEval(t *testing.T) {
	q := buildQ(t, "SELECT * FROM abc_b b, abc_c c WHERE b.x = 2 * c.x + 10")
	p := q.JoinPreds()[0]
	lookup := func(a AttrRef) sqltypes.Value {
		if a.Occ == "b" {
			return sqltypes.NewInt(30)
		}
		return sqltypes.NewInt(10)
	}
	if got := p.Eval(lookup); got != sqltypes.True {
		t.Errorf("eval = %v", got)
	}
}

func TestComparisonMutableOrientation(t *testing.T) {
	q := buildQ(t, "SELECT * FROM instructor WHERE 70000 < salary")
	a, op, v, ok := q.Selections()[0].ComparisonMutable()
	if !ok || op != sqltypes.OpGT || v.Int() != 70000 || a.Attr != "salary" {
		t.Errorf("oriented = %v %v %v %v", a, op, v, ok)
	}
}

func TestNodeCloneIndependence(t *testing.T) {
	q := buildQ(t, "SELECT * FROM instructor i LEFT OUTER JOIN teaches t ON i.id = t.id")
	c := q.Root.Clone()
	c.Type = sqlparser.InnerJoin
	if q.Root.Type != sqlparser.LeftOuterJoin {
		t.Error("Clone shares nodes")
	}
	if c.Left.Occ != q.Root.Left.Occ {
		t.Error("Clone should share occurrences")
	}
}

func TestQueryStringSummary(t *testing.T) {
	q := buildQ(t, `SELECT i.dept_name, COUNT(i.id) FROM instructor i, teaches t
		WHERE i.id = t.id AND i.salary > 0 GROUP BY i.dept_name`)
	s := q.String()
	for _, want := range []string{"class: {i.id, t.id}", "pred: i.salary > 0", "agg: COUNT(i.id)"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestAccessorHelpers(t *testing.T) {
	q := buildQ(t, `SELECT i.dept_name, SUM(i.salary) FROM instructor i, teaches t
		WHERE i.id = t.id AND i.salary > 0 GROUP BY i.dept_name`)
	ec := q.ClassOf(AttrRef{"i", "id"})
	if ec == nil || !ec.Contains(AttrRef{"t", "id"}) {
		t.Errorf("ClassOf = %v", ec)
	}
	if q.ClassOf(AttrRef{"i", "salary"}) != nil {
		t.Error("salary should not be in a class")
	}
	if got := ec.OccNames(); len(got) != 2 || got[0] != "i" || got[1] != "t" {
		t.Errorf("OccNames = %v", got)
	}
	if got := q.Occ("i").String(); got != "instructor AS i" {
		t.Errorf("occurrence String = %q", got)
	}
	call := q.Agg.Calls[0]
	m := call.Mutate(sqlparser.AggCount, true)
	if m.Func != sqlparser.AggCount || !m.Distinct || call.Func != sqlparser.AggSum {
		t.Errorf("Mutate = %v (original %v)", m, call)
	}
	p := q.Selections()[0]
	wp := p.WithOp(sqltypes.OpLE)
	if wp.Op != sqltypes.OpLE || p.Op != sqltypes.OpGT {
		t.Errorf("WithOp mutated the original: %v %v", wp, p)
	}
	attrType := func(a AttrRef) sqltypes.Kind { return q.AttrType(a) }
	if !NewAttr(AttrRef{"i", "dept_name"}).IsStringy(attrType) {
		t.Error("dept_name should be stringy")
	}
	if NewAttr(AttrRef{"i", "salary"}).IsStringy(attrType) {
		t.Error("salary should not be stringy")
	}
	if !NewConst(sqltypes.NewString("x")).IsStringy(attrType) {
		t.Error("string const should be stringy")
	}
}

func TestQualifiedStarProjection(t *testing.T) {
	q := buildQ(t, "SELECT i.*, t.course_id FROM instructor i, teaches t WHERE i.id = t.id")
	if len(q.Proj.Attrs) != q.Occ("i").Rel.Arity()+1 {
		t.Errorf("projection = %v", q.Proj.Attrs)
	}
	if q.Proj.Star {
		t.Error("qualified star should not set Star")
	}
	// Unknown qualifier in star.
	buildErr(t, "SELECT ghost.* FROM instructor i")
	// SELECT * plus another item.
	buildErr(t, "SELECT *, i.id FROM instructor i")
}
