package mutation

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

const testDDL = `
CREATE TABLE instructor (
	id INT PRIMARY KEY,
	name VARCHAR(20) NOT NULL,
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
CREATE TABLE chain_a (x INT PRIMARY KEY);
CREATE TABLE chain_b (x INT PRIMARY KEY);
CREATE TABLE chain_c (x INT PRIMARY KEY);
CREATE TABLE chain_d (x INT PRIMARY KEY);
`

const fkDDL = `
CREATE TABLE instructor (
	id INT PRIMARY KEY,
	name VARCHAR(20) NOT NULL,
	salary INT NOT NULL
);
CREATE TABLE teaches (
	id INT NOT NULL,
	course_id INT NOT NULL,
	PRIMARY KEY (id, course_id),
	FOREIGN KEY (id) REFERENCES instructor(id)
);
`

func q(t *testing.T, ddl, sql string) *qtree.Query {
	t.Helper()
	sch, err := sqlparser.ParseSchema(ddl)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	query, err := qtree.BuildSQL(sch, sql)
	if err != nil {
		t.Fatalf("BuildSQL: %v", err)
	}
	return query
}

func TestEnumerateTreesChain(t *testing.T) {
	// Chain A-B, B-C: two unordered shapes ((A*B)*C) and (A*(B*C)).
	query := q(t, testDDL, `SELECT * FROM chain_a a, chain_b b, chain_c c
		WHERE a.x = b.x AND b.x = c.x`)
	// One equivalence class {a.x,b.x,c.x} makes ALL pairings joinable:
	// 3 unordered shapes.
	trees, err := EnumerateTrees(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 3 {
		t.Errorf("trees = %d, want 3 (single class: Example 4)", len(trees))
	}
	cnt, err := CountTrees(query)
	if err != nil || cnt != int64(len(trees)) {
		t.Errorf("CountTrees = %d (%v), want %d", cnt, err, len(trees))
	}
}

func TestEnumerateTreesTwoClasses(t *testing.T) {
	// i-t on id, t-c on course_id: {i,c} not directly joinable -> 2
	// shapes.
	query := q(t, testDDL, `SELECT * FROM instructor i, teaches t, course c
		WHERE i.id = t.id AND t.course_id = c.course_id`)
	trees, err := EnumerateTrees(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Errorf("trees = %d, want 2", len(trees))
	}
}

func TestEnumerateTreesChainFour(t *testing.T) {
	// Chain of 4 with distinct pairwise classes: shapes follow the
	// chain-query formula (ordered 40 / 2^3 = 5 unordered).
	query := q(t, testDDL, `SELECT * FROM chain_a a, chain_b b, chain_c c, chain_d d
		WHERE a.x = b.x AND b.x = c.x AND c.x = d.x`)
	// NOTE: all conjuncts are on attribute x, so they merge into ONE
	// class making every pairing joinable; count is the full unordered
	// tree count over 4 leaves: 4!*Catalan(3)/2^3 = 15.
	trees, err := EnumerateTrees(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 15 {
		t.Errorf("trees = %d, want 15", len(trees))
	}
}

func TestEnumerateDisconnected(t *testing.T) {
	query := q(t, testDDL, "SELECT * FROM chain_a a, chain_b b")
	if _, err := EnumerateTrees(query); err == nil {
		t.Error("cross product should be rejected")
	}
}

func TestCanonCommutativity(t *testing.T) {
	query := q(t, testDDL, "SELECT * FROM chain_a a, chain_b b WHERE a.x = b.x")
	ab := query.Root
	ba := &qtree.Node{Type: sqlparser.InnerJoin, Left: ab.Right, Right: ab.Left}
	if Canon(ab) != Canon(ba) {
		t.Error("inner join canon must be commutative")
	}
	loj := &qtree.Node{Type: sqlparser.LeftOuterJoin, Left: ab.Left, Right: ab.Right}
	rojSwapped := &qtree.Node{Type: sqlparser.RightOuterJoin, Left: ab.Right, Right: ab.Left}
	if Canon(loj) != Canon(rojSwapped) {
		t.Error("L LOJ R must canon-equal R ROJ L")
	}
	roj := &qtree.Node{Type: sqlparser.RightOuterJoin, Left: ab.Left, Right: ab.Right}
	if Canon(loj) == Canon(roj) {
		t.Error("LOJ and ROJ of same children must differ")
	}
	foj := &qtree.Node{Type: sqlparser.FullOuterJoin, Left: ab.Left, Right: ab.Right}
	fojSwapped := &qtree.Node{Type: sqlparser.FullOuterJoin, Left: ab.Right, Right: ab.Left}
	if Canon(foj) != Canon(fojSwapped) {
		t.Error("full outer join canon must be commutative")
	}
}

func TestJoinTypeMutantsSingleJoin(t *testing.T) {
	query := q(t, testDDL, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	ms, err := JoinTypeMutants(query, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// One join node, mutations to LOJ and ROJ (FOJ excluded): 2.
	if len(ms) != 2 {
		t.Errorf("mutants = %d, want 2: %v", len(ms), descs(ms))
	}
	opts := DefaultOptions()
	opts.IncludeFullOuter = true
	ms3, err := JoinTypeMutants(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms3) != 3 {
		t.Errorf("mutants with FOJ = %d, want 3", len(ms3))
	}
}

func TestJoinTypeMutantsDedup(t *testing.T) {
	// 3-relation single class: 3 shapes x 2 nodes x 2 types = 12 raw,
	// all distinct canonically.
	query := q(t, testDDL, `SELECT * FROM chain_a a, chain_b b, chain_c c
		WHERE a.x = b.x AND b.x = c.x`)
	ms, err := JoinTypeMutants(query, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 12 {
		t.Errorf("mutants = %d, want 12: %v", len(ms), descs(ms))
	}
	keys := map[string]bool{}
	for _, m := range ms {
		if keys[m.Key] {
			t.Errorf("duplicate mutant key %s", m.Key)
		}
		keys[m.Key] = true
	}
}

func TestJoinTypeMutantsFixedTreeForOuterQueries(t *testing.T) {
	query := q(t, testDDL, "SELECT * FROM instructor i LEFT OUTER JOIN teaches t ON i.id = t.id")
	ms, err := JoinTypeMutants(query, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// LOJ mutates to INNER and ROJ (FOJ excluded): 2.
	if len(ms) != 2 {
		t.Errorf("mutants = %d: %v", len(ms), descs(ms))
	}
}

// TestJoinTypeMutantsExactStrings pins the exact Key, Desc and tree
// rendering of every join-type mutant, in order, for an all-inner
// three-relation query (every join order enumerated) and an outer-join
// query (the written tree, full outer joins included). Keys feed
// de-duplication and reports, and Descs name mutants in every report,
// so their bytes must not drift.
func TestJoinTypeMutantsExactStrings(t *testing.T) {
	cases := []struct {
		sql  string
		opts Options
		want [][3]string // key, desc, tree
	}{
		{`SELECT * FROM instructor i, teaches t, course c WHERE i.id = t.id AND t.course_id = c.course_id`,
			DefaultOptions(), [][3]string{
				{"((i*t)=>c)", "LOJ at [i,t]|[c] in ((i JOIN t) LOJ c)", "((i JOIN t) LOJ c)"},
				{"(c=>(i*t))", "ROJ at [i,t]|[c] in ((i JOIN t) ROJ c)", "((i JOIN t) ROJ c)"},
				{"((i=>t)*c)", "LOJ at [i]|[t] in ((i LOJ t) JOIN c)", "((i LOJ t) JOIN c)"},
				{"((t=>i)*c)", "ROJ at [i]|[t] in ((i ROJ t) JOIN c)", "((i ROJ t) JOIN c)"},
				{"(i=>(c*t))", "LOJ at [i]|[c,t] in (i LOJ (t JOIN c))", "(i LOJ (t JOIN c))"},
				{"((c*t)=>i)", "ROJ at [i]|[c,t] in (i ROJ (t JOIN c))", "(i ROJ (t JOIN c))"},
				{"((t=>c)*i)", "LOJ at [t]|[c] in (i JOIN (t LOJ c))", "(i JOIN (t LOJ c))"},
				{"((c=>t)*i)", "ROJ at [t]|[c] in (i JOIN (t ROJ c))", "(i JOIN (t ROJ c))"},
			}},
		{`SELECT i.name, c.title FROM (instructor i LEFT OUTER JOIN teaches t ON i.id = t.id)
			FULL OUTER JOIN course c ON t.course_id = c.course_id`,
			Options{IncludeFullOuter: true, AllJoinOrders: true}, [][3]string{
				{"((i=>t)*c)", "JOIN at [i,t]|[c] in ((i LOJ t) JOIN c)", "((i LOJ t) JOIN c)"},
				{"((i=>t)=>c)", "LOJ at [i,t]|[c] in ((i LOJ t) LOJ c)", "((i LOJ t) LOJ c)"},
				{"(c=>(i=>t))", "ROJ at [i,t]|[c] in ((i LOJ t) ROJ c)", "((i LOJ t) ROJ c)"},
				{"((i*t)<=>c)", "JOIN at [i]|[t] in ((i JOIN t) FOJ c)", "((i JOIN t) FOJ c)"},
				{"((t=>i)<=>c)", "ROJ at [i]|[t] in ((i ROJ t) FOJ c)", "((i ROJ t) FOJ c)"},
				{"((i<=>t)<=>c)", "FOJ at [i]|[t] in ((i FOJ t) FOJ c)", "((i FOJ t) FOJ c)"},
			}},
	}
	for _, tc := range cases {
		ms, err := JoinTypeMutants(q(t, testDDL, tc.sql), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var got [][3]string
		for _, m := range ms {
			if m.Kind != KindJoinType {
				t.Errorf("mutant %q has kind %s", m.Key, m.Kind)
			}
			got = append(got, [3]string{m.Key, m.Desc, m.Plan.Tree.String()})
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s:\ngot  %q\nwant %q", tc.sql, got, tc.want)
		}
	}
}

func TestComparisonMutants(t *testing.T) {
	query := q(t, testDDL, "SELECT * FROM instructor WHERE salary > 70000")
	ms := ComparisonMutants(query)
	if len(ms) != 5 {
		t.Errorf("mutants = %d, want 5", len(ms))
	}
	// Two selections -> 10.
	query2 := q(t, testDDL, "SELECT * FROM instructor WHERE salary > 70000 AND name = 'x'")
	if got := len(ComparisonMutants(query2)); got != 10 {
		t.Errorf("mutants = %d, want 10", got)
	}
}

func TestAggregateMutants(t *testing.T) {
	query := q(t, testDDL, "SELECT name, SUM(salary) FROM instructor GROUP BY name")
	ms := AggregateMutants(query)
	if len(ms) != 7 {
		t.Errorf("mutants = %d, want 7: %v", len(ms), descs(ms))
	}
	// COUNT(*) is not mutated.
	query2 := q(t, testDDL, "SELECT name, COUNT(*) FROM instructor GROUP BY name")
	if got := len(AggregateMutants(query2)); got != 0 {
		t.Errorf("COUNT(*) mutants = %d, want 0", got)
	}
	// Non-numeric argument: SUM/AVG variants skipped (COUNT/COUNT-D/
	// MIN/MAX remain; original is COUNT so 3).
	query3 := q(t, testDDL, "SELECT COUNT(name) FROM instructor")
	if got := len(AggregateMutants(query3)); got != 3 {
		t.Errorf("non-numeric mutants = %d, want 3: %v", got, descs(AggregateMutants(query3)))
	}
}

func descs(ms []*Mutant) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Desc
	}
	return out
}

func TestEvaluateKillMatrix(t *testing.T) {
	query := q(t, testDDL, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	ms, err := Space(query, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Dataset with a non-teaching instructor kills LOJ; an orphan
	// teaches row kills ROJ.
	ds1 := schema.NewDataset("non-teaching instructor")
	ds1.Insert("instructor", sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("a"), sqltypes.NewInt(10)})
	ds1.Insert("teaches", sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(7)})
	ds1.Insert("instructor", sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewString("b"), sqltypes.NewInt(20)})
	ds2 := schema.NewDataset("orphan teaches")
	ds2.Insert("instructor", sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("a"), sqltypes.NewInt(10)})
	ds2.Insert("teaches", sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(7)})
	ds2.Insert("teaches", sqltypes.Row{sqltypes.NewInt(3), sqltypes.NewInt(8)})

	rep, err := Evaluate(query, ms, []*schema.Dataset{ds1, ds2})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.KilledCount(); got != 2 {
		t.Errorf("killed = %d, want 2\n%s", got, rep)
	}
	if len(rep.Survivors()) != 0 {
		t.Errorf("survivors = %v", rep.Survivors())
	}
	if !strings.Contains(rep.String(), "killed") {
		t.Errorf("report: %s", rep)
	}
}

func TestEquivalentMutantSurvives(t *testing.T) {
	// Example 2 of the paper: with FK teaches.id -> instructor.id and no
	// selection, instructor ROJ teaches is equivalent to the inner join:
	// no legal dataset can kill it.
	query := q(t, fkDDL, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	ms, err := JoinTypeMutants(query, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var roj *Mutant
	for _, m := range ms {
		if strings.Contains(m.Desc, "ROJ") {
			roj = m
		}
	}
	if roj == nil {
		t.Fatal("no ROJ mutant")
	}
	chk := NewEquivalenceChecker(1)
	equiv, witness, err := chk.Check(query, roj)
	if err != nil {
		t.Fatal(err)
	}
	if !equiv {
		t.Errorf("ROJ mutant should be equivalent under FK; witness:\n%s", witness)
	}
}

func TestNonEquivalentMutantDetected(t *testing.T) {
	// Without the FK, the ROJ mutant is NOT equivalent and randomized
	// testing must find a witness.
	query := q(t, testDDL, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	ms, _ := JoinTypeMutants(query, DefaultOptions())
	chk := NewEquivalenceChecker(1)
	for _, m := range ms {
		equiv, witness, err := chk.Check(query, m)
		if err != nil {
			t.Fatal(err)
		}
		if equiv {
			t.Errorf("mutant %s wrongly deemed equivalent", m.Desc)
		} else if witness == nil {
			t.Errorf("no witness for %s", m.Desc)
		}
	}
}

func TestRandomDatasetValidity(t *testing.T) {
	query := q(t, fkDDL, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		ds, err := RandomDataset(query, rng, 3)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if err := query.Schema.CheckDataset(ds); err != nil {
			t.Fatalf("trial %d: invalid dataset: %v", i, err)
		}
	}
}

func TestSpaceCombines(t *testing.T) {
	query := q(t, fkDDL, `SELECT i.name, SUM(i.salary) FROM instructor i, teaches t
		WHERE i.id = t.id AND i.salary > 100 GROUP BY i.name`)
	ms, err := Space(query, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[Kind]int{}
	for _, m := range ms {
		byKind[m.Kind]++
	}
	if byKind[KindJoinType] != 2 || byKind[KindComparison] != 5 || byKind[KindAggregate] != 7 {
		t.Errorf("space = %v", byKind)
	}
}

func TestEnumerationBound(t *testing.T) {
	sch, _ := sqlparser.ParseSchema(testDDL)
	// Build an 11-occurrence query programmatically.
	var parts []string
	var conds []string
	for i := 0; i < 11; i++ {
		parts = append(parts, fmt.Sprintf("chain_a a%d", i))
		if i > 0 {
			conds = append(conds, fmt.Sprintf("a%d.x = a%d.x", i-1, i))
		}
	}
	query, err := qtree.BuildSQL(sch, "SELECT * FROM "+strings.Join(parts, ", ")+" WHERE "+strings.Join(conds, " AND "))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EnumerateTrees(query); err == nil {
		t.Error("expected enumeration bound error")
	}
	if _, err := CountTrees(query); err == nil {
		t.Error("expected count bound error")
	}
}

// DoubleMutants: the paper considers single mutations only but notes
// that "queries with multiple mutations are likely, but not always
// guaranteed, to be killed" (§II). This test documents that behaviour:
// datasets generated for single mutants kill the vast majority of
// double comparison mutants too.
func TestDoubleMutantsMostlyKilled(t *testing.T) {
	query := q(t, testDDL, `SELECT * FROM instructor
		WHERE salary > 70000 AND name <> 'x'`)
	// Build the suite via the single-mutation datasets: boundary
	// datasets for both conjuncts.
	datasets := comparisonDatasets(t, query)

	// Double mutants: both predicates' operators mutated simultaneously.
	var killed, total int
	basePlan := singlePlan(query)
	orig := func(ds *schema.Dataset) string {
		res, err := basePlan.Run(ds)
		if err != nil {
			t.Fatal(err)
		}
		return resultKey(res)
	}
	for _, op1 := range sqltypes.AllCmpOps {
		if op1 == query.Preds[0].Op {
			continue
		}
		for _, op2 := range sqltypes.AllCmpOps {
			if op2 == query.Preds[1].Op {
				continue
			}
			total++
			plan := basePlan.
				WithPredReplaced(0, query.Preds[0].WithOp(op1)).
				WithPredReplaced(1, query.Preds[1].WithOp(op2))
			for _, ds := range datasets {
				res, err := plan.Run(ds)
				if err != nil {
					t.Fatal(err)
				}
				if resultKey(res) != orig(ds) {
					killed++
					break
				}
			}
		}
	}
	if total != 25 {
		t.Fatalf("double mutants = %d", total)
	}
	// "Likely but not guaranteed": expect a clear majority killed.
	if killed < total*3/4 {
		t.Errorf("only %d of %d double mutants killed", killed, total)
	}
	t.Logf("double mutants killed: %d/%d", killed, total)
}

// Join-order invariance: every enumerated tree of an all-inner query
// must produce the same result on any dataset (inner joins are
// associative/commutative, and condition placement derives from the
// equivalence classes). This cross-checks the engine's condition
// placement against the tree enumeration.
func TestJoinOrderInvarianceProperty(t *testing.T) {
	query := q(t, testDDL, `SELECT * FROM instructor i, teaches t, course c
		WHERE i.id = t.id AND t.course_id = c.course_id AND i.salary > 1`)
	trees, err := EnumerateTrees(query)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		ds, err := RandomDataset(query, rng, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.NewPlan(query).WithTree(trees[0]).Run(ds)
		if err != nil {
			t.Fatal(err)
		}
		for ti, tree := range trees[1:] {
			got, err := engine.NewPlan(query).WithTree(tree).Run(ds)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Equal(got) {
				t.Fatalf("trial %d: tree %d (%s) differs from tree 0 (%s) on:\n%s\n%s\nvs\n%s",
					trial, ti+1, tree, trees[0], ds, want, got)
			}
		}
	}
}
