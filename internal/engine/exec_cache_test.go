package engine

import (
	"maps"
	"reflect"
	"testing"

	"repro/internal/qtree"
	"repro/internal/refeval"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// Tests for the execution machinery: content unification (confluence
// sharing), the whole-result memo, Reset reuse checked against refeval,
// the counter folds, and the allocation guarantees of Result.Equal.

// matchedDS is a dataset on which every instructor row has a matching
// teaches row, so INNER JOIN and LEFT OUTER JOIN produce identical
// output.
func matchedDS() *schema.Dataset {
	ds := schema.NewDataset("all matched")
	ds.Insert("instructor", sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("alice"), sqltypes.NewString("CS"), sqltypes.NewInt(90000)})
	ds.Insert("instructor", sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewString("bob"), sqltypes.NewString("Bio"), sqltypes.NewInt(60000)})
	ds.Insert("teaches", ints(1, 10))
	ds.Insert("teaches", ints(2, 20))
	return ds
}

// lojMutant returns the query's plan with its only join node mutated to
// LEFT OUTER JOIN, sharing compile state the way mutation.Space does.
func lojMutant(t *testing.T, base *Plan) *Plan {
	t.Helper()
	mt := base.Tree.Clone()
	nodes := mt.Nodes(nil)
	if len(nodes) != 1 {
		t.Fatalf("want exactly one join node, got %d", len(nodes))
	}
	nodes[0].Type = sqlparser.LeftOuterJoin
	return base.WithTree(mt)
}

// TestCacheConfluenceResultMemo pins confluence sharing: a mutated node
// whose output is row-identical to the original's unifies to the same
// content id, so the whole-result memo serves the original's *Result to
// the mutant and Equal collapses to a pointer comparison.
func TestCacheConfluenceResultMemo(t *testing.T) {
	query := q(t, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	orig := NewPlan(query)
	loj := lojMutant(t, orig)

	sc := NewSharedCache()
	stats := &ExecStats{}
	ro := RunOptions{Cache: sc, Stats: stats}

	r1, err := orig.RunOpts(matchedDS(), ro)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := loj.RunOpts(matchedDS(), ro)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("confluent mutant must be served the memoized *Result (got distinct objects)")
	}
	if !r1.Equal(r2) {
		t.Errorf("results must be equal")
	}
	if c := stats.Counts(); c.ResultMemoHits == 0 {
		t.Errorf("ResultMemoHits = 0, want > 0")
	}
}

// TestCacheDivergentMutantNotMemoized is the negative side: on a
// dataset with an unmatched instructor the LOJ mutant's root content
// differs, so it must get its own Result and compare unequal.
func TestCacheDivergentMutantNotMemoized(t *testing.T) {
	query := q(t, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	orig := NewPlan(query)
	loj := lojMutant(t, orig)

	ds := matchedDS()
	ds.Insert("instructor", sqltypes.Row{sqltypes.NewInt(3), sqltypes.NewString("carol"), sqltypes.NewString("Math"), sqltypes.NewInt(70000)})

	sc := NewSharedCache()
	ro := RunOptions{Cache: sc}
	r1, err := orig.RunOpts(ds, ro)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := loj.RunOpts(ds, ro)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("divergent mutant must not share the original's Result")
	}
	if r1.Equal(r2) {
		t.Errorf("LOJ with an unmatched left row must differ from the inner join")
	}
	if len(r2.Rows) != len(r1.Rows)+1 {
		t.Errorf("LOJ rows = %d, want %d", len(r2.Rows), len(r1.Rows)+1)
	}
}

// resetReuseDatasets are two differently shaped datasets over every
// test relation. A has a non-teaching instructor and no NULL in r2.y;
// B has several non-teaching instructors sharing a department and a
// NULL in r2.y, which turns every NOT IN over r2.y Unknown.
func resetReuseDatasets() (a, b *schema.Dataset) {
	a = schema.NewDataset("A")
	a.Insert("instructor", sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("alice"), sqltypes.NewString("CS"), sqltypes.NewInt(90000)})
	a.Insert("instructor", sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewString("bob"), sqltypes.NewString("Bio"), sqltypes.NewInt(60000)})
	a.Insert("instructor", sqltypes.Row{sqltypes.NewInt(3), sqltypes.NewString("carol"), sqltypes.NewString("Math"), sqltypes.NewInt(70000)})
	a.Insert("teaches", ints(1, 10))
	a.Insert("teaches", ints(2, 20))
	a.Insert("course", sqltypes.Row{sqltypes.NewInt(10), sqltypes.NewString("db")})
	a.Insert("course", sqltypes.Row{sqltypes.NewInt(20), sqltypes.NewString("os")})
	a.Insert("r1", ints(1, 5))
	a.Insert("r1", ints(2, 6))
	a.Insert("r1", sqltypes.Row{sqltypes.NewInt(3), sqltypes.Null()})
	a.Insert("r2", ints(1, 5))
	a.Insert("r2", ints(2, 7))

	b = schema.NewDataset("B")
	b.Insert("instructor", sqltypes.Row{sqltypes.NewInt(9), sqltypes.NewString("zoe"), sqltypes.NewString("CS"), sqltypes.NewInt(80000)})
	b.Insert("instructor", sqltypes.Row{sqltypes.NewInt(10), sqltypes.NewString("yan"), sqltypes.NewString("CS"), sqltypes.NewInt(50000)})
	b.Insert("instructor", sqltypes.Row{sqltypes.NewInt(11), sqltypes.NewString("xi"), sqltypes.NewString("Bio"), sqltypes.Null()})
	b.Insert("instructor", sqltypes.Row{sqltypes.NewInt(12), sqltypes.NewString("wu"), sqltypes.NewString("CS"), sqltypes.NewInt(40000)})
	b.Insert("teaches", ints(9, 30))
	b.Insert("course", sqltypes.Row{sqltypes.NewInt(30), sqltypes.NewString("os")})
	b.Insert("course", sqltypes.Row{sqltypes.NewInt(40), sqltypes.Null()})
	b.Insert("r1", ints(1, 5))
	b.Insert("r1", ints(2, 6))
	b.Insert("r2", sqltypes.Row{sqltypes.NewInt(1), sqltypes.Null()})
	return a, b
}

// largeJoinDatasets are two differently shaped r1/r2 datasets for
// equi-joins past the single-pair fast path: more than 16 right rows,
// hundreds of row pairs, and NULL join keys on both sides.
func largeJoinDatasets() (a, b *schema.Dataset) {
	rows := func(ds *schema.Dataset, rel string, n, mod, nullEvery int64) {
		for x := int64(1); x <= n; x++ {
			y := sqltypes.NewInt(x % mod)
			if x%nullEvery == 0 {
				y = sqltypes.Null()
			}
			ds.Insert(rel, sqltypes.Row{sqltypes.NewInt(x), y})
		}
	}
	a = schema.NewDataset("large A")
	rows(a, "r1", 20, 4, 7)
	rows(a, "r2", 24, 3, 5)
	b = schema.NewDataset("large B")
	rows(b, "r1", 18, 5, 3)
	rows(b, "r2", 30, 2, 4)
	return a, b
}

// TestCacheResetReuse pins the Reset contract: one cache object reused
// across datasets (the kill-matrix evaluator's per-worker pattern)
// produces the same results as a fresh cache and as no cache, with no
// state bleeding between datasets (Reset hands out the same batch block
// slots again), and every result matches refeval's multiset. The plans
// are a join with a selection plus one per retained-subquery shape the
// finisher selects rows for: NOT IN against a NULL inner value,
// correlated NOT EXISTS, the IN connective mutant under GROUP BY +
// HAVING, and DISTINCT over a subquery filter; then equi-joins with a
// residual non-equi predicate over large inputs with NULL join keys,
// under every join type, plus one without the residual predicate.
func TestCacheResetReuse(t *testing.T) {
	grouped := NewPlan(q(t, `SELECT i.dept_name, COUNT(*) FROM instructor i, teaches t
		WHERE i.id = t.id AND t.course_id NOT IN (SELECT c.course_id FROM course c WHERE c.title = 'os')
		GROUP BY i.dept_name HAVING COUNT(*) > 0`))
	largeA, largeB := largeJoinDatasets()
	cases := []struct {
		name   string
		plan   *Plan
		nA, nB int             // result rows on datasets A and B
		dsA    *schema.Dataset // nil: resetReuseDatasets
		dsB    *schema.Dataset
	}{
		{"join", NewPlan(q(t, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 70000")), 1, 1, nil, nil},
		{"not-in-null", NewPlan(q(t, "SELECT a.x, a.y FROM r1 a WHERE a.y NOT IN (SELECT b.y FROM r2 b)")), 1, 0, nil, nil},
		{"correlated-not-exists", NewPlan(q(t, "SELECT i.name FROM instructor i WHERE NOT EXISTS (SELECT * FROM teaches t WHERE t.id = i.id)")), 1, 3, nil, nil},
		{"in-group-having", grouped.WithSubReplaced(0, grouped.Subs[0].WithKind(qtree.SubIn)), 1, 1, nil, nil},
		{"distinct", NewPlan(q(t, "SELECT DISTINCT i.dept_name FROM instructor i WHERE i.id NOT IN (SELECT t.id FROM teaches t)")), 1, 2, nil, nil},
		{"large-inner", NewPlan(q(t, "SELECT a.x, b.x FROM r1 a, r2 b WHERE a.y = b.y AND a.x < b.x")), 54, 42, largeA, largeB},
		{"large-left", NewPlan(q(t, "SELECT a.x, b.x FROM r1 a LEFT OUTER JOIN r2 b ON a.y = b.y AND a.x < b.x")), 60, 55, largeA, largeB},
		{"large-right", NewPlan(q(t, "SELECT a.x, b.x FROM r1 a RIGHT OUTER JOIN r2 b ON a.y = b.y AND a.x < b.x")), 61, 51, largeA, largeB},
		{"large-full", NewPlan(q(t, "SELECT a.x, b.x FROM r1 a FULL OUTER JOIN r2 b ON a.y = b.y AND a.x < b.x")), 67, 64, largeA, largeB},
		{"large-equi-only", NewPlan(q(t, "SELECT a.x, b.x FROM r1 a FULL OUTER JOIN r2 b ON a.y = b.y")), 104, 81, largeA, largeB},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.plan
			dsA, dsB := tc.dsA, tc.dsB
			if dsA == nil {
				dsA, dsB = resetReuseDatasets()
			}
			sc := NewSharedCache()
			for i, round := range []struct {
				ds *schema.Dataset
				n  int
			}{{dsA, tc.nA}, {dsB, tc.nB}, {dsA, tc.nA}} {
				sc.Reset()
				got, err := p.RunOpts(round.ds, RunOptions{Cache: sc})
				if err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
				fresh, err := p.RunOpts(round.ds, RunOptions{Cache: NewSharedCache()})
				if err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
				plain, err := p.Run(round.ds)
				if err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
				if !sameRows(got, fresh) || !sameRows(got, plain) {
					t.Errorf("round %d: reused cache, fresh cache and no cache disagree:\n%v\nvs\n%v\nvs\n%v", i, got, fresh, plain)
				}
				want, err := refeval.EvalPlan(p.Query, p.Tree, p.Preds, p.Subs, p.Aggs, p.Having, round.ds)
				if err != nil {
					t.Fatalf("round %d: refeval: %v", i, err)
				}
				if !maps.Equal(got.Multiset(), want.Multiset()) {
					t.Errorf("round %d: result differs from refeval:\n%v\nvs\n%v", i, got, want)
				}
				if len(got.Rows) != round.n {
					t.Errorf("round %d: %d rows, want %d:\n%v", i, len(got.Rows), round.n, got)
				}
			}
		})
	}
}

// sameRows reports whether two results hold identical rows in identical
// order.
func sameRows(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !a.Rows[i].Identical(b.Rows[i]) {
			return false
		}
	}
	return true
}

// TestExecCountsFold fills every ExecCounts field by reflection and
// requires ExecCounts.Add, and ExecStats.Add then Counts, to carry each
// one, so a counter missing from one of the hand-written folds fails
// here. ExecStats has no live counter for the deprecated
// InterpretedRuns and HashJoins, so its snapshot always reads zero
// there.
func TestExecCountsFold(t *testing.T) {
	var in ExecCounts
	v := reflect.ValueOf(&in).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("ExecCounts.%s is not an int64 counter", v.Type().Field(i).Name)
		}
		v.Field(i).SetInt(int64(i + 1))
	}
	var sum ExecCounts
	sum.Add(in)
	if sum != in {
		t.Errorf("ExecCounts.Add = %+v, want %+v", sum, in)
	}
	want := in
	want.InterpretedRuns = 0
	want.HashJoins = 0
	var s ExecStats
	s.Add(in)
	if got := s.Counts(); got != want {
		t.Errorf("ExecStats.Add then Counts = %+v, want %+v", got, want)
	}
}

// TestCachePrefixSharing pins prefix sharing across a mutant family:
// with a shared cache, plans differing in one node reuse the other
// subtrees, so the second run builds strictly fewer batches and records
// prefix-cache hits.
func TestCachePrefixSharing(t *testing.T) {
	query := q(t, "SELECT * FROM instructor i, teaches t, course c WHERE i.id = t.id AND t.course_id = c.course_id")
	orig := NewPlan(query)
	mt := orig.Tree.Clone()
	nodes := mt.Nodes(nil)
	nodes[0].Type = sqlparser.LeftOuterJoin
	mut := orig.WithTree(mt)

	sc := NewSharedCache()
	stats := &ExecStats{}
	ro := RunOptions{Cache: sc, Stats: stats}
	if _, err := orig.RunOpts(universityDS(), ro); err != nil {
		t.Fatal(err)
	}
	before := stats.Counts()
	if _, err := mut.RunOpts(universityDS(), ro); err != nil {
		t.Fatal(err)
	}
	after := stats.Counts()
	if hits := after.FamilyPrefixHits - before.FamilyPrefixHits; hits == 0 {
		t.Errorf("FamilyPrefixHits delta = 0, want > 0 (shared subtrees must be served from cache)")
	}
	builtFirst := before.CompiledBatches
	builtSecond := after.CompiledBatches - before.CompiledBatches
	if builtSecond >= builtFirst {
		t.Errorf("second family member built %d batches, want fewer than the first's %d", builtSecond, builtFirst)
	}
}

// TestEqualAllocFree locks the allocation behaviour of Result.Equal on
// the kill-matrix shape (small mutant result compared against the
// original's memoized multiset): after the first comparison memoizes
// the want side, further comparisons must not allocate.
func TestEqualAllocFree(t *testing.T) {
	query := q(t, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	plan := NewPlan(query)
	want, err := plan.Run(universityDS())
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Run(universityDS())
	if err != nil {
		t.Fatal(err)
	}
	if want == got {
		t.Fatal("distinct runs must produce distinct Result objects")
	}
	if !want.Equal(got) { // memoizes want's hashed multiset
		t.Fatal("identical runs must compare equal")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !want.Equal(got) {
			t.Fatal("comparison flipped")
		}
	})
	if allocs != 0 {
		t.Errorf("Result.Equal allocated %.1f objects per comparison, want 0", allocs)
	}
}

// TestIndexGrowResetWrap pins the cache's index: every key put is found
// with its last value across growth, a reset empties it without giving
// up its slots, a run no larger than the last does not grow it, and the
// generation stamp wrapping to zero clears the stale slots instead of
// reviving them.
func TestIndexGrowResetWrap(t *testing.T) {
	var ix index[nodeKey, int]
	fill := func(n int, base int) {
		for i := 0; i < n; i++ {
			ix.put(nodeKey{op: int32(i), l: int32(i % 7), r: -1}, base+i)
		}
	}
	check := func(n int, base int) {
		t.Helper()
		if ix.n != n {
			t.Fatalf("%d live entries, want %d", ix.n, n)
		}
		for i := 0; i < n; i++ {
			if v, ok := ix.get(nodeKey{op: int32(i), l: int32(i % 7), r: -1}); !ok || v != base+i {
				t.Fatalf("key %d: got %d, %v; want %d", i, v, ok, base+i)
			}
		}
		if _, ok := ix.get(nodeKey{op: int32(n), l: int32(n % 7), r: -1}); ok {
			t.Fatalf("key %d found, never put since the last reset", n)
		}
	}
	fill(3000, 0)
	fill(3000, 10) // overwrites
	check(3000, 10)
	slots := len(ix.slots)
	ix.reset()
	check(0, 0)
	fill(3000, 20)
	check(3000, 20)
	if len(ix.slots) != slots {
		t.Errorf("a run as large as the last grew the index from %d to %d slots", slots, len(ix.slots))
	}
	// Stamp the live slots with generation 1, long past, and move the
	// index to the last generation: the next reset wraps to 1 again.
	for i := range ix.slots {
		if ix.slots[i].gen == ix.gen {
			ix.slots[i].gen = 1
		}
	}
	ix.gen = ^uint32(0)
	ix.reset()
	if ix.gen != 1 {
		t.Fatalf("generation %d after wrapping, want 1", ix.gen)
	}
	check(0, 0)
	fill(100, 30)
	check(100, 30)
}
