package fleet

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/qtree"
	"repro/internal/sqlparser"
)

const ringTestDDL = `
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
`

// testKey builds a synthetic Key from a string (unit tests don't need
// the full pipeline to exercise ring placement).
func testKey(s string) Key {
	return Key{sum: sha256.Sum256([]byte(s))}
}

// TestContentKeyCanonical: two spellings normalizing to the same query
// share a key; a different constant, schema, or option flips it.
func TestContentKeyCanonical(t *testing.T) {
	sch, err := sqlparser.ParseSchema(ringTestDDL)
	if err != nil {
		t.Fatal(err)
	}
	build := func(sql string) *qtree.Query {
		t.Helper()
		q, err := qtree.BuildSQL(sch, sql)
		if err != nil {
			t.Fatalf("build %q: %v", sql, err)
		}
		return q
	}
	opts := core.DefaultOptions()
	qa := build(`SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50`)
	// Same query, different whitespace/case spelling and reversed
	// predicate order: must normalize to the same canonical tree.
	qb := build("select * from instructor i, teaches t where i.salary > 50 and i.id = t.id")
	if ContentKey(sch, qa, opts) != ContentKey(sch, qb, opts) {
		t.Fatalf("equivalent spellings got different keys:\n%s\n%s", qa.SQLString(), qb.SQLString())
	}
	qc := build(`SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 51`)
	if ContentKey(sch, qa, opts) == ContentKey(sch, qc, opts) {
		t.Fatal("different constants must get different keys")
	}
	opts2 := opts
	opts2.Unfold = !opts.Unfold
	if ContentKey(sch, qa, opts) == ContentKey(sch, qa, opts2) {
		t.Fatal("different options must get different keys")
	}
	opts3 := opts
	opts3.GoalNodeLimit = 12345
	if ContentKey(sch, qa, opts) == ContentKey(sch, qa, opts3) {
		t.Fatal("different budgets must get different keys")
	}
}

// TestRingDeterministicAndBalanced: every member computes the same
// owner for every key, and the key space spreads over all nodes.
func TestRingDeterministicAndBalanced(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1"}
	r1, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	// A second ring built from a shuffled member list must agree on
	// every owner: that is what makes routing coherent fleet-wide.
	r2, err := NewRing([]string{"c:1", "a:1", "b:1"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		k := testKey(fmt.Sprintf("key-%d", i))
		o1, o2 := r1.Owner(k), r2.Owner(k)
		if o1 != o2 {
			t.Fatalf("rings disagree on key %d: %s vs %s", i, o1, o2)
		}
		counts[o1]++
	}
	for _, n := range nodes {
		got := counts[n]
		if got < keys/6 || got > keys/2+keys/10 {
			t.Fatalf("unbalanced ring: %v", counts)
		}
	}
}

// TestRingMinimalRemap: removing one node remaps only its own keys;
// every key owned by a surviving node keeps its owner.
func TestRingMinimalRemap(t *testing.T) {
	full, err := NewRing([]string{"a:1", "b:1", "c:1"})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"a:1", "b:1"})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	const keys = 2000
	for i := 0; i < keys; i++ {
		k := testKey(fmt.Sprintf("key-%d", i))
		before, after := full.Owner(k), reduced.Owner(k)
		if before != "c:1" && before != after {
			t.Fatalf("key %d owned by surviving %s moved to %s", i, before, after)
		}
		if before == "c:1" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by the removed node; test is vacuous")
	}
}

// TestRingRejectsEmpty: a memberless ring is a configuration error.
func TestRingRejectsEmpty(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty ring must be rejected")
	}
	if _, err := NewRing([]string{""}); err == nil {
		t.Fatal("empty node name must be rejected")
	}
}
