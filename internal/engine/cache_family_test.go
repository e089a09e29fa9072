package engine_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/randql"
	"repro/internal/schema"
	"repro/internal/university"
)

// compileFamily compiles plans as one family.
func compileFamily(t *testing.T, plans []*engine.Plan) []*engine.Plan {
	t.Helper()
	compiled, err := engine.CompilePlans(context.Background(), plans)
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

// runAll runs plans on ds through sc, in order.
func runAll(t *testing.T, plans []*engine.Plan, ds *schema.Dataset, sc *engine.SharedCache) []*engine.Result {
	t.Helper()
	out := make([]*engine.Result, len(plans))
	for i, p := range plans {
		r, err := p.RunOpts(ds, engine.RunOptions{Cache: sc})
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		out[i] = r
	}
	return out
}

// randomDataset draws a dataset for q from a fixed seed.
func randomDataset(t *testing.T, q *qtree.Query, seed int64) *schema.Dataset {
	t.Helper()
	ds, err := mutation.RandomDataset(q, rand.New(rand.NewSource(seed)), 4)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestFamilySizedSubtreeIndex pins the cache's subtree index to the
// family it runs: after the test process has compiled and evaluated 200
// unrelated randql query shapes, a fresh evaluation of a Table I family
// indexes exactly its own family's slots — as many as the family's
// distinct subtrees, and as many as the same family had before those
// shapes were compiled. A process-wide numbering would size the index
// by every shape the process has ever compiled.
func TestFamilySizedSubtreeIndex(t *testing.T) {
	q, plans := familyPlans(t, university.TableIQueries()[2].SQL)
	ds := randomDataset(t, q, 3)
	infos, errs := engine.CompileShared(plans)
	distinct := map[int32]bool{}
	for i, ci := range infos {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for _, n := range ci.Nodes {
			distinct[n.Slot] = true
		}
	}
	check := func(when string) {
		t.Helper()
		compiled := compileFamily(t, plans)
		sc := engine.NewSharedCacheSized(len(compiled))
		runAll(t, compiled, ds, sc)
		slots, err := engine.FamilySlots(compiled[0])
		if err != nil {
			t.Fatal(err)
		}
		if n := engine.SubIndexLen(sc); n != slots || slots != len(distinct) {
			t.Fatalf("%s: subtree index of %d entries for a family of %d slots, %d distinct subtrees",
				when, n, slots, len(distinct))
		}
	}
	check("before")

	shapes := 0
	for seed := int64(40001); shapes < 200; seed++ {
		c, err := randql.NewCase(seed, randql.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ms, err := mutation.Space(c.Query, mutation.DefaultOptions())
		if err != nil || len(ms) == 0 {
			continue
		}
		d, err := c.NextDataset()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mutation.Evaluate(c.Query, ms, []*schema.Dataset{d}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		shapes++
	}
	check("after 200 randql shapes")
}

// TestResetReusesBatchBlocks pins Reset's storage reuse: after one
// warm pass of a family over a dataset, Reset and a re-run over the same
// dataset carve no new batch block, index-slab chunk or value-slab
// chunk, and every plan's result is unchanged. (The number of batches a
// pass builds depends on the data, so the re-run uses the same
// dataset.) The families are Table I's Q3, whose joins carve index
// vectors and whose shared batches materialize, and a self-join with a
// selection, whose leaves also carve selection vectors.
func TestResetReusesBatchBlocks(t *testing.T) {
	for _, sql := range []string{
		university.TableIQueries()[2].SQL,
		`SELECT i1.name, i2.name FROM instructor i1, instructor i2, teaches t
			WHERE i1.dept_name = i2.dept_name AND i1.salary < i2.salary AND t.id = i2.id AND i1.salary > 100`,
	} {
		q, plans := familyPlans(t, sql)
		ds := randomDataset(t, q, 7)
		compiled := compileFamily(t, plans)
		sc := engine.NewSharedCacheSized(len(compiled))
		first := runAll(t, compiled, ds, sc)
		b0, i0, c0 := engine.CacheBlocks(sc)
		if b0 == 0 || i0 == 0 || c0 == 0 {
			t.Fatalf("%s: the warm pass carved %d batch blocks, %d index chunks, %d value chunks; want each > 0", sql, b0, i0, c0)
		}
		sc.Reset()
		second := runAll(t, compiled, ds, sc)
		if b1, i1, c1 := engine.CacheBlocks(sc); b1 != b0 || i1 != i0 || c1 != c0 {
			t.Errorf("%s: re-run after Reset grew the storage from %d, %d, %d to %d, %d, %d (batch blocks, index chunks, value chunks)",
				sql, b0, i0, c0, b1, i1, c1)
		}
		for i := range first {
			if !first[i].Equal(second[i]) {
				t.Fatalf("%s: plan %d: result changed after Reset:\n%v\nvs\n%v", sql, i, first[i], second[i])
			}
		}
	}
}
