package engine

import (
	"testing"

	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// variants returns p's single-component variants, built as the mutation
// space builds mutants: every join node under every other join type,
// every comparison conjunct under every other operator, every aggregate
// call under COUNT, MIN, MAX and COUNT(DISTINCT), every retained
// subquery under every other connective, and every HAVING conjunct
// under every other operator.
func variants(p *Plan) []*Plan {
	var out []*Plan
	for ni := range p.Tree.Nodes(nil) {
		for _, jt := range sqlparser.AllJoinTypes {
			mt := p.Tree.Clone()
			n := mt.Nodes(nil)[ni]
			if n.Type != jt {
				n.Type = jt
				out = append(out, p.WithTree(mt))
			}
		}
	}
	for i, pr := range p.Preds {
		if pr.Like != nil {
			continue
		}
		for _, op := range sqltypes.AllCmpOps {
			if op != pr.Op {
				out = append(out, p.WithPredReplaced(i, pr.WithOp(op)))
			}
		}
	}
	for i, c := range p.Aggs {
		for _, f := range []sqlparser.AggFunc{sqlparser.AggCount, sqlparser.AggMin, sqlparser.AggMax} {
			if f != c.Func {
				out = append(out, p.WithAggReplaced(i, c.Mutate(f, false)))
			}
		}
		out = append(out, p.WithAggReplaced(i, c.Mutate(sqlparser.AggCount, true)))
	}
	for i, s := range p.Subs {
		for _, k := range []qtree.SubKind{qtree.SubIn, qtree.SubNotIn, qtree.SubExists, qtree.SubNotExists} {
			if k != s.Kind && (!k.HasOuter() || s.Outer != nil) {
				out = append(out, p.WithSubReplaced(i, s.WithKind(k)))
			}
		}
	}
	for i, h := range p.Having {
		for _, op := range sqltypes.AllCmpOps {
			if op != h.Op {
				out = append(out, p.WithHavingReplaced(i, h.WithOp(op)))
			}
		}
	}
	return out
}

// TestDiffersFromMatchesEqual pins the verdict path against the result
// path. For the query itself and every variant of each query shape —
// plain projections (simple, and coalescing under inner and outer
// natural joins; results of more than 16 rows included),
// DISTINCT, a retained subquery, GROUP BY with HAVING, and a constant
// false WHERE — on every test dataset, DiffersFrom must equal
// !want.Equal(result) without a cache, with a cache shared by the whole
// family as the kill-matrix evaluator shares it, and again when the
// whole-result memo answers; a verdict recorded against one want must
// not answer for another; and a family run through DiffersFrom must
// count exactly what the same family run through RunOpts counts.
func TestDiffersFromMatchesEqual(t *testing.T) {
	a, b := resetReuseDatasets()
	largeA, largeB := largeJoinDatasets()
	datasets := []*schema.Dataset{universityDS(), matchedDS(), a, b, largeA, largeB, constPredDataset()}
	for _, tc := range []struct {
		sql string
		// memo is false for the constant-false WHERE, whose empty root
		// batch has no content id to key the memo by.
		memo bool
	}{
		{"SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 70000", true},
		{"SELECT * FROM instructor NATURAL JOIN teaches", true},
		{"SELECT * FROM teaches NATURAL LEFT OUTER JOIN instructor", true},
		{"SELECT a.x, b.x FROM r1 a, r2 b WHERE a.y = b.y AND a.x < b.x", true},
		{"SELECT DISTINCT i.dept_name FROM instructor i, teaches t WHERE i.id = t.id", true},
		{"SELECT a.x, a.y FROM r1 a WHERE a.y NOT IN (SELECT b.y FROM r2 b)", true},
		{`SELECT i.dept_name, COUNT(t.course_id) FROM instructor i, teaches t WHERE i.id = t.id
			GROUP BY i.dept_name HAVING COUNT(t.course_id) > 0`, true},
		{"SELECT * FROM r1 RIGHT OUTER JOIN r2 ON r1.x = r2.x WHERE 1 = 2", false},
	} {
		sql := tc.sql
		orig := NewPlan(q(t, sql))
		// The first variant is the query itself, compiled apart: it must
		// never differ, however its rows are projected.
		vs := append([]*Plan{orig.WithTree(orig.Tree)}, variants(orig)...)
		for di, ds := range datasets {
			want, err := orig.Run(ds)
			if err != nil {
				t.Fatal(err)
			}
			exp := make([]bool, len(vs))
			for i, v := range vs {
				got, err := v.Run(ds)
				if err != nil {
					t.Fatal(err)
				}
				exp[i] = !want.Equal(got)
			}

			// Result path, then verdict path, each through one cache
			// shared by the family; the counters must agree.
			resStats, verStats := &ExecCounts{}, &ExecCounts{}
			resOpts := RunOptions{Cache: NewSharedCache(), Stats: resStats}
			verOpts := RunOptions{Cache: NewSharedCache(), Stats: verStats}
			if _, err := orig.RunOpts(ds, resOpts); err != nil {
				t.Fatal(err)
			}
			cached, err := orig.RunOpts(ds, verOpts)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vs {
				r, err := v.RunOpts(ds, resOpts)
				if err != nil {
					t.Fatal(err)
				}
				if got := !cached.Equal(r); got != exp[i] {
					t.Fatalf("%s dataset %d variant %d: RunOpts verdict %v, want %v", sql, di, i, got, exp[i])
				}
				for _, ro := range []RunOptions{{}, verOpts} {
					got, err := v.DiffersFrom(ds, cached, ro)
					if err != nil {
						t.Fatal(err)
					}
					if got != exp[i] {
						t.Fatalf("%s dataset %d variant %d (cache %v): DiffersFrom %v, want %v",
							sql, di, i, ro.Cache != nil, got, exp[i])
					}
				}
			}
			if rc, vc := *resStats, *verStats; rc != vc {
				t.Errorf("%s dataset %d: counters differ:\nRunOpts     %+v\nDiffersFrom %+v", sql, di, rc, vc)
			}
			// Every variant again: the memo answers now.
			memoStats := &ExecCounts{}
			for i, v := range vs {
				got, err := v.DiffersFrom(ds, cached, RunOptions{Cache: verOpts.Cache, Stats: memoStats})
				if err != nil {
					t.Fatal(err)
				}
				if got != exp[i] {
					t.Fatalf("%s dataset %d variant %d: memoized DiffersFrom %v, want %v", sql, di, i, got, exp[i])
				}
			}
			if hits := memoStats.ResultMemoHits; tc.memo && hits != int64(len(vs)) {
				t.Errorf("%s dataset %d: %d of %d repeated verdicts came from the memo", sql, di, hits, len(vs))
			}
			// Against another want, a recorded verdict must not answer.
			empty := &Result{}
			for i, v := range vs {
				r, err := v.Run(ds)
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := v.DiffersFrom(ds, empty, RunOptions{Cache: verOpts.Cache}); got != !empty.Equal(r) {
					t.Fatalf("%s dataset %d variant %d: verdict against an empty want %v, want %v", sql, di, i, got, !empty.Equal(r))
				}
			}
		}
	}
}
