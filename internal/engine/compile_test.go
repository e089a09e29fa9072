package engine_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/university"
)

// familyQueries are the compile-equivalence inputs: the university
// Table I queries Q1–Q6 plus one query per shape the tree compiler
// treats specially — outer joins, a self-join with a non-equi join
// predicate, a natural join under SELECT *, aggregation with HAVING, a
// retained subquery beside a join, LIKE, and a constant conjunct.
func familyQueries() []struct{ name, sql string } {
	var out []struct{ name, sql string }
	for _, bq := range university.TableIQueries() {
		out = append(out, struct{ name, sql string }{bq.Name, bq.SQL})
	}
	return append(out, []struct{ name, sql string }{
		{"outer", `SELECT i.id, t.course_id, c.title
			FROM (instructor i LEFT OUTER JOIN teaches t ON i.id = t.id)
			RIGHT OUTER JOIN course c ON t.course_id = c.course_id`},
		{"self-join", `SELECT i1.name, i2.name FROM instructor i1, instructor i2, teaches t
			WHERE i1.dept_name = i2.dept_name AND i1.salary < i2.salary AND t.id = i2.id AND i1.salary > 100`},
		{"natural", `SELECT * FROM instructor NATURAL JOIN teaches`},
		{"having", `SELECT t.course_id, COUNT(*), MAX(i.salary) FROM instructor i, teaches t, course c
			WHERE i.id = t.id AND t.course_id = c.course_id GROUP BY t.course_id HAVING COUNT(*) > 1`},
		{"subquery", `SELECT i.name FROM instructor i, teaches t WHERE i.id = t.id
			AND i.id NOT IN (SELECT s.id FROM student s WHERE s.tot_cred > 10)`},
		{"like", `SELECT * FROM instructor i, teaches t, course c
			WHERE i.id = t.id AND t.course_id = c.course_id AND c.title LIKE 'db%' AND i.name NOT LIKE '_x'`},
		{"constant", `SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND 1 = 2`},
	}...)
}

// familyPlans returns the original plan followed by every plan of the
// query's mutant space (full outer joins included).
func familyPlans(t *testing.T, sql string) (*qtree.Query, []*engine.Plan) {
	t.Helper()
	q, err := qtree.BuildSQL(university.Schema(0), sql)
	if err != nil {
		t.Fatalf("BuildSQL(%q): %v", sql, err)
	}
	ms, err := mutation.Space(q, mutation.Options{IncludeFullOuter: true, AllJoinOrders: true})
	if err != nil {
		t.Fatalf("Space(%q): %v", sql, err)
	}
	plans := []*engine.Plan{engine.NewPlan(q)}
	for _, m := range ms {
		plans = append(plans, m.Plan)
	}
	return q, plans
}

// predsID identifies a plan's predicate slice, as the family compile
// does: plans sharing it share a memo.
func predsID(p *engine.Plan) **qtree.Pred {
	if len(p.Preds) == 0 {
		return nil
	}
	return &p.Preds[0]
}

// TestFamilyCompileMatchesPrivate pins the family compile against the
// lazy one. Every plan of every family, compiled through one shared
// memo set, must build the node a private compile builds — the same op
// id, column layout, equi-pairs, predicate sources and compiled column
// indices at every node, and the same projection id and output indices
// — so a memo hit can never change what a cell runs. Subtree slots are
// numbered per family, so they are not compared across the two
// compiles; instead, within the shared family two nodes must have equal
// slots exactly when they have equal (op, left slot, right slot), and
// the slots must be dense. The shared compile must also build each
// distinct node once: one leaf per (predicate slice, occurrence) and
// one join per (predicate slice, join type, left node, right node).
func TestFamilyCompileMatchesPrivate(t *testing.T) {
	type nodeKey struct {
		preds       **qtree.Pred
		occ         *qtree.Occurrence
		jt          sqlparser.JoinType
		left, right any
	}
	type subKey struct{ op, l, r int32 }
	for _, fq := range familyQueries() {
		t.Run(fq.name, func(t *testing.T) {
			_, plans := familyPlans(t, fq.sql)
			shared, errs := engine.CompileShared(plans)
			built := map[nodeKey]any{}
			slotOf := map[subKey]int32{}
			keyOf := map[int32]subKey{}
			total := 0
			for pi, p := range plans {
				if errs[pi] != nil {
					t.Fatalf("plan %d: shared compile: %v", pi, errs[pi])
				}
				private, err := engine.CompilePrivate(p)
				if err != nil {
					t.Fatalf("plan %d: private compile: %v", pi, err)
				}
				s := shared[pi]
				if s.ProjID != private.ProjID || !reflect.DeepEqual(s.Cols, private.Cols) {
					t.Fatalf("plan %d: projection id %d, output indices %v shared; %d, %v private",
						pi, s.ProjID, s.Cols, private.ProjID, private.Cols)
				}
				if len(s.Nodes) != len(private.Nodes) {
					t.Fatalf("plan %d: %d nodes shared, %d private", pi, len(s.Nodes), len(private.Nodes))
				}
				for ni, sn := range s.Nodes {
					pn := private.Nodes[ni]
					if sn.Op != pn.Op || sn.Type != pn.Type || sn.Occ != pn.Occ || !reflect.DeepEqual(sn.Off, pn.Off) ||
						!reflect.DeepEqual(sn.Pairs, pn.Pairs) || !reflect.DeepEqual(sn.Preds, pn.Preds) ||
						!reflect.DeepEqual(sn.PredCols, pn.PredCols) {
						t.Fatalf("plan %d node %d differs:\nshared  op=%d type=%v off=%v pairs=%v preds=%v cols=%v\nprivate op=%d type=%v off=%v pairs=%v preds=%v cols=%v",
							pi, ni, sn.Op, sn.Type, sn.Off, sn.Pairs, sn.Preds, sn.PredCols,
							pn.Op, pn.Type, pn.Off, pn.Pairs, pn.Preds, pn.PredCols)
					}
					sk := subKey{sn.Op, sn.LeftSlot, sn.RightSlot}
					if slot, ok := slotOf[sk]; ok && slot != sn.Slot {
						t.Fatalf("plan %d node %d: subtree (op %d, slots %d, %d) has slots %d and %d",
							pi, ni, sk.op, sk.l, sk.r, slot, sn.Slot)
					}
					if k, ok := keyOf[sn.Slot]; ok && k != sk {
						t.Fatalf("plan %d node %d: slot %d holds subtrees %+v and %+v", pi, ni, sn.Slot, k, sk)
					}
					slotOf[sk], keyOf[sn.Slot] = sn.Slot, sk
					k := nodeKey{preds: predsID(p), occ: sn.Occ, jt: sn.Type, left: sn.Left, right: sn.Right}
					if prev, ok := built[k]; ok && prev != sn.Node {
						t.Fatalf("plan %d node %d: the shared memo built (type %v, left, right) twice", pi, ni, sn.Type)
					}
					built[k] = sn.Node
					total++
				}
			}
			for slot := range keyOf {
				if slot < 0 || int(slot) >= len(keyOf) {
					t.Errorf("slot %d outside [0, %d): family slots must be dense", slot, len(keyOf))
				}
			}
			t.Logf("%d plans: %d tree nodes, %d built, %d slots", len(plans), total, len(built), len(keyOf))
			if len(plans) > 2 && len(built) >= total {
				t.Errorf("no node shared across %d plans (%d nodes)", len(plans), total)
			}
		})
	}
}

// TestCompileNeverAppliedError pins the compile error path: a plan whose
// tree omits an occurrence one of its predicates references must fail
// to compile — on the lazy path, the family path, and through the
// evaluator, which reports it as an *EvalError naming the mutant.
func TestCompileNeverAppliedError(t *testing.T) {
	q, err := qtree.BuildSQL(university.Schema(0),
		`SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND t.course_id > 5`)
	if err != nil {
		t.Fatal(err)
	}
	var iLeaf *qtree.Node
	for _, occ := range q.Occs {
		if occ.Name == "i" {
			iLeaf = &qtree.Node{Occ: occ}
		}
	}
	badPlan := func() *engine.Plan { return engine.NewPlan(q).WithTree(iLeaf) }
	const want = "predicate t.course_id > 5 was never applied"
	check := func(path string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error containing %q", path, err, want)
		}
	}

	_, err = engine.CompilePrivate(badPlan())
	check("private compile", err)
	_, errs := engine.CompileShared([]*engine.Plan{engine.NewPlan(q), badPlan()})
	if errs[0] != nil {
		t.Errorf("original plan: %v", errs[0])
	}
	check("shared compile", errs[1])

	ds := schema.NewDataset("one")
	ds.Insert("instructor", sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("a"), sqltypes.NewString("CS"), sqltypes.NewInt(10)})
	_, err = badPlan().Run(ds)
	check("lazy Run", err)
	compiled, err := engine.CompilePlans(context.Background(), []*engine.Plan{badPlan()})
	if err != nil {
		t.Fatalf("CompilePlans must keep a compile error on its plan, got %v", err)
	}
	_, err = compiled[0].Run(ds)
	check("Run after CompilePlans", err)

	m := &mutation.Mutant{Key: "drop-t", Kind: mutation.KindJoinType, Desc: "tree without t", Plan: badPlan()}
	_, err = mutation.EvaluateOpts(q, []*mutation.Mutant{m}, []*schema.Dataset{ds}, mutation.EvalOptions{Parallelism: 1})
	var ee *mutation.EvalError
	if !errors.As(err, &ee) || ee.Mutant != m.Desc {
		t.Fatalf("EvaluateOpts: got %v, want an *EvalError naming mutant %q", err, m.Desc)
	}
	check("EvaluateOpts", ee.Err)
}

// TestCompilePlansCanceled pins cancellation of the family compile: a
// done context stops CompilePlans before it compiles anything, and a
// live one returns a compiled copy of every plan, in order, leaving the
// plans it was given uncompiled.
func TestCompilePlansCanceled(t *testing.T) {
	_, plans := familyPlans(t, university.TableIQueries()[2].SQL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := engine.CompilePlans(ctx, plans); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("canceled CompilePlans: got %d plans, %v; want none, context.Canceled", len(out), err)
	}
	compiled, err := engine.CompilePlans(context.Background(), plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(compiled) != len(plans) {
		t.Fatalf("%d compiled plans for %d inputs", len(compiled), len(plans))
	}
	for i, p := range plans {
		c := compiled[i]
		if c == p || !engine.Compiled(c) || engine.Compiled(p) {
			t.Fatalf("plan %d: copy %v, copy compiled %v, input compiled %v; want a compiled copy of an uncompiled input",
				i, c != p, engine.Compiled(c), engine.Compiled(p))
		}
		if c.Query != p.Query || c.Tree != p.Tree || !reflect.DeepEqual(c.Preds, p.Preds) || !reflect.DeepEqual(c.Aggs, p.Aggs) ||
			!reflect.DeepEqual(c.Subs, p.Subs) || !reflect.DeepEqual(c.Having, p.Having) {
			t.Fatalf("plan %d: the copy differs from its input", i)
		}
	}
}
