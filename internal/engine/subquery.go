package engine

import (
	"fmt"

	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/sqltypes"
)

// Retained-subquery evaluation. NOT IN / NOT EXISTS blocks (and their
// positive-connective mutants) are evaluated as nested loops over the
// block's relations, per outer row, with SQL three-valued semantics:
//
//   - EXISTS is two-valued: True iff some inner combination satisfies
//     every block conjunct (Unknown conjuncts keep the row out of the
//     block's result, so they cannot make EXISTS Unknown).
//   - IN folds OR over the block's result values: only combinations
//     whose conjuncts are all True contribute, and each contributes the
//     tristate of outer = inner (Unknown when either side is NULL). An
//     empty result folds to False.
//   - The NOT forms negate in three-valued logic, so x NOT IN (... NULL
//     ...) is Unknown, never True — the classic anti-join NULL trap.
//
// The outer WHERE keeps a row only when every connective is True.

// filterSubs selects the rows of root batch b for which every retained
// subquery evaluates to True, as a selection batch over b in b's row
// order (b itself when no row is dropped). The selection is private to
// the run: it is never unified into a SharedCache, whose whole-result
// memo keys on the root batch and the subqueries (projSignature).
func (p *Plan) filterSubs(cp *compiledPlan, ds *schema.Dataset, b *batch) *batch {
	if len(p.Subs) == 0 || b.n == 0 {
		return b
	}
	idx := make([]int32, 0, b.n)
	for ri := 0; ri < b.n; ri++ {
		lookup := func(a qtree.AttrRef) sqltypes.Value {
			ci := cp.attrs.col(cp.root.off, a)
			if ci < 0 {
				panic(fmt.Sprintf("engine: attribute %s not in scope", a))
			}
			return b.value(ci, ri)
		}
		keep := true
		for _, s := range p.Subs {
			if evalSub(s, ds, lookup) != sqltypes.True {
				keep = false
				break
			}
		}
		if keep {
			idx = append(idx, int32(ri))
		}
	}
	if len(idx) == b.n {
		return b
	}
	return &batch{n: len(idx), kind: bFilter, src: b, idx: idx}
}

// evalSub evaluates one subquery connective for one outer row, given a
// lookup resolving outer attribute references.
func evalSub(s *qtree.SubQuery, ds *schema.Dataset, outer func(qtree.AttrRef) sqltypes.Value) sqltypes.Tristate {
	rows := make([][]sqltypes.Row, len(s.Occs))
	for i, o := range s.Occs {
		rows[i] = ds.Rows(o.Rel.Name)
	}
	cur := make([]sqltypes.Row, len(s.Occs))
	lookup := func(a qtree.AttrRef) sqltypes.Value {
		for i, o := range s.Occs {
			if o.Name == a.Occ {
				pos := o.Rel.AttrPos(a.Attr)
				if pos < 0 {
					panic(fmt.Sprintf("engine: attribute %s not in scope", a))
				}
				return cur[i][pos]
			}
		}
		return outer(a)
	}
	hasOuter := s.Kind.HasOuter()
	var outerVal sqltypes.Value
	if hasOuter {
		outerVal = s.Outer.Eval(outer)
	}
	acc := sqltypes.False
	var walk func(d int) bool // true = accumulator saturated at True
	walk = func(d int) bool {
		if d == len(s.Occs) {
			for _, pr := range s.Preds {
				if pr.Eval(lookup) != sqltypes.True {
					return false
				}
			}
			if !hasOuter {
				acc = sqltypes.True
				return true
			}
			acc = acc.Or(sqltypes.TriCompare(sqltypes.OpEQ, outerVal, lookup(s.Inner)))
			return acc == sqltypes.True
		}
		for _, r := range rows[d] {
			cur[d] = r
			if walk(d + 1) {
				return true
			}
		}
		return false
	}
	walk(0)
	if s.Kind.Negated() {
		return acc.Not()
	}
	return acc
}
