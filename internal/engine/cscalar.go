package engine

import (
	"fmt"

	"repro/internal/qtree"
	"repro/internal/sqltypes"
)

// Compiled scalar expressions and predicates: qtree forms with every
// attribute reference resolved to a batch-layout index at compile time,
// so evaluation indexes straight into a batch (or a virtual pair of
// batches at a join) instead of looking attributes up by name.
// Resolution failures are lazy: a -1 index panics only when a row
// actually reaches the predicate.

// cscalar is a compiled qtree.Scalar.
type cscalar struct {
	kind  qtree.ScalarKind
	col   int            // SAttr: resolved layout index (-1 = not in scope)
	attr  qtree.AttrRef  // SAttr: original reference, for diagnostics
	konst sqltypes.Value // SConst
	op    byte           // SArith
	l, r  *cscalar       // SArith
}

// compileScalar resolves s against the layout off through the query's
// attribute table.
func compileScalar(s *qtree.Scalar, tab *attrTable, off []int32) *cscalar {
	switch s.Kind {
	case qtree.SAttr:
		return &cscalar{kind: qtree.SAttr, col: tab.col(off, s.Attr), attr: s.Attr}
	case qtree.SConst:
		return &cscalar{kind: qtree.SConst, konst: s.Const}
	default:
		return &cscalar{kind: qtree.SArith, op: s.Op,
			l: compileScalar(s.L, tab, off), r: compileScalar(s.R, tab, off)}
	}
}

func (s *cscalar) colOrPanic() int {
	if s.col < 0 {
		panic(fmt.Sprintf("engine: attribute %s not in scope", s.attr))
	}
	return s.col
}

// evalB evaluates against row i of a columnar batch.
func (s *cscalar) evalB(b *batch, i int) sqltypes.Value {
	switch s.kind {
	case qtree.SAttr:
		return b.value(s.colOrPanic(), i)
	case qtree.SConst:
		return s.konst
	default:
		return arithOp(s.op, s.l.evalB(b, i), s.r.evalB(b, i))
	}
}

// evalPair evaluates against the virtual concatenation of left row li
// and right row ri (columns [0,lw) come from lb, the rest from rb),
// without materializing the joined row.
func (s *cscalar) evalPair(lb, rb *batch, lw int, li, ri int32) sqltypes.Value {
	switch s.kind {
	case qtree.SAttr:
		c := s.colOrPanic()
		if c < lw {
			return lb.value(c, int(li))
		}
		return rb.value(c-lw, int(ri))
	case qtree.SConst:
		return s.konst
	default:
		return arithOp(s.op, s.l.evalPair(lb, rb, lw, li, ri), s.r.evalPair(lb, rb, lw, li, ri))
	}
}

func arithOp(op byte, l, r sqltypes.Value) sqltypes.Value {
	switch op {
	case '+':
		return sqltypes.Add(l, r)
	case '-':
		return sqltypes.Sub(l, r)
	case '*':
		return sqltypes.Mul(l, r)
	case '/':
		return sqltypes.Div(l, r)
	}
	panic(fmt.Sprintf("engine: bad arithmetic op %c", op))
}

// cpred is a compiled qtree.Pred. src is kept for node signatures and
// diagnostics.
type cpred struct {
	op   sqltypes.CmpOp
	l, r *cscalar
	like *qtree.LikeSpec // non-nil: pattern match, op/r unused
	src  *qtree.Pred
}

func compilePred(p *qtree.Pred, tab *attrTable, off []int32) cpred {
	return cpred{op: p.Op, l: compileScalar(p.L, tab, off), r: compileScalar(p.R, tab, off),
		like: p.Like, src: p}
}

func (p *cpred) evalB(b *batch, i int) sqltypes.Tristate {
	if p.like != nil {
		return sqltypes.TriLike(p.l.evalB(b, i), p.like.Pattern, p.like.Not)
	}
	return sqltypes.TriCompare(p.op, p.l.evalB(b, i), p.r.evalB(b, i))
}

func (p *cpred) evalPair(lb, rb *batch, lw int, li, ri int32) sqltypes.Tristate {
	if p.like != nil {
		return sqltypes.TriLike(p.l.evalPair(lb, rb, lw, li, ri), p.like.Pattern, p.like.Not)
	}
	return sqltypes.TriCompare(p.op, p.l.evalPair(lb, rb, lw, li, ri), p.r.evalPair(lb, rb, lw, li, ri))
}
