// Package qtree performs semantic analysis of parsed queries and builds
// the normalized representation that the X-Data algorithms operate on
// (paper §IV-B and §V-B preprocessing):
//
//   - relation occurrences (repeated relations get distinct names),
//   - equivalence classes of attributes related by equi-join conjuncts
//     (so that A.x=B.x AND B.x=C.x and A.x=B.x AND A.x=C.x normalize to
//     the same representation, Example 4 / Fig. 2 of the paper),
//   - the remaining predicates (non-equi join conditions and selections),
//   - the join tree as written, with selections conceptually pushed to
//     the leaves and join predicates applied at the earliest node where
//     all their occurrences are available,
//   - the optional top-level aggregation.
package qtree

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqltypes"
)

// AttrRef names an attribute of a relation occurrence. Occ is the
// occurrence's distinct name, Attr the attribute name. AttrRef is
// comparable and used as a map key throughout.
type AttrRef struct {
	Occ  string
	Attr string
}

// String renders occ.attr.
// String renders the reference in SQL form, quoting either part if it
// would not lex back as a plain identifier. For ordinary (bare,
// non-keyword) names this is just occ.attr, so the rendering doubles as
// the canonical key used in diagnostics and signatures.
func (a AttrRef) String() string { return schema.QuoteIdent(a.Occ) + "." + schema.QuoteIdent(a.Attr) }

// Less orders AttrRefs lexicographically.
func (a AttrRef) Less(b AttrRef) bool {
	if a.Occ != b.Occ {
		return a.Occ < b.Occ
	}
	return a.Attr < b.Attr
}

// ScalarKind discriminates Scalar nodes.
type ScalarKind uint8

// Scalar node kinds.
const (
	SAttr ScalarKind = iota
	SConst
	SArith
)

// Scalar is a normalized scalar expression: an attribute reference, a
// constant, or a simple arithmetic combination (assumption A4).
type Scalar struct {
	Kind  ScalarKind
	Attr  AttrRef        // SAttr
	Const sqltypes.Value // SConst
	Op    byte           // SArith: one of + - * /
	L, R  *Scalar        // SArith
}

// NewAttr returns an attribute scalar.
func NewAttr(a AttrRef) *Scalar { return &Scalar{Kind: SAttr, Attr: a} }

// NewConst returns a constant scalar.
func NewConst(v sqltypes.Value) *Scalar { return &Scalar{Kind: SConst, Const: v} }

// NewArith returns an arithmetic scalar.
func NewArith(op byte, l, r *Scalar) *Scalar { return &Scalar{Kind: SArith, Op: op, L: l, R: r} }

// String renders the scalar.
func (s *Scalar) String() string {
	switch s.Kind {
	case SAttr:
		return s.Attr.String()
	case SConst:
		return s.Const.SQLLiteral()
	default:
		return fmt.Sprintf("(%s %c %s)", s.L, s.Op, s.R)
	}
}

// Attrs appends the attribute references occurring in the scalar.
func (s *Scalar) Attrs(dst []AttrRef) []AttrRef {
	switch s.Kind {
	case SAttr:
		return append(dst, s.Attr)
	case SArith:
		return s.R.Attrs(s.L.Attrs(dst))
	}
	return dst
}

// Eval evaluates the scalar under the given attribute binding. A nil
// binding result (NULL) propagates per SQL semantics.
func (s *Scalar) Eval(lookup func(AttrRef) sqltypes.Value) sqltypes.Value {
	switch s.Kind {
	case SAttr:
		return lookup(s.Attr)
	case SConst:
		return s.Const
	default:
		l, r := s.L.Eval(lookup), s.R.Eval(lookup)
		switch s.Op {
		case '+':
			return sqltypes.Add(l, r)
		case '-':
			return sqltypes.Sub(l, r)
		case '*':
			return sqltypes.Mul(l, r)
		case '/':
			return sqltypes.Div(l, r)
		}
		panic(fmt.Sprintf("qtree: bad arithmetic op %c", s.Op))
	}
}

// IsStringy reports whether the scalar is a bare string attribute or
// string constant (the only string forms assumption A4 admits).
func (s *Scalar) IsStringy(attrType func(AttrRef) sqltypes.Kind) bool {
	switch s.Kind {
	case SAttr:
		return attrType(s.Attr) == sqltypes.KindString
	case SConst:
		return s.Const.Kind() == sqltypes.KindString
	}
	return false
}

// LikeSpec marks a predicate as a SQL pattern match: L [NOT] LIKE
// Pattern. The pattern is also stored as the predicate's R constant so
// occurrence/attribute walks need no special case.
type LikeSpec struct {
	Not     bool
	Pattern string
}

// LikeVariant is one wildcard mutation of a pattern. Tag names it in
// mutant keys: "flip<j>" or "del<j>" for the wildcard at byte j.
type LikeVariant struct {
	Tag     string
	Pattern string
}

// WildcardVariants enumerates the pattern's wildcard mutations: each
// wildcard flipped between % and _, then deleted, in pattern order. The
// mutation space and the LIKE kill goals both draw on this one list, so
// the goals target exactly the mutants the space enumerates.
func (l *LikeSpec) WildcardVariants() []LikeVariant {
	pat := l.Pattern
	var out []LikeVariant
	for j := 0; j < len(pat); j++ {
		var flip string
		switch pat[j] {
		case '%':
			flip = "_"
		case '_':
			flip = "%"
		default:
			continue
		}
		out = append(out,
			LikeVariant{Tag: fmt.Sprintf("flip%d", j), Pattern: pat[:j] + flip + pat[j+1:]},
			LikeVariant{Tag: fmt.Sprintf("del%d", j), Pattern: pat[:j] + pat[j+1:]})
	}
	return out
}

// Pred is a normalized predicate conjunct: L op R, or a pattern match
// when Like is set. Occurrences involved are precomputed for
// classification (selection vs join predicate).
type Pred struct {
	Op   sqltypes.CmpOp
	L, R *Scalar
	// Like, when non-nil, makes the predicate "L [NOT] LIKE Pattern";
	// Op is unused and R holds the pattern constant.
	Like *LikeSpec
	// Occs are the distinct occurrence names referenced, sorted.
	Occs []string
}

// NewPred builds a predicate and computes its occurrence set.
func NewPred(op sqltypes.CmpOp, l, r *Scalar) *Pred {
	p := &Pred{Op: op, L: l, R: r}
	seen := map[string]bool{}
	for _, a := range append(l.Attrs(nil), r.Attrs(nil)...) {
		if !seen[a.Occ] {
			seen[a.Occ] = true
			p.Occs = append(p.Occs, a.Occ)
		}
	}
	sort.Strings(p.Occs)
	return p
}

// NewLikePred builds a pattern-match predicate over a string scalar.
func NewLikePred(l *Scalar, not bool, pattern string) *Pred {
	p := NewPred(sqltypes.OpEQ, l, NewConst(sqltypes.NewString(pattern)))
	p.Like = &LikeSpec{Not: not, Pattern: pattern}
	return p
}

// String renders the predicate.
func (p *Pred) String() string {
	if p.Like != nil {
		kw := "LIKE"
		if p.Like.Not {
			kw = "NOT LIKE"
		}
		return fmt.Sprintf("%s %s %s", p.L, kw, sqltypes.NewString(p.Like.Pattern).SQLLiteral())
	}
	return fmt.Sprintf("%s %s %s", p.L, p.Op, p.R)
}

// IsSelection reports whether the predicate touches at most one
// occurrence.
func (p *Pred) IsSelection() bool { return len(p.Occs) <= 1 }

// Attrs returns all attribute references in the predicate.
func (p *Pred) Attrs() []AttrRef { return p.R.Attrs(p.L.Attrs(nil)) }

// Eval evaluates the predicate in three-valued logic.
func (p *Pred) Eval(lookup func(AttrRef) sqltypes.Value) sqltypes.Tristate {
	if p.Like != nil {
		return sqltypes.TriLike(p.L.Eval(lookup), p.Like.Pattern, p.Like.Not)
	}
	return sqltypes.TriCompare(p.Op, p.L.Eval(lookup), p.R.Eval(lookup))
}

// ComparisonMutable reports whether the predicate has the shape the
// comparison-operator mutation space targets (§V-E): attr op constant.
// It returns the attribute and constant with the operator oriented so the
// attribute is on the left. Pattern-match predicates are not comparison
// mutable (they have their own mutation space).
func (p *Pred) ComparisonMutable() (AttrRef, sqltypes.CmpOp, sqltypes.Value, bool) {
	if p.Like != nil {
		return AttrRef{}, 0, sqltypes.Value{}, false
	}
	if p.L.Kind == SAttr && p.R.Kind == SConst {
		return p.L.Attr, p.Op, p.R.Const, true
	}
	if p.L.Kind == SConst && p.R.Kind == SAttr {
		return p.R.Attr, p.Op.Flip(), p.L.Const, true
	}
	return AttrRef{}, 0, sqltypes.Value{}, false
}

// WithOp returns a copy of the predicate with a different operator. It
// must not be applied to pattern-match predicates (use WithLike).
func (p *Pred) WithOp(op sqltypes.CmpOp) *Pred {
	return &Pred{Op: op, L: p.L, R: p.R, Occs: p.Occs}
}

// WithLike returns a copy of a pattern-match predicate with a different
// negation/pattern (the LIKE mutation space).
func (p *Pred) WithLike(not bool, pattern string) *Pred {
	np := NewLikePred(p.L, not, pattern)
	np.Occs = p.Occs
	return np
}

// EquivClass is an equivalence class of attributes connected by equi-join
// conjuncts. Members are kept sorted; the first member is the canonical
// representative.
type EquivClass struct {
	Members []AttrRef
}

// Contains reports membership.
func (ec *EquivClass) Contains(a AttrRef) bool {
	for _, m := range ec.Members {
		if m == a {
			return true
		}
	}
	return false
}

// OccNames returns the distinct occurrence names spanned by the class,
// sorted.
func (ec *EquivClass) OccNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range ec.Members {
		if !seen[m.Occ] {
			seen[m.Occ] = true
			out = append(out, m.Occ)
		}
	}
	sort.Strings(out)
	return out
}

// MembersOf returns the class members belonging to the given occurrence
// set.
func (ec *EquivClass) MembersOf(occs map[string]bool) []AttrRef {
	var out []AttrRef
	for _, m := range ec.Members {
		if occs[m.Occ] {
			out = append(out, m)
		}
	}
	return out
}

// String renders the class as {a.x, b.x, ...}.
func (ec *EquivClass) String() string {
	parts := make([]string, len(ec.Members))
	for i, m := range ec.Members {
		parts[i] = m.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func sortAttrRefs(as []AttrRef) {
	sort.Slice(as, func(i, j int) bool { return as[i].Less(as[j]) })
}
