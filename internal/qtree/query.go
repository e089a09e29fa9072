package qtree

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// Occurrence is one use of a base relation in the FROM clause. Repeated
// relations get distinct names (their alias, or a generated one), as the
// paper requires for constraint generation over per-occurrence tuple
// arrays.
type Occurrence struct {
	Name string // distinct name used in AttrRefs
	Rel  *schema.Relation
	ID   int // position in Query.Occs
}

// String renders "rel AS name" when renamed.
func (o *Occurrence) String() string {
	if o.Name != o.Rel.Name {
		return o.Rel.Name + " AS " + o.Name
	}
	return o.Rel.Name
}

// Node is a join-tree node: either a leaf occurrence or a join of two
// subtrees. Join conditions are not stored on nodes; they are derived at
// execution/generation time from the query's equivalence classes and
// predicates, applied at the earliest node where both sides contribute
// (paper §II: "join predicates are assumed to be applied at the earliest
// possible point in the tree").
//
// A tree is immutable once built: trees share subtrees (the enumerated
// join orders share theirs, and a join-type mutant copies only the path
// to its mutated node), so a caller that wants a changed tree copies the
// nodes it changes (Clone copies them all).
type Node struct {
	Occ     *Occurrence // non-nil for leaves
	Type    sqlparser.JoinType
	Natural bool
	Left    *Node
	Right   *Node
}

// IsLeaf reports whether the node is a relation occurrence.
func (n *Node) IsLeaf() bool { return n.Occ != nil }

// Leaves appends the occurrences under the node in left-to-right order.
func (n *Node) Leaves(dst []*Occurrence) []*Occurrence {
	if n.IsLeaf() {
		return append(dst, n.Occ)
	}
	return n.Right.Leaves(n.Left.Leaves(dst))
}

// OccSet returns the set of occurrence names under the node.
func (n *Node) OccSet() map[string]bool {
	out := make(map[string]bool)
	for _, o := range n.Leaves(nil) {
		out[o.Name] = true
	}
	return out
}

// Clone deep-copies the tree structure (occurrences are shared).
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	if n.IsLeaf() {
		return &Node{Occ: n.Occ}
	}
	return &Node{Type: n.Type, Natural: n.Natural, Left: n.Left.Clone(), Right: n.Right.Clone()}
}

// Nodes appends all internal (join) nodes in pre-order.
func (n *Node) Nodes(dst []*Node) []*Node {
	if n == nil || n.IsLeaf() {
		return dst
	}
	dst = append(dst, n)
	dst = n.Left.Nodes(dst)
	return n.Right.Nodes(dst)
}

// AllInner reports whether every join in the subtree is an inner join.
func (n *Node) AllInner() bool {
	if n == nil || n.IsLeaf() {
		return true
	}
	return n.Type == sqlparser.InnerJoin && n.Left.AllInner() && n.Right.AllInner()
}

// String renders the tree in compact algebra notation.
func (n *Node) String() string {
	return string(n.appendTo(make([]byte, 0, 64)))
}

// appendTo appends String's rendering of the subtree to b.
func (n *Node) appendTo(b []byte) []byte {
	if n.IsLeaf() {
		return append(b, n.Occ.Name...)
	}
	b = n.Left.appendTo(append(b, '('))
	b = append(append(append(b, ' '), n.Type.Symbol()...), ' ')
	return append(n.Right.appendTo(b), ')')
}

// AggCall is one aggregate in the select list.
type AggCall struct {
	Func     sqlparser.AggFunc
	Distinct bool
	Star     bool    // COUNT(*)
	Arg      AttrRef // valid unless Star
}

// String renders the call.
func (a AggCall) String() string {
	inner := "*"
	if !a.Star {
		inner = a.Arg.String()
	}
	if a.Distinct {
		inner = "DISTINCT " + inner
	}
	return fmt.Sprintf("%s(%s)", a.Func, inner)
}

// Mutate returns a copy with a different aggregate operator/distinctness.
func (a AggCall) Mutate(f sqlparser.AggFunc, distinct bool) AggCall {
	m := a
	m.Func = f
	m.Distinct = distinct
	return m
}

// HavingCond is one HAVING conjunct: an aggregate call compared with a
// constant, oriented so the call is on the left.
type HavingCond struct {
	Call AggCall
	Op   sqltypes.CmpOp
	Rhs  sqltypes.Value
}

// String renders the condition.
func (h HavingCond) String() string {
	return fmt.Sprintf("%s %s %s", h.Call, h.Op, h.Rhs.SQLLiteral())
}

// WithOp returns a copy with a different comparison operator (the
// HAVING-comparison mutation space).
func (h HavingCond) WithOp(op sqltypes.CmpOp) HavingCond {
	h.Op = op
	return h
}

// AggSpec is the top-level aggregation of the query: GROUP BY attributes
// plus one or more aggregate calls, optionally constrained by HAVING
// conjuncts over further aggregate calls.
type AggSpec struct {
	GroupBy []AttrRef
	Calls   []AggCall
	Having  []HavingCond
}

// SubKind is the connective attaching a retained WHERE subquery.
type SubKind uint8

// Subquery connectives. The positive forms normally decorrelate into
// joins (§V-H); they appear here only as mutation targets of a retained
// negative form.
const (
	SubIn SubKind = iota
	SubNotIn
	SubExists
	SubNotExists
)

// String renders the connective keyword.
func (k SubKind) String() string {
	switch k {
	case SubIn:
		return "IN"
	case SubNotIn:
		return "NOT IN"
	case SubExists:
		return "EXISTS"
	default:
		return "NOT EXISTS"
	}
}

// Negated reports whether the connective is an anti-join form.
func (k SubKind) Negated() bool { return k == SubNotIn || k == SubNotExists }

// HasOuter reports whether the connective compares an outer expression
// with the subquery's select column (the IN forms).
func (k SubKind) HasOuter() bool { return k == SubIn || k == SubNotIn }

// SubQuery is a WHERE subquery retained structurally rather than
// decorrelated: NOT IN and NOT EXISTS denote anti-joins that have no
// join rewrite in the supported class, so the block is kept and
// evaluated as a nested loop over its occurrences. Its occurrences live
// here (and in the query's name table for attribute typing), not in
// Query.Occs; its WHERE conjuncts — including correlated ones
// referencing outer occurrences — are plain predicate conjuncts, with
// no equivalence-class normalization inside the block.
type SubQuery struct {
	Kind  SubKind
	Outer *Scalar // outer comparison expression; nil for EXISTS forms
	Inner AttrRef // subquery select column; zero for EXISTS forms
	Occs  []*Occurrence
	Preds []*Pred
	// OuterRefs are the outer occurrence names referenced by Outer or by
	// correlated conjuncts, sorted.
	OuterRefs []string
}

// WithKind returns a shallow copy under a different connective (the
// subquery-connective mutation space). Flipping between IN and EXISTS
// forms keeps Outer/Inner in place; they are simply ignored by the
// EXISTS forms.
func (s *SubQuery) WithKind(k SubKind) *SubQuery {
	c := *s
	c.Kind = k
	return &c
}

// OccSet returns the subquery's occurrence names.
func (s *SubQuery) OccSet() map[string]bool {
	out := make(map[string]bool, len(s.Occs))
	for _, o := range s.Occs {
		out[o.Name] = true
	}
	return out
}

// String renders the subquery as a SQL fragment.
func (s *SubQuery) String() string {
	var sb strings.Builder
	if s.Kind.HasOuter() {
		sb.WriteString(s.Outer.String())
		sb.WriteByte(' ')
	}
	sb.WriteString(s.Kind.String())
	sb.WriteString(" (SELECT ")
	if s.Kind.HasOuter() {
		sb.WriteString(s.Inner.String())
	} else {
		sb.WriteByte('*')
	}
	sb.WriteString(" FROM ")
	for i, o := range s.Occs {
		if i > 0 {
			sb.WriteString(", ")
		}
		if o.Name != o.Rel.Name {
			sb.WriteString(schema.QuoteIdent(o.Rel.Name) + " AS " + schema.QuoteIdent(o.Name))
		} else {
			sb.WriteString(schema.QuoteIdent(o.Rel.Name))
		}
	}
	if len(s.Preds) > 0 {
		sb.WriteString(" WHERE ")
		for i, p := range s.Preds {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(p.String())
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// Projection is the query's select list in resolved form.
type Projection struct {
	Star  bool // SELECT * (all attributes of all occurrences, in order)
	Attrs []AttrRef
}

// Query is the normalized query.
type Query struct {
	Schema   *schema.Schema
	SQL      string // original text, for display
	Occs     []*Occurrence
	Classes  []*EquivClass
	Preds    []*Pred // all non-equi-join conjuncts (selections included)
	Root     *Node
	Subs     []*SubQuery // retained (non-decorrelated) WHERE subqueries
	Agg      *AggSpec    // nil when no aggregation
	Proj     Projection
	Distinct bool

	occByName map[string]*Occurrence
}

// Occ returns the named occurrence or nil.
func (q *Query) Occ(name string) *Occurrence { return q.occByName[strings.ToLower(name)] }

// AllInner reports whether every join in the query is an inner join, in
// which case all join orders are equivalent and the mutation space ranges
// over every cross-product-free tree.
func (q *Query) AllInner() bool { return q.Root == nil || q.Root.AllInner() }

// AttrType returns the declared kind of an attribute reference.
func (q *Query) AttrType(a AttrRef) sqltypes.Kind {
	o := q.Occ(a.Occ)
	if o == nil {
		return sqltypes.KindNull
	}
	at := o.Rel.Attr(a.Attr)
	if at == nil {
		return sqltypes.KindNull
	}
	return at.Type
}

// ClassOf returns the equivalence class containing the attribute, or nil.
func (q *Query) ClassOf(a AttrRef) *EquivClass {
	for _, ec := range q.Classes {
		if ec.Contains(a) {
			return ec
		}
	}
	return nil
}

// Selections returns the predicates touching at most one occurrence.
func (q *Query) Selections() []*Pred {
	var out []*Pred
	for _, p := range q.Preds {
		if p.IsSelection() {
			out = append(out, p)
		}
	}
	return out
}

// JoinPreds returns the non-equi-join predicates (those crossing
// occurrences; plain equi-joins live in Classes instead).
func (q *Query) JoinPreds() []*Pred {
	var out []*Pred
	for _, p := range q.Preds {
		if !p.IsSelection() {
			out = append(out, p)
		}
	}
	return out
}

// JoinGraphEdge reports whether the two occurrence sets are connected by
// a join condition: an equivalence class with members on both sides, or a
// cross-occurrence predicate whose occurrences are covered by the union
// and touch both sides. Used by the mutation package to enumerate
// cross-product-free join trees.
func (q *Query) JoinGraphEdge(left, right map[string]bool) bool {
	for _, ec := range q.Classes {
		if len(ec.MembersOf(left)) > 0 && len(ec.MembersOf(right)) > 0 {
			return true
		}
	}
	for _, p := range q.JoinPreds() {
		touchL, touchR, covered := false, false, true
		for _, occ := range p.Occs {
			switch {
			case left[occ]:
				touchL = true
			case right[occ]:
				touchR = true
			default:
				covered = false
			}
		}
		if covered && touchL && touchR {
			return true
		}
	}
	return false
}

// String summarizes the normalized query.
func (q *Query) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tree: %s\n", q.Root)
	for _, ec := range q.Classes {
		fmt.Fprintf(&sb, "class: %s\n", ec)
	}
	for _, p := range q.Preds {
		fmt.Fprintf(&sb, "pred: %s\n", p)
	}
	for _, s := range q.Subs {
		fmt.Fprintf(&sb, "sub: %s\n", s)
	}
	if q.Agg != nil {
		gb := make([]string, len(q.Agg.GroupBy))
		for i, g := range q.Agg.GroupBy {
			gb[i] = g.String()
		}
		calls := make([]string, len(q.Agg.Calls))
		for i, c := range q.Agg.Calls {
			calls[i] = c.String()
		}
		fmt.Fprintf(&sb, "agg: %s group by [%s]\n", strings.Join(calls, ", "), strings.Join(gb, ", "))
		for _, h := range q.Agg.Having {
			fmt.Fprintf(&sb, "having: %s\n", h)
		}
	}
	return sb.String()
}

// unionFind is a tiny disjoint-set over AttrRefs for class construction.
type unionFind struct {
	parent map[AttrRef]AttrRef
}

func newUnionFind() *unionFind { return &unionFind{parent: map[AttrRef]AttrRef{}} }

func (u *unionFind) find(a AttrRef) AttrRef {
	p, ok := u.parent[a]
	if !ok {
		u.parent[a] = a
		return a
	}
	if p == a {
		return a
	}
	r := u.find(p)
	u.parent[a] = r
	return r
}

func (u *unionFind) union(a, b AttrRef) { u.parent[u.find(a)] = u.find(b) }

func (u *unionFind) classes() []*EquivClass {
	groups := map[AttrRef][]AttrRef{}
	for a := range u.parent {
		r := u.find(a)
		groups[r] = append(groups[r], a)
	}
	var out []*EquivClass
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		sortAttrRefs(members)
		out = append(out, &EquivClass{Members: members})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Members[0].Less(out[j].Members[0]) })
	return out
}
