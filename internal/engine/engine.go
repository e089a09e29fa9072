// Package engine is the in-memory relational executor used to decide
// which mutants a dataset kills. The paper ran original and mutant
// queries on a backing DBMS; this package is the from-scratch substitute.
//
// It executes join trees (qtree.Node) over datasets with bag semantics,
// SQL NULL handling (outer-join padding, three-valued predicate logic),
// grouping/aggregation, and multiset result comparison.
//
// Join and selection conditions are not stored on tree nodes; following
// the paper (§II), selections are applied at the leaves and every join
// predicate — including all equalities implied by an equivalence class —
// is applied at the earliest node where its occurrences are available.
// This makes condition placement deterministic for every join order the
// mutation space enumerates.
package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// Plan is an executable query variant: a join tree plus the predicate and
// aggregate lists to use. Mutants are expressed as Plans sharing the
// parent Query but overriding one component.
type Plan struct {
	Query  *qtree.Query
	Tree   *qtree.Node        // defaults to Query.Root
	Preds  []*qtree.Pred      // defaults to Query.Preds
	Subs   []*qtree.SubQuery  // defaults to Query.Subs
	Aggs   []qtree.AggCall    // defaults to Query.Agg.Calls (if aggregated)
	Having []qtree.HavingCond // defaults to Query.Agg.Having (if aggregated)

	// Compiled execution state, built once and reused across datasets:
	// column layouts, join-condition placement and projection targets do
	// not depend on the dataset. A plan compiles lazily on its first
	// Run; the kill-matrix evaluator instead runs the compiled copies
	// CompilePlans returns. sync.Once makes the lazy compile exactly-once
	// and safe for callers that run one plan from several goroutines.
	compileOnce sync.Once
	comp        *compiledPlan
	compErr     error
}

// NewPlan returns the plan for the original query.
func NewPlan(q *qtree.Query) *Plan {
	p := &Plan{Query: q, Tree: q.Root, Preds: q.Preds, Subs: q.Subs}
	if q.Agg != nil {
		p.Aggs = q.Agg.Calls
		p.Having = q.Agg.Having
	}
	return p
}

// WithTree returns a copy of the plan using a different join tree.
// (The With* constructors copy fields explicitly rather than the whole
// struct so the compiled-state cache — which holds a sync.Once — is
// never shared with or copied into a derived plan.)
func (p *Plan) WithTree(tree *qtree.Node) *Plan {
	return &Plan{Query: p.Query, Tree: tree, Preds: p.Preds, Subs: p.Subs, Aggs: p.Aggs, Having: p.Having}
}

// WithPredReplaced returns a copy of the plan with predicate at index i
// replaced.
func (p *Plan) WithPredReplaced(i int, np *qtree.Pred) *Plan {
	cp := &Plan{Query: p.Query, Tree: p.Tree, Subs: p.Subs, Aggs: p.Aggs, Having: p.Having}
	cp.Preds = make([]*qtree.Pred, len(p.Preds))
	copy(cp.Preds, p.Preds)
	cp.Preds[i] = np
	return cp
}

// WithAggReplaced returns a copy of the plan with aggregate call i
// replaced.
func (p *Plan) WithAggReplaced(i int, call qtree.AggCall) *Plan {
	cp := &Plan{Query: p.Query, Tree: p.Tree, Preds: p.Preds, Subs: p.Subs, Having: p.Having}
	cp.Aggs = make([]qtree.AggCall, len(p.Aggs))
	copy(cp.Aggs, p.Aggs)
	cp.Aggs[i] = call
	return cp
}

// WithSubReplaced returns a copy of the plan with retained subquery i
// replaced (the subquery-connective mutation space).
func (p *Plan) WithSubReplaced(i int, ns *qtree.SubQuery) *Plan {
	cp := &Plan{Query: p.Query, Tree: p.Tree, Preds: p.Preds, Aggs: p.Aggs, Having: p.Having}
	cp.Subs = make([]*qtree.SubQuery, len(p.Subs))
	copy(cp.Subs, p.Subs)
	cp.Subs[i] = ns
	return cp
}

// WithHavingReplaced returns a copy of the plan with HAVING conjunct i
// replaced (the HAVING-comparison mutation space).
func (p *Plan) WithHavingReplaced(i int, h qtree.HavingCond) *Plan {
	cp := &Plan{Query: p.Query, Tree: p.Tree, Preds: p.Preds, Subs: p.Subs, Aggs: p.Aggs}
	cp.Having = make([]qtree.HavingCond, len(p.Having))
	copy(cp.Having, p.Having)
	cp.Having[i] = h
	return cp
}

// Result is a bag of output rows.
type Result struct {
	Cols []string
	Rows []sqltypes.Row

	// Hashed row multiset, memoized on first comparison: a result is
	// compared against every mutant of the space, and rebuilding the
	// map (plus one Key() string per row) for both sides of every
	// comparison dominated the kill-matrix profile. sync.Once makes
	// the memoization safe under the parallel evaluator, where the
	// original query's result is shared across worker goroutines.
	hmOnce sync.Once
	hm     map[uint64]int
}

// Multiset returns the row-key multiset of the result. It is rebuilt on
// every call; it serves diagnostics and tests, while Equal uses the
// memoized hashed multiset internally.
func (r *Result) Multiset() map[string]int {
	m := make(map[string]int, len(r.Rows))
	for _, row := range r.Rows {
		m[row.Key()]++
	}
	return m
}

// hashedMultiset returns the memoized multiset of 64-bit row hashes.
func (r *Result) hashedMultiset() map[uint64]int {
	r.hmOnce.Do(func() {
		m := make(map[uint64]int, len(r.Rows))
		for _, row := range r.Rows {
			m[row.Hash()]++
		}
		r.hm = m
	})
	return r.hm
}

// Equal compares two results as multisets of rows (column names are
// ignored; arity and contents must match). Row contents are compared by
// 64-bit FNV-1a hashes of their canonical encoding (see
// sqltypes.Row.Hash); a false positive requires an FNV collision inside
// one result pair, with probability ~2^-64 per comparison. The
// receiver's hash multiset is memoized; o's row hashes are collected
// and sorted without building a second one (on the stack for up to 16
// rows, so such a comparison allocates nothing once r's multiset
// exists). o's memoized multiset, even if already built, is
// deliberately not consulted: reading it outside its sync.Once would
// race with a concurrent memoization.
func (r *Result) Equal(o *Result) bool {
	if r == o {
		// The whole-result memo serves one shared *Result for provably
		// identical executions.
		return true
	}
	if len(r.Rows) != len(o.Rows) {
		return false
	}
	if len(r.Rows) == 0 {
		return true
	}
	// Arity check before hashing: mutants that change the output width
	// are decided without hashing a single row.
	if len(r.Rows[0]) != len(o.Rows[0]) {
		return false
	}
	var buf [16]uint64
	hs := buf[:0]
	for _, row := range o.Rows {
		hs = append(hs, row.Hash())
	}
	return hashesMatch(hs, r.hashedMultiset())
}

// hashesMatch reports whether the row hashes hs, which it sorts in
// place, form exactly the multiset m, given that len(hs) equals m's
// total count. After sorting, equal hashes are adjacent, and each run's
// length must equal m's count for its hash; counts that match on hs's
// support already account for all of m's total, so m has no other key.
func hashesMatch(hs []uint64, m map[uint64]int) bool {
	slices.Sort(hs)
	for i := 0; i < len(hs); {
		j := i + 1
		for j < len(hs) && hs[j] == hs[i] {
			j++
		}
		if m[hs[i]] != j-i {
			return false
		}
		i = j
	}
	return true
}

// String renders the result as a small table.
func (r *Result) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Cols, " | "))
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		sb.WriteString(strings.Join(cells, " | "))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// compiledPlan is the dataset-independent execution state of a Plan:
// per-node column layouts, join conditions resolved to row indices, and
// projection / aggregation targets resolved against the root layout. It
// is immutable after compilation and therefore safe to share across
// concurrent Run calls on different datasets; its tree's nodes may be
// shared with other plans compiled through the same memo.
type compiledPlan struct {
	root *cnode
	// fam is the compile call the plan came from; its node slots index
	// a SharedCache's subtree index.
	fam *family
	// attrs resolves the query's attribute references against root's
	// layout (retained subqueries read outer attributes through it).
	attrs *attrTable

	// empty is set when a constant predicate (a WHERE conjunct referencing
	// no attribute, e.g. 1 = 2) evaluated to non-true: the conjunct fails
	// for every row, so the query result is empty regardless of the join
	// tree. Constant conjuncts used to empty the leftmost leaf instead,
	// which is wrong under RIGHT/FULL outer joins above that leaf: the
	// other side's rows survive as null-padded output even though the
	// WHERE clause rejects every row (found by the randql differential
	// oracle design review; see TestConstantFalseWhereUnderOuterJoin).
	empty bool

	// The output stage is shared by the plans of a memo that have the
	// same root layout and the same aggregate, subquery and HAVING
	// slices: it depends on nothing else.
	*output
}

// output is a plan's projection or aggregation, resolved against its
// root layout.
type output struct {
	// Non-aggregate projection: output columns plus, per column, the
	// root-layout indices of its coalesce attributes. An index of -1
	// (attribute missing from the root layout) only surfaces when a row
	// is actually projected.
	proj    []outputColumn
	projIdx [][]int

	// simpleProj is the common projection shape — every output column
	// is exactly one resolved root-layout index, no coalescing and no
	// unresolved attributes — flattened for projectB's fast path. nil
	// when any column needs the general loop.
	simpleProj []int

	// plain marks a projection with no aggregation, no DISTINCT and no
	// retained subquery: DiffersFrom decides it without building a
	// Result.
	plain bool

	// colNames is the output header, rendered once at compile time and
	// shared (read-only) by every Result the plan builds.
	colNames []string

	// projID is the interned id of the full projection/aggregation
	// signature (resolved indices, call shapes, header, DISTINCT). A
	// SharedCache keys whole results by (projID, root batch content
	// id): equal keys guarantee identical output, so a mutant whose
	// root batch unifies with the original's is decided without
	// projecting — or comparing — anything.
	projID int32

	// Aggregation: group-by and argument indices in the root layout
	// (-1 for COUNT(*) or unresolved arguments).
	groupIdx []int
	aggIdx   []int
	// havingIdx mirrors aggIdx for the HAVING conjuncts' calls.
	havingIdx []int
}

// cnode is one compiled node of the join tree. It is immutable once
// built: a family compile hands the same cnode to every plan whose tree
// contains the subtree.
type cnode struct {
	// off is the node's column layout, indexed by position in
	// Query.Occs: an occurrence in the subtree starts at column off[i]
	// (its attributes follow in relation order), and an occurrence
	// outside it has off[i] = -1. The query's attrTable turns an
	// attribute reference into (occurrence, attribute position), so a
	// reference's column is one table lookup plus an addition. Nodes of
	// one compile call with equal layouts share the slice.
	off   []int32
	width int

	// placed records which predicates of the plan's predicate slice this
	// subtree applies (selections at its leaves, join predicates at its
	// joins). It is derived from the children alone (see compileJoin), so
	// a memoized node is exactly the node a fresh compile would build.
	placed predSet

	// opID is the interned id of this node's local operation signature:
	// relation name plus selections for a leaf; join type, pair shape
	// and predicates for a join — the children deliberately excluded.
	// A SharedCache keys a node evaluation by (opID, child batch
	// content ids), so two nodes share a batch whenever they apply the
	// same operation to observably identical inputs, whether those
	// inputs come from identical subtrees (family prefix sharing) or
	// from mutated subtrees that happen to produce the same rows on
	// this dataset (confluence sharing).
	opID int32
	// slot numbers the whole subtree rooted here within its compile
	// family: two nodes of one family share a slot exactly when they
	// have equal op ids and their children share slots. It indexes the
	// SharedCache's subtree index, which short-circuits the cache walk:
	// a subtree the cache has already evaluated resolves in one array
	// load without recursing to its leaves. Only nodes on a mutant's
	// changed path miss and fall through to the (opID, children) level
	// keys.
	slot int32

	// Leaf fields.
	leaf    bool
	relName string
	sels    []cpred

	// Join fields.
	jt          sqlparser.JoinType
	left, right *cnode
	pairs       []pairIdx
	preds       []cpred
}

// pairIdx is a compiled equality condition: left-row index l must equal
// right-row index r (both child-local).
type pairIdx struct{ l, r int }

// Plan compilation. A kill matrix compiles the original query and every
// mutant of its space, and the mutants of one family differ in a single
// component: their join trees — every equivalent join order, each with
// every join-type mutation — overlap heavily. CompilePlans compiles a
// family through one memo set that hash-conses compiled nodes, so each
// distinct subtree is built once per evaluation; a lazy compile runs the
// same code through a memo set of its own.

// CompilePlans returns compiled copies of plans, in order, compiled as
// one family: through one memo per (query, predicate slice) that builds
// each distinct subtree once, with the family's distinct subtrees
// numbered densely so a SharedCache running them indexes evaluated
// subtrees by a slice of the family's size. The plans given are never
// compiled or modified; a copy shares their tree, predicate, subquery,
// aggregate and HAVING slices. A compile error stays on its copy and is
// returned by the copy's runs, as a lazy compile's would be.
// CompilePlans itself fails only when ctx is done, which it checks
// between plans.
func CompilePlans(ctx context.Context, plans []*Plan) ([]*Plan, error) {
	s := newMemoSet(len(plans))
	copies := make([]Plan, len(plans))
	out := make([]*Plan, len(plans))
	for i, p := range plans {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		c := &copies[i]
		c.Query, c.Tree, c.Preds, c.Subs, c.Aggs, c.Having = p.Query, p.Tree, p.Preds, p.Subs, p.Aggs, p.Having
		c.compileOnce.Do(func() { c.comp, c.compErr = s.compile(c) })
		out[i] = c
	}
	s.seal()
	return out, nil
}

// memoKey identifies the plans that can share compiled nodes. A node's
// compiled form depends on the query (occurrences, equivalence classes)
// and on the predicate slice (which conjuncts it places), never on the
// rest of the plan. Slices are compared by identity: the plans derived by
// WithTree, WithAggReplaced, WithSubReplaced and WithHavingReplaced share
// their parent's slice, while each WithPredReplaced plan gets a memo of
// its own.
type memoKey struct {
	q     *qtree.Query
	preds **qtree.Pred // first element; nil for an empty slice
	n     int
}

// family is the set of plans one memo set compiled. slots is the number
// of distinct subtrees among them, final once the compile call returns.
type family struct{ slots int }

// memoSet holds the memos of one compile call, one attribute table per
// query, and the family's subtree numbering.
type memoSet struct {
	memos map[memoKey]*compileMemo
	tabs  map[*qtree.Query]*attrTable
	// slots numbers distinct subtrees by (op id, left slot, right
	// slot); a leaf's children are -1. Op ids are process-wide, so equal
	// keys from different memos of the family mean the same subtree.
	slots map[subKey]int32
	fam   *family
	// layouts holds one copy of each distinct column layout, by its
	// bytes.
	layouts map[string][]int32
	// pairs carves every join node's class pairs from shared chunks;
	// pairBuf collects one node's pairs before they are carved.
	pairs   slab[pairIdx]
	pairBuf []pairIdx
	// nodes and plans carve the call's compiled nodes and plans from
	// shared backing arrays instead of allocating each one. plans holds
	// one entry per plan the call compiles; nodes is the chunk being
	// carved (see newNode).
	nodes []cnode
	plans []compiledPlan
}

type subKey struct{ op, l, r int32 }

// newMemoSet returns the memo set of a call compiling n plans.
func newMemoSet(n int) *memoSet {
	return &memoSet{
		memos:   map[memoKey]*compileMemo{},
		tabs:    map[*qtree.Query]*attrTable{},
		slots:   map[subKey]int32{},
		fam:     &family{},
		layouts: map[string][]int32{},
		plans:   make([]compiledPlan, 0, n),
	}
}

// maxNodeChunk caps the length of one node chunk.
const maxNodeChunk = 1024

// newNode returns a zeroed node carved from the call's node chunks. The
// first chunk holds the first plan's tree, which is the whole of a lazy
// compile; a family's mutants add their changed paths, and each later
// chunk is half again its predecessor, up to maxNodeChunk. Doubling
// chunks allocated more bytes on every TestEvaluateAllocs cell (Q4/fk0
// 0.481 MB per cold evaluation against 0.477 MB).
func (s *memoSet) newNode() *cnode {
	if len(s.nodes) == cap(s.nodes) {
		s.nodes = make([]cnode, 0, min(cap(s.nodes)+cap(s.nodes)/2+1, maxNodeChunk))
	}
	s.nodes = s.nodes[:len(s.nodes)+1]
	return &s.nodes[len(s.nodes)-1]
}

// treeNodes counts the nodes of a join tree.
func treeNodes(n *qtree.Node) int {
	if n.IsLeaf() {
		return 1
	}
	return 1 + treeNodes(n.Left) + treeNodes(n.Right)
}

// compile compiles p through the memo of its key, creating the memo on
// first use.
func (s *memoSet) compile(p *Plan) (*compiledPlan, error) {
	if s.nodes == nil {
		s.nodes = make([]cnode, 0, treeNodes(p.Tree))
	}
	k := memoKey{q: p.Query, n: len(p.Preds)}
	if len(p.Preds) > 0 {
		k.preds = &p.Preds[0]
	}
	m := s.memos[k]
	if m == nil {
		tab := s.tabs[p.Query]
		if tab == nil {
			tab = newAttrTable(p.Query)
			s.tabs[p.Query] = tab
		}
		m = newCompileMemo(p, s, tab)
		s.memos[k] = m
	}
	return p.doCompile(m)
}

// seal records the family's final slot count.
func (s *memoSet) seal() { s.fam.slots = len(s.slots) }

// layout returns the call's copy of the column layout off.
func (s *memoSet) layout(off []int32) []int32 {
	var buf [64]byte
	k := buf[:0]
	for _, o := range off {
		k = binary.LittleEndian.AppendUint32(k, uint32(o))
	}
	c, ok := s.layouts[string(k)]
	if !ok {
		c = slices.Clone(off)
		s.layouts[string(k)] = c
	}
	return c
}

// slot returns the family slot of the subtree (op, l, r).
func (s *memoSet) slot(op, l, r int32) int32 {
	k := subKey{op: op, l: l, r: r}
	v, ok := s.slots[k]
	if !ok {
		v = int32(len(s.slots))
		s.slots[k] = v
	}
	return v
}

// attrTable resolves a query's attribute references: each maps to its
// occurrence's position in Query.Occs and its position within the
// occurrence's relation. A node's column for the reference is the
// occurrence's offset in the node's layout plus the attribute position.
type attrTable struct {
	locs map[qtree.AttrRef]attrLoc
	// classes holds the locations of each equivalence class's members,
	// in member order.
	classes [][]attrLoc
}

// attrLoc locates an attribute; occ is -1 for a reference the query
// cannot resolve.
type attrLoc struct{ occ, pos int32 }

func newAttrTable(q *qtree.Query) *attrTable {
	n := 0
	for _, o := range q.Occs {
		n += len(o.Rel.Attrs)
	}
	t := &attrTable{locs: make(map[qtree.AttrRef]attrLoc, n), classes: make([][]attrLoc, len(q.Classes))}
	for oi, o := range q.Occs {
		for ai, a := range o.Rel.Attrs {
			t.locs[qtree.AttrRef{Occ: o.Name, Attr: a.Name}] = attrLoc{occ: int32(oi), pos: int32(ai)}
		}
	}
	for i, ec := range q.Classes {
		for _, a := range ec.Members {
			t.classes[i] = append(t.classes[i], t.loc(a))
		}
	}
	return t
}

func (t *attrTable) loc(a qtree.AttrRef) attrLoc {
	if l, ok := t.locs[a]; ok {
		return l
	}
	return attrLoc{occ: -1}
}

// col returns a's column in layout off, or -1 when a is not in scope.
func (t *attrTable) col(off []int32, a qtree.AttrRef) int { return t.loc(a).in(off) }

// in returns the location's column in layout off, or -1 when it is not
// in scope.
func (l attrLoc) in(off []int32) int {
	if l.occ >= 0 && off[l.occ] >= 0 {
		return int(off[l.occ] + l.pos)
	}
	return -1
}

// sides records in touch which of the layouts l and r hold the
// attributes of s, and reports whether every attribute is in one of
// them.
func (t *attrTable) sides(s *qtree.Scalar, l, r []int32, touch *[2]bool) bool {
	switch s.Kind {
	case qtree.SAttr:
		switch loc := t.loc(s.Attr); {
		case loc.in(l) >= 0:
			touch[0] = true
		case loc.in(r) >= 0:
			touch[1] = true
		default:
			return false
		}
		return true
	case qtree.SConst:
		return true
	default:
		return t.sides(s.L, l, r, touch) && t.sides(s.R, l, r, touch)
	}
}

// compileMemo hash-conses the compiled nodes of the plans sharing one
// memoKey: leaves are keyed by occurrence, joins by (join type, left
// node, right node). Children are memoized first, so node pointers are
// canonical and a join key identifies its whole subtree.
type compileMemo struct {
	q     *qtree.Query
	preds []*qtree.Pred
	set   *memoSet
	tab   *attrTable
	// constEmpty is set when a constant conjunct is not true (see
	// compiledPlan.empty).
	constEmpty bool
	leaves     map[*qtree.Occurrence]*cnode
	joins      map[joinKey]*cnode
	outs       map[outKey]*output
	// proj and projNames are the non-aggregate output columns and header.
	// They depend on the query alone; built on first use.
	proj      []outputColumn
	projNames []string
}

type joinKey struct {
	jt   sqlparser.JoinType
	l, r *cnode
}

// outKey identifies the plans of a memo that share an output stage: the
// root layout (the call's copy, by its first element) plus the
// aggregate, subquery and HAVING slices, compared by identity (first
// element and length) as memoKey compares predicate slices.
type outKey struct {
	layout                *int32
	aggs                  *qtree.AggCall
	subs                  **qtree.SubQuery
	having                *qtree.HavingCond
	naggs, nsubs, nhaving int
}

func newCompileMemo(p *Plan, s *memoSet, tab *attrTable) *compileMemo {
	m := &compileMemo{
		q:      p.Query,
		preds:  p.Preds,
		set:    s,
		tab:    tab,
		leaves: map[*qtree.Occurrence]*cnode{},
		joins:  map[joinKey]*cnode{},
		outs:   map[outKey]*output{},
	}
	// Constant predicates (no attribute references) are WHERE conjuncts
	// that hold for every row or for none; they are decided once, for
	// every plan of the memo, and never placed in the tree.
	for _, pr := range p.Preds {
		if len(pr.Occs) == 0 && pr.Eval(func(qtree.AttrRef) sqltypes.Value { return sqltypes.Null() }) != sqltypes.True {
			m.constEmpty = true
		}
	}
	return m
}

// compile returns the plan's compiled state, compiling it as a family
// of its own unless it already has been.
func (p *Plan) compile() (*compiledPlan, error) {
	p.compileOnce.Do(func() {
		s := newMemoSet(1)
		p.comp, p.compErr = s.compile(p)
		s.seal()
	})
	return p.comp, p.compErr
}

func (p *Plan) doCompile(m *compileMemo) (*compiledPlan, error) {
	root := m.node(p.Tree)
	// Any predicate not placed inside the tree (possible only if its
	// occurrences never co-occur, which build rejects) would be a bug.
	for i, pr := range p.Preds {
		if len(pr.Occs) > 0 && !root.placed.has(i) {
			return nil, fmt.Errorf("engine: predicate %s was never applied", pr)
		}
	}
	s := m.set
	s.plans = append(s.plans, compiledPlan{root: root, fam: s.fam, attrs: m.tab, empty: m.constEmpty, output: m.output(p, root)})
	return &s.plans[len(s.plans)-1], nil
}

// output returns p's output stage over root's layout, compiling it on
// its key's first use.
func (m *compileMemo) output(p *Plan, root *cnode) *output {
	k := outKey{layout: &root.off[0], naggs: len(p.Aggs), nsubs: len(p.Subs), nhaving: len(p.Having)}
	if len(p.Aggs) > 0 {
		k.aggs = &p.Aggs[0]
	}
	if len(p.Subs) > 0 {
		k.subs = &p.Subs[0]
	}
	if len(p.Having) > 0 {
		k.having = &p.Having[0]
	}
	if o := m.outs[k]; o != nil {
		return o
	}
	o := &output{}
	col := func(a qtree.AttrRef) int { return m.tab.col(root.off, a) }
	if p.Query.Agg != nil {
		spec := p.Query.Agg
		o.groupIdx = make([]int, len(spec.GroupBy))
		for i, g := range spec.GroupBy {
			o.groupIdx[i] = col(g)
		}
		o.aggIdx = make([]int, len(p.Aggs))
		for i, c := range p.Aggs {
			o.aggIdx[i] = -1
			if !c.Star {
				o.aggIdx[i] = col(c.Arg)
			}
		}
		o.havingIdx = make([]int, len(p.Having))
		for i, h := range p.Having {
			o.havingIdx[i] = -1
			if !h.Call.Star {
				o.havingIdx[i] = col(h.Call.Arg)
			}
		}
		for _, g := range spec.GroupBy {
			o.colNames = append(o.colNames, g.String())
		}
		for _, c := range p.Aggs {
			o.colNames = append(o.colNames, c.String())
		}
	} else {
		if m.proj == nil {
			m.proj = projColumns(m.q)
			m.projNames = make([]string, len(m.proj))
			for i, c := range m.proj {
				m.projNames[i] = c.name
			}
		}
		o.proj, o.colNames = m.proj, m.projNames
		o.projIdx = make([][]int, len(o.proj))
		simple := make([]int, len(o.proj))
		for i, c := range o.proj {
			idx := make([]int, len(c.attrs))
			for j, a := range c.attrs {
				idx[j] = col(a)
			}
			o.projIdx[i] = idx
			if simple != nil && len(idx) == 1 && idx[0] >= 0 {
				simple[i] = idx[0]
			} else {
				simple = nil
			}
		}
		o.simpleProj = simple
		o.plain = !p.Query.Distinct && len(p.Subs) == 0
	}
	var buf [256]byte
	o.projID = intern(p.appendSignature(buf[:0], o))
	m.outs[k] = o
	return o
}

// appendSignature appends everything that determines the output given
// a root batch. Aggregate calls render with function, argument and
// DISTINCT; resolved indices pin the root layout bindings; the header is
// included so memoized Results carry the right column names.
func (p *Plan) appendSignature(b []byte, o *output) []byte {
	if p.Query.Agg != nil {
		b = append(b, "A("...)
		b = appendInts(b, o.groupIdx)
		b = append(b, ';')
		b = appendInts(b, o.aggIdx)
	} else {
		b = append(b, "P("...)
		for _, idx := range o.projIdx {
			b = appendInts(b, idx)
		}
		b = append(b, ';')
		b = strconv.AppendBool(b, p.Query.Distinct)
	}
	for _, n := range o.colNames {
		b = append(b, '|')
		b = append(b, n...)
	}
	// Retained subqueries filter root rows before the finisher, and
	// HAVING filters groups after it: both change the output of an
	// otherwise identical root batch, so they are part of the result
	// signature (else a connective or HAVING mutant would alias the
	// original in the whole-result memo).
	for _, s := range p.Subs {
		b = append(b, '~')
		b = append(b, s.String()...)
	}
	for _, h := range p.Having {
		b = append(b, '~')
		b = append(b, h.String()...)
	}
	return append(b, ')')
}

// appendInts renders xs as a bracketed, space-separated list.
func appendInts(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// node returns the compiled node for a plan subtree, building it (and
// any missing descendants) on first sight.
func (m *compileMemo) node(n *qtree.Node) *cnode {
	if n.IsLeaf() {
		c := m.leaves[n.Occ]
		if c == nil {
			c = m.compileLeaf(n.Occ)
			m.leaves[n.Occ] = c
		}
		return c
	}
	k := joinKey{jt: n.Type, l: m.node(n.Left), r: m.node(n.Right)}
	c := m.joins[k]
	if c == nil {
		c = m.compileJoin(k)
		m.joins[k] = c
	}
	return c
}

// compileLeaf compiles one occurrence's scan and the selections on it.
func (m *compileMemo) compileLeaf(occ *qtree.Occurrence) *cnode {
	c := m.set.newNode()
	*c = cnode{
		leaf:    true,
		relName: occ.Rel.Name,
		width:   occ.Rel.Arity(),
		placed:  newPredSet(len(m.preds)),
	}
	var buf [16]int32
	off := buf[:0]
	for _, o := range m.q.Occs {
		if o.Name == occ.Name {
			off = append(off, 0)
		} else {
			off = append(off, -1)
		}
	}
	c.off = m.set.layout(off)
	// Selections on this occurrence are applied at the leaf (paper §II:
	// selections pushed to the lowest level).
	for i, pr := range m.preds {
		if len(pr.Occs) == 1 && pr.Occs[0] == occ.Name {
			c.sels = append(c.sels, compilePred(pr, m.tab, c.off))
			c.placed.add(i)
		}
	}
	b := append(make([]byte, 0, 64), "L("...)
	b = append(b, c.relName...)
	for i := range c.sels {
		b = append(b, ';')
		b = append(b, c.sels[i].src.String()...)
	}
	c.opID = intern(append(b, ')'))
	c.slot = m.set.slot(c.opID, -1, -1)
	return c
}

// The intern table maps operation and projection signatures to small
// process-wide ids assigned at compile time. Equal signatures from
// independently compiled plans — through different memos, in different
// calls — get equal ids, so a SharedCache level key is three ints and a
// lookup never touches the signature. The table's footprint is one
// entry per distinct operation or projection ever compiled.
var (
	internMu  sync.Mutex
	internIDs = map[string]int32{}
)

// intern returns the id of signature k, assigning the next one on first
// sight. A lookup does not allocate.
func intern(k []byte) int32 {
	internMu.Lock()
	defer internMu.Unlock()
	id, ok := internIDs[string(k)]
	if !ok {
		id = int32(len(internIDs) + 1)
		internIDs[string(k)] = id
	}
	return id
}

// compileJoin computes the join conditions applied at a node — for every
// equivalence class, all cross-side member pairs; plus every predicate
// neither child placed whose occurrence set this node is the first to
// span — and resolves them against the children's row layouts.
//
// Placement looks only at the subtree: occurrences are disjoint between
// sibling subtrees, so a predicate placed elsewhere in the tree is never
// in scope here, and the result is the node a whole-tree traversal
// would build.
func (m *compileMemo) compileJoin(k joinKey) *cnode {
	left, right := k.l, k.r
	c := m.set.newNode()
	*c = cnode{
		jt:     k.jt,
		left:   left,
		right:  right,
		width:  left.width + right.width,
		placed: newPredSet(len(m.preds)),
	}
	var buf [16]int32
	off := buf[:0]
	for i, lo := range left.off {
		switch ro := right.off[i]; {
		case lo >= 0:
			off = append(off, lo)
		case ro >= 0:
			off = append(off, int32(left.width)+ro)
		default:
			off = append(off, -1)
		}
	}
	c.off = m.set.layout(off)
	for w := range c.placed {
		c.placed[w] = left.placed[w] | right.placed[w]
	}
	pairs := m.set.pairBuf[:0]
	for _, members := range m.tab.classes {
		var lbuf, rbuf [8]int
		ls, rs := lbuf[:0], rbuf[:0]
		for _, loc := range members {
			if i := loc.in(left.off); i >= 0 {
				ls = append(ls, i)
			} else if i := loc.in(right.off); i >= 0 {
				rs = append(rs, i)
			}
		}
		// All cross pairs: every implied equality applied at the
		// earliest point.
		for _, l := range ls {
			for _, r := range rs {
				pairs = append(pairs, pairIdx{l, r})
			}
		}
	}
	if len(pairs) > 0 {
		c.pairs = m.set.pairs.alloc(len(pairs))
		copy(c.pairs, pairs)
	}
	m.set.pairBuf = pairs
	for i, pr := range m.preds {
		if len(pr.Occs) < 2 || c.placed.has(i) {
			continue
		}
		// Both sides touched: the first node spanning the predicate.
		// One side only: should have been applied deeper; placed
		// defensively (can happen only for predicates whose occurrences
		// all sit in one subtree but involve more than one occurrence
		// that first co-occurred here).
		var touch [2]bool
		if m.tab.sides(pr.L, left.off, right.off, &touch) && m.tab.sides(pr.R, left.off, right.off, &touch) &&
			(touch[0] || touch[1]) {
			c.preds = append(c.preds, compilePred(pr, m.tab, c.off))
			c.placed.add(i)
		}
	}
	b := append(make([]byte, 0, 64), 'J')
	b = strconv.AppendInt(b, int64(c.jt), 10)
	b = append(b, '(')
	for _, pr := range c.pairs {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(pr.l), 10)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(pr.r), 10)
	}
	for i := range c.preds {
		b = append(b, ';')
		b = append(b, c.preds[i].src.String()...)
	}
	c.opID = intern(append(b, ')'))
	c.slot = m.set.slot(c.opID, left.slot, right.slot)
	return c
}

// predSet is a bitset over the indices of a plan's predicate slice.
type predSet []uint64

func newPredSet(n int) predSet   { return make(predSet, (n+63)/64) }
func (s predSet) add(i int)      { s[i/64] |= 1 << (i % 64) }
func (s predSet) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// RunOptions configures one plan run.
type RunOptions struct {
	// Cache shares node batches, whole results and verdicts across
	// plans of one mutant family on one dataset. Nil disables sharing.
	// A cache must be confined to one goroutine at a time.
	Cache *SharedCache
	// Stats receives the run's execution counters, added once when the
	// run ends; nil counts nothing.
	Stats *ExecCounts
}

// Run executes the plan against a dataset without cross-plan sharing.
func (p *Plan) Run(ds *schema.Dataset) (*Result, error) {
	return p.RunOpts(ds, RunOptions{})
}

// RunOpts executes the plan against a dataset under explicit options.
// The options never change the Result: with or without a cache, row
// order, group order and padding order all match.
func (p *Plan) RunOpts(ds *schema.Dataset, opt RunOptions) (*Result, error) {
	cp, err := p.compile()
	if err != nil {
		return nil, err
	}
	env := &execEnv{ds: ds, cache: opt.Cache, stats: opt.Stats}
	defer env.flush()
	b := env.root(cp)
	// Whole-result memo: with a cache in place the root batch carries a
	// content id, and (projection, root content) determines the result
	// exactly — serve the previously projected Result, which also lets
	// the caller's equivalence check collapse to a pointer comparison.
	if sc := opt.Cache; sc != nil && b.id != 0 {
		k := resKey{proj: cp.projID, root: b.id}
		if e, _ := sc.results.get(k); e.res != nil {
			env.resultHits++
			return e.res, nil
		}
		r, err := p.finishB(cp, b, ds)
		if err == nil {
			sc.results.put(k, resEntry{res: r})
		}
		return r, err
	}
	return p.finishB(cp, b, ds)
}

// DiffersFrom reports whether the plan's result on ds differs from want
// as a multiset of rows: exactly !want.Equal(r) for the Result r that
// RunOpts would return, with the same counters. A plain projection (no
// aggregation, no DISTINCT, no retained subquery) never builds r: each
// output row is hashed straight from the root batch as Row.Hash would
// hash it, and the hashes are compared with want's memoized multiset.
// Other shapes build r and call Equal.
//
// With a cache, the whole-result memo records the verdict under
// (projection, root content), so a later plan with the same key against
// the same want is decided by one lookup; a Result that RunOpts
// memoized under the key decides it by Equal.
func (p *Plan) DiffersFrom(ds *schema.Dataset, want *Result, opt RunOptions) (bool, error) {
	cp, err := p.compile()
	if err != nil {
		return false, err
	}
	env := &execEnv{ds: ds, cache: opt.Cache, stats: opt.Stats}
	defer env.flush()
	b := env.root(cp)
	sc := opt.Cache
	memo := sc != nil && b.id != 0
	k := resKey{proj: cp.projID, root: b.id}
	if memo {
		if e, ok := sc.results.get(k); ok && (e.res != nil || e.want == want) {
			env.resultHits++
			if e.res != nil {
				return !want.Equal(e.res), nil
			}
			return e.differs, nil
		}
	}
	var differs bool
	if cp.plain {
		differs = cp.projectionDiffers(b, want, sc)
	} else {
		r, err := p.finishB(cp, b, ds)
		if err != nil {
			return false, err
		}
		differs = !want.Equal(r)
	}
	if memo {
		sc.results.put(k, resEntry{want: want, differs: differs})
	}
	return differs, nil
}

// root binds the cache to the plan's family and returns the plan's root
// batch.
func (env *execEnv) root(cp *compiledPlan) *batch {
	if env.cache != nil {
		env.cache.bind(cp.fam)
	}
	if cp.empty {
		return &emptyBatch
	}
	return cp.root.runB(env)
}

// emptyBatch is the root batch of a plan whose constant conjunct fails:
// no rows, and no content id, so it is never cached, materialized or
// written.
var emptyBatch = batch{kind: bLeaf}

// finishB turns the root batch into the plan's Result: retained
// subqueries select root rows, then projection or aggregation reads the
// surviving rows straight from the batch.
func (p *Plan) finishB(cp *compiledPlan, b *batch, ds *schema.Dataset) (*Result, error) {
	b = p.filterSubs(cp, ds, b)
	if p.Query.Agg != nil {
		return p.aggregateB(cp, b)
	}
	return p.projectB(cp, b)
}

// outputColumn is a projection target: a single attribute or a coalesce
// group created by natural-join star expansion.
type outputColumn struct {
	name  string
	attrs []qtree.AttrRef // coalesce in order; length 1 for plain columns
}

// projColumns computes the output columns for non-aggregate queries,
// coalescing natural-join common attributes under SELECT * (standard SQL
// star expansion; this is what makes assumption A8 necessary).
func projColumns(q *qtree.Query) []outputColumn {
	if !q.Proj.Star {
		out := make([]outputColumn, len(q.Proj.Attrs))
		for i, a := range q.Proj.Attrs {
			out[i] = outputColumn{name: a.String(), attrs: []qtree.AttrRef{a}}
		}
		return out
	}
	// Coalesce groups: union-find over natural-join common attribute
	// pairs of the original tree.
	group := map[qtree.AttrRef]qtree.AttrRef{}
	var find func(a qtree.AttrRef) qtree.AttrRef
	find = func(a qtree.AttrRef) qtree.AttrRef {
		p, ok := group[a]
		if !ok || p == a {
			return a
		}
		r := find(p)
		group[a] = r
		return r
	}
	for _, n := range q.Root.Nodes(nil) {
		if !n.Natural {
			continue
		}
		for _, pair := range naturalPairs(n) {
			group[find(pair[1])] = find(pair[0])
		}
	}
	members := map[qtree.AttrRef][]qtree.AttrRef{}
	for _, a := range q.Proj.Attrs {
		r := find(a)
		members[r] = append(members[r], a)
	}
	var out []outputColumn
	done := map[qtree.AttrRef]bool{}
	for _, a := range q.Proj.Attrs {
		r := find(a)
		if done[r] {
			continue
		}
		done[r] = true
		ms := members[r]
		sort.Slice(ms, func(i, j int) bool { return ms[i].Less(ms[j]) })
		name := a.String()
		if len(ms) > 1 {
			name = a.Attr
		}
		out = append(out, outputColumn{name: name, attrs: ms})
	}
	return out
}

func naturalPairs(n *qtree.Node) [][2]qtree.AttrRef {
	l := map[string]qtree.AttrRef{}
	for _, occ := range n.Left.Leaves(nil) {
		for _, a := range occ.Rel.Attrs {
			l[a.Name] = qtree.AttrRef{Occ: occ.Name, Attr: a.Name}
		}
	}
	var out [][2]qtree.AttrRef
	for _, occ := range n.Right.Leaves(nil) {
		for _, a := range occ.Rel.Attrs {
			if la, ok := l[a.Name]; ok {
				out = append(out, [2]qtree.AttrRef{la, {Occ: occ.Name, Attr: a.Name}})
			}
		}
	}
	return out
}

// projectB projects a columnar root batch into a Result. It serves
// Run and RunOpts (the kill matrix's original query among them) and the
// verdicts of the shapes DiffersFrom does not stream: DISTINCT
// projections and projections under retained subqueries. Output values
// are read straight from the batch columns, so full-width intermediate
// rows are never built. All output rows share one flat backing array
// and the precompiled header, and small results carve the Result and
// row headers out of one allocation, so a run costs two allocations
// regardless of row count.
func (p *Plan) projectB(cp *compiledPlan, b *batch) (*Result, error) {
	n, w := b.n, len(cp.projIdx)
	ra := &resultAlloc{r: Result{Cols: cp.colNames}}
	res := &ra.r
	if n == 0 {
		return res, nil
	}
	var rows []sqltypes.Row
	if n <= len(ra.rows) {
		rows = ra.rows[:n:n]
	} else {
		rows = make([]sqltypes.Row, n)
	}
	flat := make(sqltypes.Row, n*w)
	for ri := 0; ri < n; ri++ {
		out := flat[ri*w : (ri+1)*w : (ri+1)*w]
		if cp.simpleProj != nil {
			for i, ci := range cp.simpleProj {
				out[i] = b.value(ci, ri)
			}
		} else {
			for i := range out {
				out[i] = cp.coalesce(b, i, ri)
			}
		}
		rows[ri] = out
	}
	res.Rows = rows
	if p.Query.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	return res, nil
}

// coalesce returns output column i of root row ri: the first non-NULL
// value among its coalesce attributes, or NULL. An attribute missing
// from the root layout faults here, when a row first reaches it.
func (o *output) coalesce(b *batch, i, ri int) sqltypes.Value {
	for j, ci := range o.projIdx[i] {
		if ci < 0 {
			panic(fmt.Sprintf("engine: attribute %s not in scope", o.proj[i].attrs[j]))
		}
		if v := b.value(ci, ri); !v.IsNull() {
			return v
		}
	}
	return sqltypes.Null()
}

// rowHash returns Row.Hash of the projected root row ri without
// building the row.
func (o *output) rowHash(b *batch, ri int) uint64 {
	h := sqltypes.HashSeed
	if o.simpleProj != nil {
		for _, ci := range o.simpleProj {
			h = sqltypes.HashValue(h, b.value(ci, ri))
		}
		return h
	}
	for i := range o.projIdx {
		h = sqltypes.HashValue(h, o.coalesce(b, i, ri))
	}
	return h
}

// projectionDiffers decides a plain projection's verdict against want
// by the rules of Result.Equal: row count, then arity, then the
// multiset of row hashes. A simple projection cannot fault, so it is
// decided on row count before a row is hashed; a coalescing one hashes
// every row first, so it faults exactly where projectB would.
func (o *output) projectionDiffers(b *batch, want *Result, sc *SharedCache) bool {
	n := b.n
	if o.simpleProj != nil && n != len(want.Rows) {
		return true
	}
	var buf [16]uint64
	hs := buf[:0]
	if n > len(buf) {
		hs = sc.hashScratch(n)
	}
	for ri := 0; ri < n; ri++ {
		hs = append(hs, o.rowHash(b, ri))
	}
	switch {
	case n != len(want.Rows):
		return true
	case n == 0:
		return false
	case len(want.Rows[0]) != len(o.projIdx):
		return true
	}
	return !hashesMatch(hs, want.hashedMultiset())
}

// resultAlloc bundles a Result with inline storage for a small row
// header slice, so projecting a tiny result (the common case on the
// paper's datasets) allocates once for both.
type resultAlloc struct {
	r    Result
	rows [8]sqltypes.Row
}

// dedupRows keeps the first occurrence of each distinct row. Rows are
// bucketed by 64-bit hash and verified with Identical, so equality is
// exact (the hash only narrows candidates).
func dedupRows(rows []sqltypes.Row) []sqltypes.Row {
	seen := make(map[uint64][]int, len(rows))
	var out []sqltypes.Row
	for _, r := range rows {
		h := r.Hash()
		dup := false
		for _, j := range seen[h] {
			if r.Identical(out[j]) {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(seen[h], len(out))
			out = append(out, r)
		}
	}
	return out
}

// aggGroup is one GROUP BY bucket: the key values and the member row
// indices into the grouped input.
type aggGroup struct {
	key  sqltypes.Row
	rows []int
}

// groupBucket finds or creates key's group. Groups are bucketed by key
// hash, verified with Identical, and recorded in first-occurrence order.
func groupBucket(groups map[uint64][]*aggGroup, order []*aggGroup, key sqltypes.Row) (*aggGroup, []*aggGroup) {
	h := key.Hash()
	for _, g := range groups[h] {
		if g.key.Identical(key) {
			return g, order
		}
	}
	g := &aggGroup{key: key}
	groups[h] = append(groups[h], g)
	return g, append(order, g)
}

// aggRows renders the grouped output of batch b: one row per group in
// first-occurrence order, or the single aggEmpty row for a global
// aggregate over empty input.
func (p *Plan) aggRows(cp *compiledPlan, res *Result, order []*aggGroup, b *batch) (*Result, error) {
	spec := p.Query.Agg
	if b.n == 0 && len(spec.GroupBy) == 0 {
		// The synthetic empty global group is still subject to HAVING
		// (SELECT COUNT(*) FROM t HAVING COUNT(*) > 0 is empty on empty t).
		keep, err := p.havingKeep(cp, nil, b)
		if err != nil {
			return nil, err
		}
		if keep {
			out := make(sqltypes.Row, 0, len(p.Aggs))
			for _, c := range p.Aggs {
				out = append(out, aggEmpty(c))
			}
			res.Rows = append(res.Rows, out)
		}
		return res, nil
	}
	for _, g := range order {
		keep, err := p.havingKeep(cp, g.rows, b)
		if err != nil {
			return nil, err
		}
		if !keep {
			continue
		}
		out := make(sqltypes.Row, 0, len(cp.groupIdx)+len(p.Aggs))
		out = append(out, g.key...)
		for i, c := range p.Aggs {
			v, err := evalAgg(c, g.rows, cp.aggIdx[i], b)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// havingKeep evaluates the plan's HAVING conjuncts over one group (rows
// may be empty for the synthetic global group). A group survives only
// when every conjunct is True in three-valued logic.
func (p *Plan) havingKeep(cp *compiledPlan, rows []int, b *batch) (bool, error) {
	for i, h := range p.Having {
		v, err := evalAgg(h.Call, rows, cp.havingIdx[i], b)
		if err != nil {
			return false, err
		}
		if sqltypes.TriCompare(h.Op, v, h.Rhs) != sqltypes.True {
			return false, nil
		}
	}
	return true, nil
}

// aggregateB groups and aggregates a columnar root batch: group keys and
// aggregate arguments are read from the batch columns, and only the
// group keys are materialized as rows. A global aggregate (no GROUP BY)
// skips the grouping structures entirely: its single group is the whole
// batch.
func (p *Plan) aggregateB(cp *compiledPlan, b *batch) (*Result, error) {
	spec := p.Query.Agg
	res := &Result{Cols: cp.colNames}
	if len(cp.groupIdx) == 0 {
		if b.n == 0 {
			return p.aggRows(cp, res, nil, b)
		}
		all := aggGroup{rows: make([]int, b.n)}
		for ri := range all.rows {
			all.rows[ri] = ri
		}
		return p.aggRows(cp, res, []*aggGroup{&all}, b)
	}
	groups := map[uint64][]*aggGroup{}
	var order []*aggGroup
	for ri := 0; ri < b.n; ri++ {
		key := make(sqltypes.Row, len(cp.groupIdx))
		for i, gi := range cp.groupIdx {
			if gi < 0 {
				panic(fmt.Sprintf("engine: attribute %s not in scope", spec.GroupBy[i]))
			}
			key[i] = b.value(gi, ri)
		}
		var g *aggGroup
		g, order = groupBucket(groups, order, key)
		g.rows = append(g.rows, ri)
	}
	return p.aggRows(cp, res, order, b)
}

func aggEmpty(c qtree.AggCall) sqltypes.Value {
	if c.Func == sqlparser.AggCount {
		return sqltypes.NewInt(0)
	}
	return sqltypes.Null()
}

// evalAgg evaluates one aggregate call over the given rows of b; idx is
// the argument's column (-1 when it is not in scope).
func evalAgg(c qtree.AggCall, rows []int, idx int, b *batch) (sqltypes.Value, error) {
	if c.Star {
		return sqltypes.NewInt(int64(len(rows))), nil
	}
	if idx < 0 {
		return sqltypes.Value{}, fmt.Errorf("engine: aggregate argument %s not in scope", c.Arg)
	}
	// Argument values collect into a stack buffer for the usual tiny
	// group; only larger groups spill to the heap.
	var buf [16]sqltypes.Value
	vals := buf[:0]
	for _, ri := range rows {
		if v := b.value(idx, ri); !v.IsNull() {
			vals = append(vals, v)
		}
	}
	if c.Distinct {
		vals = distinctVals(vals)
	}
	switch c.Func {
	case sqlparser.AggCount:
		return sqltypes.NewInt(int64(len(vals))), nil
	case sqlparser.AggMin, sqlparser.AggMax:
		if len(vals) == 0 {
			return sqltypes.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			cmp := sqltypes.Compare(v, best)
			if (c.Func == sqlparser.AggMin && cmp < 0) || (c.Func == sqlparser.AggMax && cmp > 0) {
				best = v
			}
		}
		return best, nil
	case sqlparser.AggSum, sqlparser.AggAvg:
		if len(vals) == 0 {
			return sqltypes.Null(), nil
		}
		sum := sqltypes.NewInt(0)
		for _, v := range vals {
			sum = sqltypes.Add(sum, v)
		}
		if c.Func == sqlparser.AggSum {
			return sum, nil
		}
		return sqltypes.NewFloat(sum.Float() / float64(len(vals))), nil
	}
	return sqltypes.Value{}, fmt.Errorf("engine: unknown aggregate %v", c.Func)
}

// distinctVals keeps the first occurrence of each distinct value,
// hash-bucketed with exact Identical verification.
func distinctVals(vals []sqltypes.Value) []sqltypes.Value {
	seen := make(map[uint64][]sqltypes.Value, len(vals))
	var out []sqltypes.Value
	for _, v := range vals {
		h := sqltypes.HashValue(sqltypes.HashSeed, v)
		dup := false
		for _, u := range seen[h] {
			if sqltypes.Identical(u, v) {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(seen[h], v)
			out = append(out, v)
		}
	}
	return out
}
