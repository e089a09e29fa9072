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
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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
	// not depend on the dataset. The kill-matrix evaluator compiles a
	// whole mutant family up front through CompilePlans; every other
	// caller compiles lazily on the first Run. sync.Once makes the
	// compile exactly-once whichever of the two reaches it first, and
	// safe for callers that run one plan from several goroutines.
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
// one result pair, with probability ~2^-64 per comparison.
func (r *Result) Equal(o *Result) bool {
	if r == o {
		// The kill-matrix evaluator's result memo serves one shared
		// *Result for provably identical executions.
		return true
	}
	if len(r.Rows) != len(o.Rows) {
		return false
	}
	if len(r.Rows) == 0 {
		return true
	}
	// Arity check before building either multiset: mutants that change
	// the output width are decided without hashing a single row.
	if len(r.Rows[0]) != len(o.Rows[0]) {
		return false
	}
	// Small other side: compare its row hashes against the memoized
	// multiset directly, without building (or memoizing) a second map.
	// This is the kill-matrix shape — the original's result is compared
	// against every mutant of the space, but each mutant's result is
	// compared exactly once — and it makes the comparison
	// allocation-free (the hash scratch stays on the stack). Quadratic
	// in len(o.Rows), bounded by 16. o's memoized map, even if already
	// built, is deliberately not consulted: reading it outside its
	// sync.Once would race with a concurrent memoization.
	if n := len(o.Rows); n <= 16 {
		var buf [16]uint64
		hs := buf[:n]
		for i, row := range o.Rows {
			hs[i] = row.Hash()
		}
		a := r.hashedMultiset()
		distinct := 0
		for i := 0; i < n; i++ {
			h := hs[i]
			dup := false
			for j := 0; j < i; j++ {
				if hs[j] == h {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			c := 1
			for j := i + 1; j < n; j++ {
				if hs[j] == h {
					c++
				}
			}
			distinct++
			if a[h] != c {
				return false
			}
		}
		// Counts match on o's support and total row counts are equal,
		// so the multisets are equal iff their supports have equal size.
		return distinct == len(a)
	}
	a, b := r.hashedMultiset(), o.hashedMultiset()
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
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

	// empty is set when a constant predicate (a WHERE conjunct referencing
	// no attribute, e.g. 1 = 2) evaluated to non-true: the conjunct fails
	// for every row, so the query result is empty regardless of the join
	// tree. Constant conjuncts used to empty the leftmost leaf instead,
	// which is wrong under RIGHT/FULL outer joins above that leaf: the
	// other side's rows survive as null-padded output even though the
	// WHERE clause rejects every row (found by the randql differential
	// oracle design review; see TestConstantFalseWhereUnderOuterJoin).
	empty bool

	// Non-aggregate projection: output columns plus, per column, the
	// root-layout indices of its coalesce attributes. An index of -1
	// (attribute missing from the root layout) only surfaces when a row
	// is actually projected, matching the lazy lookup the interpreter
	// performed per row.
	proj    []outputColumn
	projIdx [][]int

	// simpleProj is the common projection shape — every output column
	// is exactly one resolved root-layout index, no coalescing and no
	// unresolved attributes — flattened for the columnar executor's
	// fast path. nil when any column needs the general loop.
	simpleProj []int

	// colNames is the output header, rendered once at compile time and
	// shared (read-only) by every Result the columnar executor builds.
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
	cols  map[qtree.AttrRef]int
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
	// subID is the interned id of the whole subtree rooted here (opID
	// plus the children's subIDs). It short-circuits the cache walk:
	// a subtree the cache has already evaluated resolves in one lookup
	// without recursing to its leaves. Only nodes on a mutant's
	// changed path miss and fall through to the (opID, children)
	// level keys.
	subID int32

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
// family through one memo that hash-conses compiled nodes, so each
// distinct subtree is built once per evaluation; a lazy compile runs the
// same code through a private memo.

// CompilePlans compiles every plan not compiled yet, through one memo per
// (query, predicate slice) that builds each distinct subtree once. The
// memos live only for the call: a plan keeps just its own compiled tree,
// whose nodes it may share with the other plans of the call. A compile
// error stays on its plan and is returned by the plan's runs, as a lazy
// compile's would be. CompilePlans itself fails only when ctx is done,
// which it checks between plans.
func CompilePlans(ctx context.Context, plans []*Plan) error {
	memos := memoSet{}
	for _, p := range plans {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		p.compileOnce.Do(func() { p.comp, p.compErr = memos.compile(p) })
	}
	return nil
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

// memoSet holds the memos of one CompilePlans call.
type memoSet map[memoKey]*compileMemo

// compile compiles p through the memo of its key, creating the memo on
// first use.
func (s memoSet) compile(p *Plan) (*compiledPlan, error) {
	k := memoKey{q: p.Query, n: len(p.Preds)}
	if len(p.Preds) > 0 {
		k.preds = &p.Preds[0]
	}
	m := s[k]
	if m == nil {
		m = newCompileMemo(p)
		s[k] = m
	}
	return p.doCompile(m)
}

// compileMemo hash-conses the compiled nodes of the plans sharing one
// memoKey: leaves are keyed by occurrence, joins by (join type, left
// node, right node). Children are memoized first, so node pointers are
// canonical and a join key identifies its whole subtree.
type compileMemo struct {
	q     *qtree.Query
	preds []*qtree.Pred
	// constEmpty is set when a constant conjunct is not true (see
	// compiledPlan.empty).
	constEmpty bool
	leaves     map[*qtree.Occurrence]*cnode
	joins      map[joinKey]*cnode
	// proj and projNames are the non-aggregate output columns and header.
	// They depend on the query alone; built on first use.
	proj      []outputColumn
	projNames []string
}

type joinKey struct {
	jt   sqlparser.JoinType
	l, r *cnode
}

func newCompileMemo(p *Plan) *compileMemo {
	m := &compileMemo{
		q:      p.Query,
		preds:  p.Preds,
		leaves: map[*qtree.Occurrence]*cnode{},
		joins:  map[joinKey]*cnode{},
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

// compile returns the plan's compiled state, compiling it through a
// private memo unless CompilePlans already has.
func (p *Plan) compile() (*compiledPlan, error) {
	p.compileOnce.Do(func() { p.comp, p.compErr = p.doCompile(newCompileMemo(p)) })
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
	cp := &compiledPlan{root: root, empty: m.constEmpty}
	if p.Query.Agg != nil {
		spec := p.Query.Agg
		cp.groupIdx = make([]int, len(spec.GroupBy))
		for i, g := range spec.GroupBy {
			cp.groupIdx[i] = colIndex(root.cols, g)
		}
		cp.aggIdx = make([]int, len(p.Aggs))
		for i, c := range p.Aggs {
			cp.aggIdx[i] = -1
			if !c.Star {
				cp.aggIdx[i] = colIndex(root.cols, c.Arg)
			}
		}
		cp.havingIdx = make([]int, len(p.Having))
		for i, h := range p.Having {
			cp.havingIdx[i] = -1
			if !h.Call.Star {
				cp.havingIdx[i] = colIndex(root.cols, h.Call.Arg)
			}
		}
		for _, g := range spec.GroupBy {
			cp.colNames = append(cp.colNames, g.String())
		}
		for _, c := range p.Aggs {
			cp.colNames = append(cp.colNames, c.String())
		}
	} else {
		if m.proj == nil {
			m.proj = projColumns(m.q)
			m.projNames = make([]string, len(m.proj))
			for i, c := range m.proj {
				m.projNames[i] = c.name
			}
		}
		cp.proj, cp.colNames = m.proj, m.projNames
		cp.projIdx = make([][]int, len(cp.proj))
		simple := make([]int, len(cp.proj))
		for i, c := range cp.proj {
			idx := make([]int, len(c.attrs))
			for j, a := range c.attrs {
				idx[j] = colIndex(root.cols, a)
			}
			cp.projIdx[i] = idx
			if simple != nil && len(idx) == 1 && idx[0] >= 0 {
				simple[i] = idx[0]
			} else {
				simple = nil
			}
		}
		cp.simpleProj = simple
	}
	cp.projID = intern(&opIntern, string(p.projSignature(cp)))
	return cp, nil
}

// projSignature renders everything that determines the output given a
// root batch. Aggregate calls render with function, argument and
// DISTINCT; resolved indices pin the root layout bindings; the header is
// included so memoized Results carry the right column names.
func (p *Plan) projSignature(cp *compiledPlan) []byte {
	b := make([]byte, 0, 128)
	if p.Query.Agg != nil {
		b = append(b, "A("...)
		b = appendInts(b, cp.groupIdx)
		b = append(b, ';')
		b = appendInts(b, cp.aggIdx)
	} else {
		b = append(b, "P("...)
		for _, idx := range cp.projIdx {
			b = appendInts(b, idx)
		}
		b = append(b, ';')
		b = strconv.AppendBool(b, p.Query.Distinct)
	}
	for _, n := range cp.colNames {
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

func colIndex(cols map[qtree.AttrRef]int, a qtree.AttrRef) int {
	if i, ok := cols[a]; ok {
		return i
	}
	return -1
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
	c := &cnode{
		leaf:    true,
		relName: occ.Rel.Name,
		cols:    make(map[qtree.AttrRef]int, len(occ.Rel.Attrs)),
		width:   occ.Rel.Arity(),
		placed:  newPredSet(len(m.preds)),
	}
	for i, a := range occ.Rel.Attrs {
		c.cols[qtree.AttrRef{Occ: occ.Name, Attr: a.Name}] = i
	}
	// Selections on this occurrence are applied at the leaf (paper §II:
	// selections pushed to the lowest level).
	for i, pr := range m.preds {
		if len(pr.Occs) == 1 && pr.Occs[0] == occ.Name {
			c.sels = append(c.sels, compilePred(pr, c.cols))
			c.placed.add(i)
		}
	}
	b := append(make([]byte, 0, 64), "L("...)
	b = append(b, c.relName...)
	for i := range c.sels {
		b = append(b, ';')
		b = append(b, c.sels[i].src.String()...)
	}
	c.opID = intern(&opIntern, string(append(b, ')')))
	c.subID = c.opID // a leaf is its own subtree
	return c
}

// The intern tables map operation signature strings, and join subtree
// keys, to small process-wide ids assigned at compile time. Equal
// signatures from independently compiled plans — through different
// memos, in different calls — get equal ids, so a SharedCache key is
// three ints and a lookup never touches the signature string. Both
// tables draw from one counter: a leaf's subtree id is its op id, and a
// join's is keyed by its op id and its children's subtree ids. The
// tables' footprint is one entry per distinct operation or subtree
// shape ever compiled.
var (
	opIntern  sync.Map // string -> int32
	subIntern sync.Map // subKey -> int32
	opInternN atomic.Int32
)

type subKey struct{ op, l, r int32 }

func intern(table *sync.Map, k any) int32 {
	if v, ok := table.Load(k); ok {
		return v.(int32)
	}
	v, _ := table.LoadOrStore(k, opInternN.Add(1))
	return v.(int32)
}

// internedOps returns an upper bound on the ids handed out so far
// (racing interns may leave unused ids below it). New caches size their
// subtree index from it.
func internedOps() int {
	return int(opInternN.Load())
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
	c := &cnode{
		jt:     k.jt,
		left:   left,
		right:  right,
		width:  left.width + right.width,
		cols:   make(map[qtree.AttrRef]int, len(left.cols)+len(right.cols)),
		placed: newPredSet(len(m.preds)),
	}
	for a, i := range left.cols {
		c.cols[a] = i
	}
	for a, i := range right.cols {
		c.cols[a] = left.width + i
	}
	for w := range c.placed {
		c.placed[w] = left.placed[w] | right.placed[w]
	}
	for _, ec := range m.q.Classes {
		var ls, rs []int
		for _, mem := range ec.Members {
			if i, ok := left.cols[mem]; ok {
				ls = append(ls, i)
			} else if i, ok := right.cols[mem]; ok {
				rs = append(rs, i)
			}
		}
		// All cross pairs: every implied equality applied at the
		// earliest point.
		for _, l := range ls {
			for _, r := range rs {
				c.pairs = append(c.pairs, pairIdx{l, r})
			}
		}
	}
	for i, pr := range m.preds {
		if len(pr.Occs) < 2 || c.placed.has(i) {
			continue
		}
		inScope, touchesL, touchesR := true, false, false
		for _, a := range pr.Attrs() {
			if _, ok := left.cols[a]; ok {
				touchesL = true
			} else if _, ok := right.cols[a]; ok {
				touchesR = true
			} else {
				inScope = false
				break
			}
		}
		// Both sides touched: the first node spanning the predicate.
		// One side only: should have been applied deeper; placed
		// defensively (can happen only for predicates whose occurrences
		// all sit in one subtree but involve more than one occurrence
		// that first co-occurred here).
		if inScope && (touchesL || touchesR) {
			c.preds = append(c.preds, compilePred(pr, c.cols))
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
	c.opID = intern(&opIntern, string(append(b, ')')))
	c.subID = intern(&subIntern, subKey{op: c.opID, l: left.subID, r: right.subID})
	return c
}

// predSet is a bitset over the indices of a plan's predicate slice.
type predSet []uint64

func newPredSet(n int) predSet   { return make(predSet, (n+63)/64) }
func (s predSet) add(i int)      { s[i/64] |= 1 << (i % 64) }
func (s predSet) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// RunOptions selects the execution strategy for one plan run.
type RunOptions struct {
	// Interpret runs the row-at-a-time tree-walking interpreter (the
	// reference implementation) instead of the compiled columnar
	// executor. Corresponds to the NoCompiledEngine ablation flag.
	Interpret bool
	// Cache shares node batches and whole results across plans of one
	// mutant family on one dataset (compiled path only). Nil disables
	// sharing. A cache must be confined to one goroutine at a time:
	// callers that parallelize partition their work per dataset.
	Cache *SharedCache
	// Stats receives execution counters; nil counts nothing.
	Stats *ExecStats
}

// Run executes the plan against a dataset with the default strategy
// (compiled columnar executor, no cross-plan sharing).
func (p *Plan) Run(ds *schema.Dataset) (*Result, error) {
	return p.RunOpts(ds, RunOptions{})
}

// RunOpts executes the plan against a dataset under explicit options.
// Both strategies produce identical Results — not merely multiset-equal:
// row order, group order and padding order all match.
func (p *Plan) RunOpts(ds *schema.Dataset, opt RunOptions) (*Result, error) {
	cp, err := p.compile()
	if err != nil {
		return nil, err
	}
	if opt.Interpret {
		opt.Stats.addInterpretedRun()
		var rows []sqltypes.Row
		if !cp.empty {
			rows = cp.root.run(ds)
		}
		rows = p.filterSubs(cp, ds, rows)
		if p.Query.Agg != nil {
			return p.aggregate(cp, rows)
		}
		return p.project(cp, rows)
	}
	opt.Stats.addCompiledRun()
	env := &execEnv{ds: ds, cache: opt.Cache, stats: opt.Stats}
	defer env.flush()
	var b *batch
	if cp.empty {
		b = &batch{n: 0, kind: bLeaf, cols: make([]schema.Column, cp.root.width)}
	} else {
		b = cp.root.runB(env)
	}
	// Whole-result memo: with a cache in place the root batch carries a
	// content id, and (projection, root content) determines the result
	// exactly — serve the previously projected Result, which also lets
	// the caller's equivalence check collapse to a pointer comparison.
	if sc := opt.Cache; sc != nil && b.id != 0 {
		k := resKey{proj: cp.projID, root: b.id}
		if r, ok := sc.results[k]; ok {
			env.resultHits++
			return r, nil
		}
		r, err := p.finishB(cp, b, ds)
		if err == nil {
			if sc.results == nil {
				sc.results = make(map[resKey]*Result, 64)
			}
			sc.results[k] = r
		}
		return r, err
	}
	return p.finishB(cp, b, ds)
}

func (p *Plan) finishB(cp *compiledPlan, b *batch, ds *schema.Dataset) (*Result, error) {
	// Retained subqueries are evaluated row-at-a-time: the root batch is
	// materialized (in batch order, so both executors stay byte-identical)
	// and filtered, then finished by the interpreter's project/aggregate.
	if len(p.Subs) > 0 {
		rows := p.filterSubs(cp, ds, materializeRows(cp, b))
		if p.Query.Agg != nil {
			return p.aggregate(cp, rows)
		}
		return p.project(cp, rows)
	}
	if p.Query.Agg != nil {
		return p.aggregateB(cp, b)
	}
	return p.projectB(cp, b)
}

// materializeRows expands a columnar batch into full-width rows sharing
// one flat backing array.
func materializeRows(cp *compiledPlan, b *batch) []sqltypes.Row {
	w := cp.root.width
	rows := make([]sqltypes.Row, b.n)
	flat := make(sqltypes.Row, b.n*w)
	for ri := 0; ri < b.n; ri++ {
		row := flat[ri*w : (ri+1)*w : (ri+1)*w]
		for ci := 0; ci < w; ci++ {
			row[ci] = b.value(ci, ri)
		}
		rows[ri] = row
	}
	return rows
}

func (c *cnode) run(ds *schema.Dataset) []sqltypes.Row {
	if c.leaf {
		return c.runLeaf(ds)
	}
	left := c.left.run(ds)
	right := c.right.run(ds)
	return c.runJoin(left, right)
}

func (c *cnode) runLeaf(ds *schema.Dataset) []sqltypes.Row {
	src := ds.Rows(c.relName)
	if len(c.sels) == 0 {
		// No selection: the dataset's row slice is shared read-only.
		return src
	}
	var out []sqltypes.Row
	for _, row := range src {
		keep := true
		for i := range c.sels {
			if c.sels[i].eval(row) != sqltypes.True {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, row)
		}
	}
	return out
}

func (c *cnode) runJoin(left, right []sqltypes.Row) []sqltypes.Row {
	lw := c.left.width
	// The probe loop visits |L|x|R| pairs per node per plan run — the
	// interpreter hot path — so per-pair allocation is hoisted out of
	// it: pair equalities and compiled predicates index straight into a
	// scratch row; attribute positions were resolved at compile time.
	// Evaluating pairs before predicates is sound because the node
	// condition is a conjunction: order cannot change the result.
	var scratch sqltypes.Row
	if len(c.preds) > 0 {
		scratch = make(sqltypes.Row, c.width)
	}
	match := func(lr, rr sqltypes.Row) bool {
		for _, p := range c.pairs {
			if sqltypes.TriCompare(sqltypes.OpEQ, lr[p.l], rr[p.r]) != sqltypes.True {
				return false
			}
		}
		if len(c.preds) > 0 {
			copy(scratch, lr)
			copy(scratch[lw:], rr)
			for i := range c.preds {
				if c.preds[i].eval(scratch) != sqltypes.True {
					return false
				}
			}
		}
		return true
	}

	var out []sqltypes.Row
	rightMatched := make([]bool, len(right))
	for _, lr := range left {
		found := false
		for ri, rr := range right {
			if match(lr, rr) {
				found = true
				rightMatched[ri] = true
				row := make(sqltypes.Row, 0, c.width)
				row = append(row, lr...)
				row = append(row, rr...)
				out = append(out, row)
			}
		}
		if !found && (c.jt == sqlparser.LeftOuterJoin || c.jt == sqlparser.FullOuterJoin) {
			row := make(sqltypes.Row, 0, c.width)
			row = append(row, lr...)
			for i := 0; i < c.right.width; i++ {
				row = append(row, sqltypes.Null())
			}
			out = append(out, row)
		}
	}
	if c.jt == sqlparser.RightOuterJoin || c.jt == sqlparser.FullOuterJoin {
		for ri, rr := range right {
			if rightMatched[ri] {
				continue
			}
			row := make(sqltypes.Row, 0, c.width)
			for i := 0; i < lw; i++ {
				row = append(row, sqltypes.Null())
			}
			row = append(row, rr...)
			out = append(out, row)
		}
	}
	return out
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

func (p *Plan) project(cp *compiledPlan, rows []sqltypes.Row) (*Result, error) {
	res := &Result{}
	for _, c := range cp.proj {
		res.Cols = append(res.Cols, c.name)
	}
	for _, row := range rows {
		out := make(sqltypes.Row, len(cp.projIdx))
		for i, idx := range cp.projIdx {
			v := sqltypes.Null()
			for j, ci := range idx {
				if ci < 0 {
					panic(fmt.Sprintf("engine: attribute %s not in scope", cp.proj[i].attrs[j]))
				}
				if cv := row[ci]; !cv.IsNull() {
					v = cv
					break
				}
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	if p.Query.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	return res, nil
}

// projectB is project over a columnar root batch: output values are read
// straight from the batch columns, so the full-width intermediate rows
// the interpreter materializes are never built. All output rows share
// one flat backing array and the precompiled header, and small results
// carve the Result and row headers out of one allocation, so a run
// costs two allocations regardless of row count.
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
	if cp.simpleProj != nil {
		for ri := 0; ri < n; ri++ {
			out := flat[ri*w : (ri+1)*w : (ri+1)*w]
			for i, ci := range cp.simpleProj {
				out[i] = b.value(ci, ri)
			}
			rows[ri] = out
		}
	} else {
		for ri := 0; ri < n; ri++ {
			out := flat[ri*w : (ri+1)*w : (ri+1)*w]
			for i, idx := range cp.projIdx {
				v := sqltypes.Null()
				for j, ci := range idx {
					if ci < 0 {
						panic(fmt.Sprintf("engine: attribute %s not in scope", cp.proj[i].attrs[j]))
					}
					if cv := b.value(ci, ri); !cv.IsNull() {
						v = cv
						break
					}
				}
				out[i] = v
			}
			rows[ri] = out
		}
	}
	res.Rows = rows
	if p.Query.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	return res, nil
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

// aggRows renders the grouped output: one row per group in
// first-occurrence order, or the single aggEmpty row for a global
// aggregate over empty input. arg(c, ri) reads aggregate argument column
// c of input row ri.
func (p *Plan) aggRows(cp *compiledPlan, res *Result, order []*aggGroup, nrows int, arg func(c, ri int) sqltypes.Value) (*Result, error) {
	spec := p.Query.Agg
	if nrows == 0 && len(spec.GroupBy) == 0 {
		// The synthetic empty global group is still subject to HAVING
		// (SELECT COUNT(*) FROM t HAVING COUNT(*) > 0 is empty on empty t).
		keep, err := p.havingKeep(cp, nil, arg)
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
		keep, err := p.havingKeep(cp, g.rows, arg)
		if err != nil {
			return nil, err
		}
		if !keep {
			continue
		}
		out := make(sqltypes.Row, 0, len(cp.groupIdx)+len(p.Aggs))
		out = append(out, g.key...)
		for i, c := range p.Aggs {
			v, err := evalAgg(c, g.rows, cp.aggIdx[i], arg)
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
func (p *Plan) havingKeep(cp *compiledPlan, rows []int, arg func(c, ri int) sqltypes.Value) (bool, error) {
	for i, h := range p.Having {
		v, err := evalAgg(h.Call, rows, cp.havingIdx[i], arg)
		if err != nil {
			return false, err
		}
		if sqltypes.TriCompare(h.Op, v, h.Rhs) != sqltypes.True {
			return false, nil
		}
	}
	return true, nil
}

func (p *Plan) aggHeader() *Result {
	res := &Result{}
	for _, g := range p.Query.Agg.GroupBy {
		res.Cols = append(res.Cols, g.String())
	}
	for _, c := range p.Aggs {
		res.Cols = append(res.Cols, c.String())
	}
	return res
}

func (p *Plan) aggregate(cp *compiledPlan, rows []sqltypes.Row) (*Result, error) {
	spec := p.Query.Agg
	groups := map[uint64][]*aggGroup{}
	var order []*aggGroup
	for ri, row := range rows {
		key := make(sqltypes.Row, len(cp.groupIdx))
		for i, gi := range cp.groupIdx {
			if gi < 0 {
				panic(fmt.Sprintf("engine: attribute %s not in scope", spec.GroupBy[i]))
			}
			key[i] = row[gi]
		}
		var g *aggGroup
		g, order = groupBucket(groups, order, key)
		g.rows = append(g.rows, ri)
	}
	return p.aggRows(cp, p.aggHeader(), order, len(rows), func(c, ri int) sqltypes.Value {
		return rows[ri][c]
	})
}

// aggregateB is aggregate over a columnar root batch: group keys and
// aggregate arguments are read from the batch columns, and only the
// group keys are materialized as rows. A global aggregate (no GROUP BY)
// skips the grouping structures entirely: its single group is the whole
// batch.
func (p *Plan) aggregateB(cp *compiledPlan, b *batch) (*Result, error) {
	spec := p.Query.Agg
	res := &Result{Cols: cp.colNames}
	if len(cp.groupIdx) == 0 {
		if b.n == 0 {
			return p.aggRows(cp, res, nil, 0, b.value)
		}
		all := aggGroup{rows: make([]int, b.n)}
		for ri := range all.rows {
			all.rows[ri] = ri
		}
		return p.aggRows(cp, res, []*aggGroup{&all}, b.n, b.value)
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
	return p.aggRows(cp, res, order, b.n, b.value)
}

func aggEmpty(c qtree.AggCall) sqltypes.Value {
	if c.Func == sqlparser.AggCount {
		return sqltypes.NewInt(0)
	}
	return sqltypes.Null()
}

func evalAgg(c qtree.AggCall, rows []int, idx int, arg func(c, ri int) sqltypes.Value) (sqltypes.Value, error) {
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
		if v := arg(idx, ri); !v.IsNull() {
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
