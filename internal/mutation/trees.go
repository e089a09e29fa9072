// Package mutation implements the paper's mutation space (§II) and the
// kill-checking harness of §VI-C: enumeration of all equivalent join
// orders of an inner-join query, single join-type mutations of every node
// of every order, comparison-operator mutations of predicate conjuncts,
// aggregation-operator mutations, execution of mutants against datasets
// to build a kill matrix, and randomized equivalence testing of surviving
// mutants (automating the paper's manual verification that unkilled
// mutants are equivalent).
package mutation

import (
	"bytes"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/qtree"
	"repro/internal/sqlparser"
)

// MaxEnumRelations bounds join-order enumeration; beyond this the tree
// count explodes combinatorially (the paper's experiments stop at 7
// relations).
const MaxEnumRelations = 10

// EnumerateTrees returns every cross-product-free binary join tree over
// the query's occurrences, one representative per unordered tree (each
// node is oriented so its left subtree contains the lowest-numbered
// occurrence; inner joins are commutative and outer-join direction is
// covered by mutating to both ⟕ and ⟖). All join types are inner; the
// caller mutates them.
//
// Connectivity is defined by the query's join graph: a partition (L, R)
// of a subset is joinable if an equivalence class spans both sides or a
// non-equi join predicate links them (qtree.JoinGraphEdge). This realizes
// the paper's requirement that the space of join orders is derived from
// the equivalence-class representation (Example 4: A.x=B.x AND B.x=C.x
// admits the (A ⋈ C) pairing).
func EnumerateTrees(q *qtree.Query) ([]*qtree.Node, error) {
	n := len(q.Occs)
	if n > MaxEnumRelations {
		return nil, fmt.Errorf("mutation: %d relations exceed the enumeration bound %d", n, MaxEnumRelations)
	}
	full := uint32(1)<<n - 1
	memo := make(map[uint32][]*qtree.Node)
	occSet := func(mask uint32) map[string]bool {
		s := make(map[string]bool)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s[q.Occs[i].Name] = true
			}
		}
		return s
	}
	sets := make([]map[string]bool, full+1)
	var build func(mask uint32) []*qtree.Node
	build = func(mask uint32) []*qtree.Node {
		if ts, ok := memo[mask]; ok {
			return ts
		}
		if bits.OnesCount32(mask) == 1 {
			i := bits.TrailingZeros32(mask)
			ts := []*qtree.Node{{Occ: q.Occs[i]}}
			memo[mask] = ts
			return ts
		}
		var out []*qtree.Node
		low := uint32(1) << bits.TrailingZeros32(mask)
		// Iterate proper submasks containing the lowest bit (canonical
		// orientation).
		rest := mask &^ low
		for sub := rest; ; sub = (sub - 1) & rest {
			left := low | sub
			right := mask &^ left
			if right != 0 {
				if sets[left] == nil {
					sets[left] = occSet(left)
				}
				if sets[right] == nil {
					sets[right] = occSet(right)
				}
				if q.JoinGraphEdge(sets[left], sets[right]) {
					ls := build(left)
					rs := build(right)
					for _, l := range ls {
						for _, r := range rs {
							out = append(out, &qtree.Node{Type: sqlparser.InnerJoin, Left: l, Right: r})
						}
					}
				}
			}
			if sub == 0 {
				break
			}
		}
		memo[mask] = out
		return out
	}
	trees := build(full)
	if len(trees) == 0 {
		return nil, fmt.Errorf("mutation: query's join graph is disconnected (cross product)")
	}
	return trees, nil
}

// CountTrees returns the number of trees EnumerateTrees would produce,
// computed by dynamic programming without materializing them.
func CountTrees(q *qtree.Query) (int64, error) {
	n := len(q.Occs)
	if n > MaxEnumRelations {
		return 0, fmt.Errorf("mutation: %d relations exceed the enumeration bound %d", n, MaxEnumRelations)
	}
	full := uint32(1)<<n - 1
	counts := make([]int64, full+1)
	sets := make([]map[string]bool, full+1)
	occSet := func(mask uint32) map[string]bool {
		s := make(map[string]bool)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s[q.Occs[i].Name] = true
			}
		}
		return s
	}
	for mask := uint32(1); mask <= full; mask++ {
		if bits.OnesCount32(mask) == 1 {
			counts[mask] = 1
			continue
		}
		low := uint32(1) << bits.TrailingZeros32(mask)
		rest := mask &^ low
		for sub := rest; ; sub = (sub - 1) & rest {
			left := low | sub
			right := mask &^ left
			if right != 0 && counts[left] > 0 && counts[right] > 0 {
				if sets[left] == nil {
					sets[left] = occSet(left)
				}
				if sets[right] == nil {
					sets[right] = occSet(right)
				}
				if q.JoinGraphEdge(sets[left], sets[right]) {
					counts[mask] += counts[left] * counts[right]
				}
			}
			if sub == 0 {
				break
			}
		}
	}
	return counts[full], nil
}

// Canon returns a canonical string for a join tree: inner-join children
// are sorted, and right outer joins are normalized to left outer joins
// with swapped children (L ⟖ R ≡ R ⟕ L); full outer joins sort children.
// Two trees with equal canonical strings are semantically identical
// mutants.
func Canon(n *qtree.Node) string {
	return string(appendCanon(nil, n))
}

// appendCanon appends n's canonical form to dst.
func appendCanon(dst []byte, n *qtree.Node) []byte {
	if n.IsLeaf() {
		return append(dst, n.Occ.Name...)
	}
	return appendCanonJoin(dst, n.Type, appendCanon(nil, n.Left), appendCanon(nil, n.Right))
}

// appendCanonJoin appends the canonical form of a join of type t whose
// children have canonical forms l and r.
func appendCanonJoin(dst []byte, t sqlparser.JoinType, l, r []byte) []byte {
	sep := "*"
	switch t {
	case sqlparser.InnerJoin:
		if bytes.Compare(r, l) < 0 {
			l, r = r, l
		}
	case sqlparser.LeftOuterJoin:
		sep = "=>"
	case sqlparser.RightOuterJoin:
		sep = "=>"
		l, r = r, l
	default: // full outer
		sep = "<=>"
		if bytes.Compare(r, l) < 0 {
			l, r = r, l
		}
	}
	dst = append(append(dst, '('), l...)
	dst = append(append(dst, sep...), r...)
	return append(dst, ')')
}

// canonForms memoizes the canonical form and the sorted occurrence names
// of every subtree it is asked about, by node. The join orders
// EnumerateTrees returns share their subtrees, and qtree trees are never
// mutated after construction, so one memo serves every tree of a space.
type canonForms struct {
	forms map[*qtree.Node][]byte
	names map[*qtree.Node]string
	// a and b are scratch for mutatedKey.
	a, b []byte
}

func newCanonForms() *canonForms {
	return &canonForms{forms: map[*qtree.Node][]byte{}, names: map[*qtree.Node]string{}}
}

// of returns n's canonical form. The slice is shared; callers must not
// modify it.
func (cf *canonForms) of(n *qtree.Node) []byte {
	if f, ok := cf.forms[n]; ok {
		return f
	}
	var f []byte
	if n.IsLeaf() {
		f = []byte(n.Occ.Name)
	} else {
		f = appendCanonJoin(nil, n.Type, cf.of(n.Left), cf.of(n.Right))
	}
	cf.forms[n] = f
	return f
}

// mutatedKey returns the canonical form of the tree whose root path is
// path (root first, n's parent last) with node n's join type read as jt.
// Only the path is re-rendered: every sibling off it contributes its
// memoized form. The result lives in scratch and is valid until the
// next call.
func (cf *canonForms) mutatedKey(path []*qtree.Node, n *qtree.Node, jt sqlparser.JoinType) []byte {
	cur := appendCanonJoin(cf.a[:0], jt, cf.of(n.Left), cf.of(n.Right))
	next := cf.b[:0]
	child := n
	for i := len(path) - 1; i >= 0; i-- {
		a := path[i]
		if a.Left == child {
			next = appendCanonJoin(next[:0], a.Type, cur, cf.of(a.Right))
		} else {
			next = appendCanonJoin(next[:0], a.Type, cf.of(a.Left), cur)
		}
		cur, next, child = next, cur, a
	}
	cf.a, cf.b = cur, next
	return cur
}

// leafNames returns n's occurrence names, sorted and comma-joined.
func (cf *canonForms) leafNames(n *qtree.Node) string {
	s, ok := cf.names[n]
	if !ok {
		var names []string
		for _, o := range n.Leaves(nil) {
			names = append(names, o.Name)
		}
		sort.Strings(names)
		s = strings.Join(names, ",")
		cf.names[n] = s
	}
	return s
}

// pathCopy returns the tree whose root path is path (root first, n's
// parent last) with node n's join type set to jt. Only n and its
// ancestors are copied, into one allocation; every subtree off the path
// is shared with the original tree.
func pathCopy(path []*qtree.Node, n *qtree.Node, jt sqlparser.JoinType) *qtree.Node {
	nodes := make([]qtree.Node, len(path)+1)
	c := &nodes[len(path)]
	*c = *n
	c.Type = jt
	child := n
	for i := len(path) - 1; i >= 0; i-- {
		a := path[i]
		p := &nodes[i]
		*p = *a
		if a.Left == child {
			p.Left = c
		} else {
			p.Right = c
		}
		c, child = p, a
	}
	return c
}
