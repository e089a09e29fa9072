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
	"fmt"
	"math/bits"
	"sort"

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
	return canon(n, nil, 0)
}

// canon is Canon with node mut's join type read as jt (mut nil: every
// node as written), so a candidate mutant's key is known before its
// tree is cloned.
func canon(n, mut *qtree.Node, jt sqlparser.JoinType) string {
	if n.IsLeaf() {
		return n.Occ.Name
	}
	l := canon(n.Left, mut, jt)
	r := canon(n.Right, mut, jt)
	t := n.Type
	if n == mut {
		t = jt
	}
	switch t {
	case sqlparser.InnerJoin:
		if r < l {
			l, r = r, l
		}
		return "(" + l + "*" + r + ")"
	case sqlparser.LeftOuterJoin:
		return "(" + l + "=>" + r + ")"
	case sqlparser.RightOuterJoin:
		return "(" + r + "=>" + l + ")"
	default: // full outer
		if r < l {
			l, r = r, l
		}
		return "(" + l + "<=>" + r + ")"
	}
}

// sortedNames returns sorted occurrence names of a subtree, for display.
func sortedNames(n *qtree.Node) []string {
	var out []string
	for _, o := range n.Leaves(nil) {
		out = append(out, o.Name)
	}
	sort.Strings(out)
	return out
}
