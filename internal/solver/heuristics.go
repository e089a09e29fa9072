package solver

import (
	"math/bits"

	"repro/internal/sqltypes"
)

// Variable and value ordering heuristics for the bitset kernel.
//
// Variable order: MRV (minimum remaining values) with ties broken by
// higher degree (number of live clauses watching the variable — the
// classic dom+deg refinement: among equally-constrained variables,
// prefer the one that constrains the most of the remaining problem),
// then by position in the search-variable list. That list is in
// canonical order (for component solves: first appearance in the
// component's clause walk), which makes the whole search a pure
// function of the component's canonical form — the property the
// component cache relies on for byte-deterministic replays.
//
// Value order: least-constraining value — candidates are scored by how
// many watched clauses they would immediately falsify, and stably
// sorted ascending so the preference order is preserved among ties.
// Assigning v one of its live values only narrows the bounds a clause
// is evaluated over, so a clause already True or False with v unassigned
// stays so for every candidate and adds the same amount to every score;
// only the clauses still Unknown can separate candidates. Each of those
// is evaluated once (kfalseMask): a comparison's bounds are split into
// v's coefficient and the other terms' bounds, so each candidate's
// verdict is one bounds check, and the verdicts are combined up the
// clause tree as bitmasks over the candidates. This returns the order
// scoring every watched clause for every candidate would. It is skipped
// when count(v) x degree(v) exceeds lcvBudget (large products mean the
// scan would dominate the node it is trying to save).

// lcvBudget bounds count(v) x degree(v) for least-constraining-value
// scoring.
const lcvBudget = 2048

// pickVar selects the next unassigned variable from vars by
// MRV + degree, or -1 when all are assigned.
func (st *kstate) pickVar(vars []VarID) VarID {
	best := VarID(-1)
	var bestCount, bestDeg int32
	for _, v := range vars {
		if st.assigned[v] {
			continue
		}
		c, d := st.count[v], st.degree[v]
		if best < 0 || c < bestCount || (c == bestCount && d > bestDeg) {
			best, bestCount, bestDeg = v, c, d
		}
	}
	return best
}

// orderValuesCheck, when set, is called after every orderValues with
// the candidates in their input order and in the order chosen. Only
// tests set it (see export_test.go), to compare the order with a
// full-scan reference.
var orderValuesCheck func(st *kstate, v VarID, in, out []int64)

// orderValues reorders vals (the live candidates of v, preference
// order) by least-constraining-value score when affordable.
func (st *kstate) orderValues(v VarID, vals []int64) {
	if orderValuesCheck != nil {
		in := append([]int64(nil), vals...)
		st.lcvOrder(v, vals)
		orderValuesCheck(st, v, in, vals)
		return
	}
	st.lcvOrder(v, vals)
}

// lcvOrder is orderValues without the test check.
func (st *kstate) lcvOrder(v VarID, vals []int64) {
	if len(vals) < 2 {
		return
	}
	deg := int(st.degree[v])
	if deg == 0 || len(vals)*deg > lcvBudget {
		return
	}
	if cap(st.valueScores) < len(vals) {
		st.valueScores = make([]int, len(vals))
	}
	scores := st.valueScores[:len(vals)]
	clear(scores)
	nw := (len(vals) + 63) / 64
	mask := st.lcvMask(0, nw)
	scored := false
	for _, ci := range st.watch[v] {
		if st.clauses[ci].kfalseMask(st, v, vals, mask, 0) != sqltypes.Unknown {
			continue
		}
		for w, word := range mask {
			for word != 0 {
				i := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if i < len(vals) {
					scores[i]++
					scored = true
				}
			}
		}
	}
	if !scored {
		return // every score equal: preference order stands
	}
	// Stable insertion sort (strict > comparison): equal scores keep
	// preference order; no allocation (vals is small — lcvBudget bounds
	// count x degree).
	for i := 1; i < len(vals); i++ {
		s, val := scores[i], vals[i]
		j := i
		for j > 0 && scores[j-1] > s {
			scores[j], vals[j] = scores[j-1], vals[j-1]
			j--
		}
		scores[j], vals[j] = s, val
	}
}

// lcvMask returns the candidate bitmask of clause-tree depth depth, nw
// words long, from st.lcvMasks.
func (st *kstate) lcvMask(depth, nw int) []uint64 {
	if need := (depth + 1) * nw; len(st.lcvMasks) < need {
		st.lcvMasks = append(st.lcvMasks, make([]uint64, need-len(st.lcvMasks))...)
	}
	return st.lcvMasks[depth*nw : (depth+1)*nw]
}

func (c *kCmp) kfalseMask(st *kstate, v VarID, vals []int64, dst []uint64, _ int) sqltypes.Tristate {
	// klinBounds with v's terms kept apart: cv is v's summed
	// coefficient, [vlo, vhi] their independent bounds while v is
	// unassigned, [olo, ohi] the other terms' bounds. Integer sums wrap
	// the same in any order, so olo+vlo is exactly klinBounds' lo.
	olo, ohi := c.diff.Const, c.diff.Const
	var vlo, vhi, cv int64
	onV := false
	for _, t := range c.diff.Terms {
		r := st.rep[t.V]
		var tlo, thi int64
		if st.assigned[r] {
			tlo = t.Coef * st.value[r]
			thi = tlo
		} else {
			dmin, dmax := st.liveMinMax(r)
			if t.Coef >= 0 {
				tlo, thi = t.Coef*dmin, t.Coef*dmax
			} else {
				tlo, thi = t.Coef*dmax, t.Coef*dmin
			}
		}
		if r == v {
			onV = true
			cv += t.Coef
			vlo += tlo
			vhi += thi
		} else {
			olo += tlo
			ohi += thi
		}
	}
	status := evalCmpBounds(c.op, olo+vlo, ohi+vhi)
	clear(dst)
	if status != sqltypes.Unknown || !onV {
		return status
	}
	for i, val := range vals {
		x := cv * val
		if evalCmpBounds(c.op, olo+x, ohi+x) == sqltypes.False {
			dst[i>>6] |= 1 << uint(i&63)
		}
	}
	return status
}

func (c *kNary) kfalseMask(st *kstate, v VarID, vals []int64, dst []uint64, depth int) sqltypes.Tristate {
	child := st.lcvMask(depth+1, len(dst))
	if c.conj {
		// False once any child is: OR of the Unknown children's masks.
		out := sqltypes.True
		clear(dst)
		for _, ch := range c.children {
			switch ch.kfalseMask(st, v, vals, child, depth+1) {
			case sqltypes.False:
				return sqltypes.False
			case sqltypes.Unknown:
				out = sqltypes.Unknown
				for w := range dst {
					dst[w] |= child[w]
				}
			}
		}
		return out
	}
	// False once every child is: AND of the Unknown children's masks
	// (a False child is False for every candidate).
	out := sqltypes.False
	for w := range dst {
		dst[w] = ^uint64(0)
	}
	for _, ch := range c.children {
		switch ch.kfalseMask(st, v, vals, child, depth+1) {
		case sqltypes.True:
			return sqltypes.True
		case sqltypes.Unknown:
			out = sqltypes.Unknown
			for w := range dst {
				dst[w] &= child[w]
			}
		}
	}
	return out
}
