package solver

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
// Scoring costs |watch(v)| evaluations per candidate, so it is skipped
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

// orderValues reorders vals (the live candidates of v, preference
// order) by least-constraining-value score when affordable.
func (st *kstate) orderValues(v VarID, vals []int64) {
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
	st.assigned[v] = true
	for i, val := range vals {
		st.value[v] = val
		s := 0
		for _, ci := range st.watch[v] {
			if st.clauses[ci].kfalse(st) {
				s++
			}
		}
		scores[i] = s
	}
	st.assigned[v] = false
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
