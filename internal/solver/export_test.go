package solver

import (
	"slices"
	"sync/atomic"

	"repro/internal/sqltypes"
)

// SetOrderValuesOracle makes every orderValues call compare the order it
// chose with referenceOrderValues, and call mismatch with the
// candidates' input order and both orders whenever they differ. The
// returned remove uninstalls the check and reports how many calls were
// compared. Install and remove it only while no solves are in flight.
func SetOrderValuesOracle(mismatch func(v VarID, in, got, want []int64)) (remove func() (calls int64)) {
	var n atomic.Int64
	orderValuesCheck = func(st *kstate, v VarID, in, out []int64) {
		n.Add(1)
		want := append([]int64(nil), in...)
		referenceOrderValues(st, v, want)
		if !slices.Equal(out, want) {
			mismatch(v, in, out, want)
		}
	}
	return func() int64 {
		orderValuesCheck = nil
		return n.Load()
	}
}

// referenceOrderValues is the least-constraining-value order as
// orderValues computed it before it scored from bitmasks: every watched
// clause is evaluated for every candidate assigned in turn (keval ==
// False, which the deleted short-circuit kfalse computed).
func referenceOrderValues(st *kstate, v VarID, vals []int64) {
	if len(vals) < 2 {
		return
	}
	deg := int(st.degree[v])
	if deg == 0 || len(vals)*deg > lcvBudget {
		return
	}
	scores := make([]int, len(vals))
	st.assigned[v] = true
	for i, val := range vals {
		st.value[v] = val
		s := 0
		for _, ci := range st.watch[v] {
			if st.clauses[ci].keval(st) == sqltypes.False {
				s++
			}
		}
		scores[i] = s
	}
	st.assigned[v] = false
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
