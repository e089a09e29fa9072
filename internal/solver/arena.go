package solver

// Arena recycles the kernel's per-solve allocations across solves. One
// Generate run performs O(kill goals x retry attempts) kernel solves
// over the same variable layout, and before the arena every one of them
// re-allocated the cloned word store, the counters, the compiled-clause
// slices, the watch table and the component scratch — the dominant
// allocation source of steady-state generation. An arena-equipped solve
// instead *resets* those buffers (length to zero or re-filled, capacity
// kept), so the steady state allocates only what escapes the solve: the
// returned model and the delta's freshly compiled clause nodes.
//
// An Arena is NOT safe for concurrent use: it must serve at most one
// solve at a time. Callers running goals on a worker pool keep a pool
// of arenas (one checked out per in-flight solve) instead of sharing
// one. The zero value is ready to use; an Arena is never "freed" —
// dropping all references releases it.
type Arena struct {
	// solveKernel front-end scratch.
	conjuncts []Con
	ufParent  []VarID
	off       []int32
	words     []uint64
	count     []int32
	assigned  []bool
	value     []int64
	rep       []VarID
	dirty     []VarID
	merges    [][2]VarID
	remaining []Con
	clauses   []kclause
	cvars     [][]VarID
	watch     [][]int32
	searchVs  []VarID
	kcsc      kcScratch
	// st is the recycled kstate shell: its embedded search scratch
	// (propagation queue, implied stack, per-depth value buffers, LCV
	// scores, canonical-key buffers, bounds memo, trail backing) is what
	// makes repeat solves allocation-free.
	st kstate
}

// grow returns s with length n, reusing capacity when possible. The
// contents are unspecified; callers must overwrite every element.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// reset prepares a recycled kstate shell for a new solve: the per-solve
// identity and budget fields are overwritten by the caller; here the
// scratch lengths are zeroed (capacity kept). The bounds memo is
// re-armed separately by ensureMemo.
func (st *kstate) reset() {
	st.tr.entries = st.tr.entries[:0]
	st.pq = st.pq[:0]
	st.impl = st.impl[:0]
	st.depth = 0
	st.nodes = 0
	st.ceil = 0
	st.checked = 0
	st.propVisits = 0
}
