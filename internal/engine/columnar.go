package engine

import (
	"repro/internal/schema"
	"repro/internal/sqltypes"
)

// The columnar executor: compiled plans run over batches instead of
// row-at-a-time []sqltypes.Row materialization. A batch is virtual
// wherever possible — leaves reference the dataset's memoized columnar
// view (schema.Column vectors with NULL bitmaps) zero-copy, selections
// (leaf predicates and retained subqueries) and joins are index vectors
// over their children, and values are only read (never copied into new
// storage) until projection or aggregation consumes the root. On the
// kill-matrix workload batches are tiny (the paper's datasets are 1-4
// rows per table), so per-node materialization cost dominates
// everything; in the virtual representation a join node is two []int32,
// carved with the batch itself from its SharedCache's reusable storage,
// and a shared-cache hit costs nothing. Join output order is
// deterministic — each left row in order with its matches in right
// order (or its NULL padding), then the unmatched right rows — and the
// same with or without a SharedCache, so a run's Result never depends
// on its options.

type batchKind uint8

const (
	bLeaf   batchKind = iota // materialized columns (dataset storage)
	bFilter                  // src rows selected by idx
	bJoin                    // (left, right) pairs; -1 = outer-join NULL padding
)

// batch is a bag of rows in columnar layout, possibly virtual.
type batch struct {
	n    int
	kind batchKind

	// id is the batch's content id within its SharedCache: two batches
	// in the same cache have equal ids exactly when they hold identical
	// rows in identical order (see SharedCache.unify). 0 = not unified
	// (cache-less execution).
	id int32

	// bLeaf: column storage, shared with the dataset's view.
	cols []schema.Column

	// bFilter: row i is src row idx[i].
	src *batch
	idx []int32

	// bJoin: row i is left row lidx[i] concatenated with right row
	// ridx[i]; an index of -1 reads as NULL (outer-join padding).
	left, right *batch
	lw          int
	lidx, ridx  []int32

	// same chains the batches of one SharedCache whose content hashes
	// are equal (see SharedCache.unify).
	same *batch

	// mat is the lazily materialized value matrix (column-major, cell
	// (c, r) at index c*n+r), installed by materialize when the batch
	// is first served from a SharedCache — i.e. exactly when a second
	// plan is about to read it. A shared subtree batch is read by
	// every mutant of the family that rebuilds a node above it, so
	// flattening the virtual indirection once turns those thousands of
	// chain walks into array reads. Batches with a single consumer
	// never pay for it. The matrix is carved from the cache's value
	// slab; a batch is confined to its cache's goroutine, so the field
	// needs no synchronization.
	mat []sqltypes.Value
}

// value reads cell (col, row), resolving virtual indirection. The
// recursion depth is the plan's join depth; no allocation occurs.
func (b *batch) value(col, row int) sqltypes.Value {
	for {
		if b.mat != nil {
			return b.mat[col*b.n+row]
		}
		switch b.kind {
		case bLeaf:
			return b.cols[col].Value(row)
		case bFilter:
			row = int(b.idx[row])
		default: // bJoin
			if col < b.lw {
				j := b.lidx[row]
				if j < 0 {
					return sqltypes.Null()
				}
				b, row = b.left, int(j)
			} else {
				j := b.ridx[row]
				if j < 0 {
					return sqltypes.Null()
				}
				col -= b.lw
				b, row = b.right, int(j)
			}
			continue
		}
		b = b.src
	}
}

// matCells bounds the materialized matrix: batches beyond it stay
// virtual (the amortization argument weakens as batches grow, and the
// bound caps cache memory).
const matCells = 4096

// materialize flattens the batch into a column-major value matrix
// carved from sc's value slab, if it is non-empty, small enough and not
// flattened yet.
func (b *batch) materialize(sc *SharedCache) {
	w := b.width()
	if b.n == 0 || b.n*w > matCells || b.mat != nil {
		return
	}
	flat := sc.cells.alloc(w * b.n)
	for c := 0; c < w; c++ {
		for r := 0; r < b.n; r++ {
			flat[c*b.n+r] = b.value(c, r)
		}
	}
	b.mat = flat
}

// contentHash hashes the batch's structural content: kind, unified
// child ids, and index vectors. Because children are unified before
// their parents, structural identity implies row-for-row identity; the
// value storage itself is never read.
func (b *batch) contentHash() uint64 {
	h := sqltypes.HashSeed
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	mix(uint64(b.kind))
	switch b.kind {
	case bLeaf:
		mix(uint64(b.id)) // base scans are pre-unified; never rehashed
	case bFilter:
		mix(uint64(uint32(b.src.id)))
		for _, i := range b.idx {
			mix(uint64(uint32(i)))
		}
	default: // bJoin
		mix(uint64(uint32(b.left.id)))
		mix(uint64(uint32(b.right.id)))
		for _, i := range b.lidx {
			mix(uint64(uint32(i)))
		}
		mix(^uint64(0))
		for _, i := range b.ridx {
			mix(uint64(uint32(i)))
		}
	}
	return h
}

// contentEqual reports structural content identity with o. Children are
// compared by pointer: they are unified, so pointer identity and
// content identity coincide.
func (b *batch) contentEqual(o *batch) bool {
	if b == o {
		return true
	}
	if b.kind != o.kind || b.n != o.n {
		return false
	}
	switch b.kind {
	case bLeaf:
		return false // distinct base scans are distinct relations
	case bFilter:
		if b.src != o.src {
			return false
		}
		return int32SlicesEqual(b.idx, o.idx)
	default:
		if b.left != o.left || b.right != o.right {
			return false
		}
		return int32SlicesEqual(b.lidx, o.lidx) && int32SlicesEqual(b.ridx, o.ridx)
	}
}

func int32SlicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (b *batch) width() int {
	switch b.kind {
	case bLeaf:
		return len(b.cols)
	case bFilter:
		return b.src.width()
	default:
		return b.lw + b.right.width()
	}
}
