package solver

import "repro/internal/sqltypes"

// slabChunk is the largest number of elements a slab chunk holds.
// Chunks start at 16 elements and double, so a small build wastes
// little.
const slabChunk = 256

// carve returns n fresh elements from slab, starting a new chunk when
// the current one is full. Chunks are appended to and replaced, never
// rewound, so a carved element stays valid (and its chunk alive) for as
// long as anything references it.
func carve[T any](slab *[]T, n int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(n, min(2*cap(s), slabChunk), 16))
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// Slab builds constraint nodes carved from shared chunks, so a caller
// building thousands of nodes — a layout's database constraints —
// allocates a chunk per slabChunk nodes instead of an object per node.
// The nodes are the ones NewCmp, NewAnd, NewOr, ForAll and Exists
// return; constraint trees are immutable once built, so nodes may share
// a chunk. The zero value is ready to use; a Slab is not safe for
// concurrent use.
type Slab struct {
	cmps   []Cmp
	ands   []And
	ors    []Or
	quants []Quant
	lists  []Con
}

// List returns a constraint list of length n, to be filled by index.
func (s *Slab) List(n int) []Con { return carve(&s.lists, n) }

// Cmp is NewCmp.
func (s *Slab) Cmp(op sqltypes.CmpOp, l, r Lin) *Cmp {
	c := &carve(&s.cmps, 1)[0]
	*c = Cmp{Op: op, L: l, R: r}
	return c
}

// And is NewAnd over cs.
func (s *Slab) And(cs []Con) *And {
	c := &carve(&s.ands, 1)[0]
	c.Cs = cs
	return c
}

// Or is NewOr over cs.
func (s *Slab) Or(cs []Con) *Or {
	c := &carve(&s.ors, 1)[0]
	c.Cs = cs
	return c
}

// ForAll is ForAll over bodies.
func (s *Slab) ForAll(bodies []Con) *Quant {
	c := &carve(&s.quants, 1)[0]
	*c = Quant{All: true, Bodies: bodies}
	return c
}

// Exists is Exists over bodies.
func (s *Slab) Exists(bodies []Con) *Quant {
	c := &carve(&s.quants, 1)[0]
	*c = Quant{Bodies: bodies}
	return c
}
