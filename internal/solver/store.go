package solver

import (
	"math/bits"
	"slices"

	"repro/internal/sqltypes"
)

// This file implements the bitset domain store used by the kernel search
// path (unfolded mode) and the shared-core Base: the database
// constraints run through the kernel's front end exactly once, so that
// each of the O(joins x operators) kill goals starts from the propagated
// store (one memcopy of []uint64 words) instead of re-doing it.

// kstore is a packed bitset domain store over a fixed variable layout.
// Variable v's candidate values live in cand[v] (declaration order ==
// the caller's preference order); bit i of the words at off[v] is set
// iff cand[v][i] is still live. The cand/off layout is immutable and
// shared; only words is per-solve state.
type kstore struct {
	cand  [][]int64
	off   []int32
	words []uint64
}

// newKstoreLayoutInto builds the layout (cand/off and a fully-set words
// template) for a variable space, with the off/words backing recycled
// from an arena.
func newKstoreLayoutInto(a *Arena, domains [][]int64) kstore {
	ks := kstore{cand: domains, off: grow(a.off, len(domains)+1)}
	a.off = ks.off
	total := int32(0)
	for v, d := range domains {
		ks.off[v] = total
		total += int32((len(d) + 63) / 64)
	}
	ks.off[len(domains)] = total
	ks.words = grow(a.words, int(total))
	a.words = ks.words
	for v, d := range domains {
		fillWords(ks.words[ks.off[v]:ks.off[v+1]], len(d))
	}
	return ks
}

// fillWords sets the first n bits across the word span.
func fillWords(w []uint64, n int) {
	for i := range w {
		if n >= 64 {
			w[i] = ^uint64(0)
			n -= 64
		} else {
			w[i] = (uint64(1) << uint(n)) - 1
			n = 0
		}
	}
}

// kpin is a value pin extracted from a top-level var = const conjunct.
type kpin struct {
	v   VarID
	val int64
}

// Base is a pre-propagated shared constraint core over a variable
// layout: the front end's output (flattened, equality-preprocessed,
// compiled and fixed-point propagated) for the base constraints that
// every kill goal of a Generate run shares. Goals attach it via
// Solver.AttachBase and assert only their mutation-specific delta; the
// kernel then clones the propagated word store instead of repeating the
// front-end work. A Base is immutable after PrepareBase and safe for
// concurrent use by any number of solves.
type Base struct {
	store    kstore  // words hold the propagated fixed point
	count    []int32 // live candidates per variable at the fixed point
	uf       []VarID // union-find parents after base equality merges (flat)
	assigned []bool  // variables fixed by base propagation (singletons)
	value    []int64
	clauses  []kclause
	cvars    [][]VarID // variables per clause (deduped, rep ids)
	// watch holds the precomputed per-rep watch lists over the base
	// clauses, shrink-wrapped to exact capacity so attached solves can
	// share the slices: any append (delta clauses, merge folds)
	// reallocates instead of mutating them.
	watch [][]int32
	// propNodes is the number of watched-clause propagation visits the
	// fixed-point computation performed: the work each attached solve
	// reuses instead of recomputing.
	propNodes int64
	ncons     int
	unsat     bool
}

// PropagationNodes reports the fixed-point propagation work performed
// once in PrepareBase and reused by every attached solve.
func (b *Base) PropagationNodes() int64 { return b.propNodes }

// Unsat reports whether the base constraints alone are unsatisfiable
// (every attached solve is then immediately UNSAT).
func (b *Base) Unsat() bool { return b.unsat }

// PrepareBase runs s's own front end (see Solver.front) and stops
// before search (s itself has no base attached): the resulting fixed point — store, counts, derived
// assignments, compiled clauses and watch lists — is the Base that
// kernel (unfolded-mode) solves over the same layout start from. s's
// constraints must be a subset of what the caller would otherwise
// assert per goal; their count keeps ProblemSize consistent with the
// un-shared formulation.
func PrepareBase(s *Solver) *Base {
	b := &Base{ncons: len(s.cons)}
	// A throwaway arena: the Base keeps its buffers.
	a := &Arena{}
	err := s.front(a, nil)
	st := &a.st
	b.propNodes = st.propVisits
	if err != nil {
		// No base and no stop channel: only ErrUnsat ends it early.
		b.unsat = true
		return b
	}
	b.store = kstore{cand: st.cand, off: st.off, words: st.words}
	b.count = st.count
	b.uf = st.rep
	b.assigned = st.assigned
	b.value = st.value
	b.clauses = st.clauses
	b.cvars = st.cvars
	// Shrink-wrap the watch lists (len == cap) so attached solves can
	// alias them safely: their appends reallocate.
	b.watch = make([][]int32, len(st.watch))
	for v, w := range st.watch {
		if len(w) == 0 {
			continue
		}
		exact := make([]int32, len(w))
		copy(exact, w)
		b.watch[v] = exact
	}
	return b
}

// eqKind classifies a flattened conjunct for equality preprocessing.
type eqKind int

const (
	eqNone    eqKind = iota // not an exploitable equality: compile it
	eqTrivial               // constant-true: drop
	eqUnsat                 // constant-false: whole problem UNSAT
	eqPin                   // var = const
	eqMerge                 // var = var
)

// classifyEq inspects a flattened conjunct: a var=var equality (returned
// as the two vars), a var=const pin, trivially true/unsat, or neither.
func classifyEq(c Con, uf *varUF) (eq [2]VarID, pin kpin, kind eqKind) {
	cmp, ok := c.(*Cmp)
	if !ok || cmp.Op != sqltypes.OpEQ {
		return eq, pin, eqNone
	}
	var buf [4]Term
	d := eqDiff(cmp.L, cmp.R, &buf)
	switch {
	case len(d.Terms) == 0:
		if d.Const != 0 {
			return eq, pin, eqUnsat
		}
		return eq, pin, eqTrivial
	case len(d.Terms) == 1 && (d.Terms[0].Coef == 1 || d.Terms[0].Coef == -1):
		return eq, kpin{v: uf.find(d.Terms[0].V), val: -d.Const / d.Terms[0].Coef}, eqPin
	case len(d.Terms) == 2 && d.Const == 0 && d.Terms[0].Coef == -d.Terms[1].Coef &&
		(d.Terms[0].Coef == 1 || d.Terms[0].Coef == -1):
		return [2]VarID{uf.find(d.Terms[0].V), uf.find(d.Terms[1].V)}, pin, eqMerge
	}
	return eq, pin, eqNone
}

// eqDiff returns L.Minus(R) — terms sorted by variable, equal variables
// merged, zero coefficients dropped — built in buf when the terms fit,
// so classifying an equality conjunct (every conjunct of every solve
// goes through classifyEq) allocates nothing. The canonical form is
// unique, so it equals Minus's result term for term.
func eqDiff(L, R Lin, buf *[4]Term) Lin {
	if len(L.Terms)+len(R.Terms) > len(buf) {
		return L.Minus(R)
	}
	ts := append(buf[:0], L.Terms...)
	for _, t := range R.Terms {
		ts = append(ts, Term{Coef: -t.Coef, V: t.V})
	}
	for i := 1; i < len(ts); i++ {
		t := ts[i]
		j := i - 1
		for j >= 0 && ts[j].V > t.V {
			ts[j+1] = ts[j]
			j--
		}
		ts[j+1] = t
	}
	m := 0
	for i := 0; i < len(ts); {
		v := ts[i].V
		var sum int64
		for ; i < len(ts) && ts[i].V == v; i++ {
			sum += ts[i].Coef
		}
		if sum != 0 {
			ts[m] = Term{Coef: sum, V: v}
			m++
		}
	}
	out := Lin{Const: L.Const - R.Const}
	if m > 0 {
		out.Terms = ts[:m]
	}
	return out
}

// pinStore narrows v's candidate set to {val}; returns the new count.
func pinStore(ks *kstore, count []int32, v VarID, val int64) int32 {
	w := ks.words[ks.off[v]:ks.off[v+1]]
	cand := ks.cand[v]
	var kept int32
	for wi := range w {
		word := w[wi]
		var nw uint64
		for word != 0 {
			bit := uint(bits.TrailingZeros64(word))
			word &^= 1 << bit
			if cand[wi*64+int(bit)] == val {
				nw |= 1 << bit
				kept++
			}
		}
		w[wi] = nw
	}
	count[v] = kept
	return kept
}

// mergeStore unions a and b (already roots or not; find applied) and
// intersects the surviving candidate sets by value onto the new root.
// Returns the root's resulting count (0 = conflict). No-op when a == b.
// *live is the Arena's scratch for wide merges (see below), so a warm
// merge allocates nothing.
func mergeStore(ks *kstore, count []int32, uf *varUF, a, b VarID, live *[]int64) int32 {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return count[ra]
	}
	root := uf.union(ra, rb)
	other := ra
	if other == root {
		other = rb
	}
	// Keep only the root's candidates whose value survives in other.
	// Small surviving sets (the common case: per-attribute domains) go
	// through a stack-allocated array and linear membership scans; wide
	// ones are collected in the scratch slice, sorted, and searched by
	// bisection.
	ow := ks.words[ks.off[other]:ks.off[other+1]]
	ocand := ks.cand[other]
	var small [64]int64
	vals := small[:0]
	wide := int(count[other]) > len(small)
	if wide {
		*live = grow(*live, int(count[other]))
		vals = (*live)[:0]
	}
	for wi := range ow {
		word := ow[wi]
		for word != 0 {
			bit := uint(bits.TrailingZeros64(word))
			word &^= 1 << bit
			vals = append(vals, ocand[wi*64+int(bit)])
		}
	}
	if wide {
		slices.Sort(vals)
	}
	w := ks.words[ks.off[root]:ks.off[root+1]]
	cand := ks.cand[root]
	var kept int32
	for wi := range w {
		word := w[wi]
		var nw uint64
		for word != 0 {
			bit := uint(bits.TrailingZeros64(word))
			word &^= 1 << bit
			val := cand[wi*64+int(bit)]
			var live bool
			if wide {
				_, live = slices.BinarySearch(vals, val)
			} else {
				live = slices.Contains(vals, val)
			}
			if live {
				nw |= 1 << bit
				kept++
			}
		}
		w[wi] = nw
	}
	count[root] = kept
	return kept
}
