package solver

import (
	"errors"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/sqltypes"
)

// This file is the bitset search kernel, the unfolded solve path: packed
// uint64-word domain stores with a word-granular copy-on-write trail,
// precompiled shared-base clauses (see store.go), MRV + degree variable
// ordering and least-constraining-value ordering (heuristics.go), and
// connected-component decomposition with memoization (components.go).
// The list kernel in search.go is quantified mode's ground solver and
// the metamorphic-testing oracle.

// kclause is a compiled constraint for the kernel. Clauses are compiled
// once (for the shared base: once per Generate) and evaluated through
// the per-solve rep indirection, so union-find merges performed by a
// goal's delta never require recompiling base clauses.
type kclause interface {
	keval(st *kstate) sqltypes.Tristate
	// kprune narrows bitset domains of unassigned variables where
	// possible, recording overwritten words on the trail. It reports
	// conflict when a domain empties.
	kprune(st *kstate) (conflict bool)
	// kfalseMask returns keval for the unassigned variable v and, when
	// that is Unknown, sets in dst bit i for each candidate vals[i] that
	// makes the clause False once assigned to v (otherwise dst is
	// cleared or left unspecified). depth indexes the bitmask scratch
	// of nested clauses (see orderValues).
	kfalseMask(st *kstate, v VarID, vals []int64, dst []uint64, depth int) sqltypes.Tristate
}

// ktrail is the copy-on-write backtracking trail: each entry is one
// overwritten 64-candidate word, not a full domain copy. Undo restores
// words in reverse and fixes cardinality counters by popcount diff.
type ktrail struct {
	entries []ktrailEntry
}

type ktrailEntry struct {
	v   VarID  // owning variable (for implied-singleton detection)
	wi  int32  // global word index into kstate.words
	old uint64 // overwritten word
}

func (t *ktrail) save(v VarID, wi int32, old uint64) {
	t.entries = append(t.entries, ktrailEntry{v: v, wi: wi, old: old})
}

func (t *ktrail) mark() int { return len(t.entries) }

// kstate is the kernel's search state.
type kstate struct {
	// Immutable layout (shared with the base / other goals).
	cand [][]int64
	off  []int32
	rep  []VarID
	// Mutable per-solve state.
	words    []uint64
	count    []int32
	assigned []bool
	value    []int64
	tr       ktrail
	// Compiled constraint system.
	clauses []kclause
	cvars   [][]VarID
	watch   [][]int32
	// ownWatch backs watch for solves without a shared base (see
	// buildWatch); kept separate so recycling its per-variable lists can
	// never append into slices aliasing a shared Base's watch table.
	ownWatch [][]int32
	degree   []int32
	// Domain-bounds memo: klinBounds calls liveMinMax for every
	// unassigned term of every clause evaluation, and clause evaluations
	// repeat over unchanged domains constantly (LCV scoring evaluates a
	// clause once per candidate while only the scored variable's
	// *assignment* changes). dver[v] is v's domain version, bumped on
	// every word write (prune or undo); bver/bmin/bmax hold the extremes
	// computed at that version (bver 0 = never; dver starts at 1).
	dver []uint64
	bver []uint64
	bmin []int64
	bmax []int64
	// Reusable search scratch (per-solve, never escapes): pq is
	// kpropagate's BFS queue; impl is the implied-assignment stack
	// (callers record their mark and pop back to it after recursion);
	// vbufs holds one candidate-value buffer per dfs depth; valueScores
	// backs orderValues' stable insertion sort and lcvMasks its
	// per-depth candidate bitmasks.
	pq          []VarID
	impl        []VarID
	vbufs       [][]int64
	depth       int
	valueScores []int
	lcvMasks    []uint64
	// Canonical-key scratch (components.go): lidOf maps representative
	// -> local id for the component being encoded; keyBuf/keyTerms back
	// the encoding.
	lidOf    []int32
	keyBuf   []byte
	keyTerms []keyTerm
	// Component scratch (components.go): the decomposition's union-find
	// parents, live-clause list, component table and marking arrays,
	// recycled across solves by the arena.
	cufParent []VarID
	liveCl    []int32
	comps     []kcomp
	compOf    []int32
	stamp     []int32
	cmark     []int32
	// Budgets.
	nodes      int64
	ceil       int64 // current (restart-attempt) node ceiling
	limit      int64 // global node budget
	checked    int64
	propVisits int64
	done       <-chan struct{}
}

func (st *kstate) undoTo(mark int) {
	for i := len(st.tr.entries) - 1; i >= mark; i-- {
		e := st.tr.entries[i]
		cur := st.words[e.wi]
		st.count[e.v] += int32(bits.OnesCount64(e.old) - bits.OnesCount64(cur))
		st.words[e.wi] = e.old
		st.dver[e.v]++
	}
	st.tr.entries = st.tr.entries[:mark]
}

// kbudget is the per-search-node accounting (mirrors state.budget).
func (st *kstate) kbudget() error {
	st.nodes++
	if st.nodes > st.ceil {
		return ErrLimit
	}
	return st.ktick()
}

// ktick mirrors state.tick: every watched-clause visit and every search
// node advances the counter so the stop check cannot be starved by long
// propagation chains.
func (st *kstate) ktick() error {
	st.checked++
	if st.checked%1024 == 0 && canceled(st.done) {
		return ErrCanceled
	}
	return nil
}

func (st *kstate) assign(v VarID, val int64) {
	st.assigned[v] = true
	st.value[v] = val
}

// firstLive returns the first surviving candidate of v in declaration
// (preference) order.
func (st *kstate) firstLive(v VarID) int64 {
	w := st.words[st.off[v]:st.off[v+1]]
	for wi, word := range w {
		if word != 0 {
			return st.cand[v][wi*64+bits.TrailingZeros64(word)]
		}
	}
	return 0 // empty domain: callers only ask post-SAT
}

// liveValues extracts the surviving candidates of v in preference order.
func (st *kstate) liveValues(v VarID, dst []int64) []int64 {
	w := st.words[st.off[v]:st.off[v+1]]
	cand := st.cand[v]
	for wi, word := range w {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			dst = append(dst, cand[wi*64+bit])
		}
	}
	return dst
}

// liveMinMax returns the extremes of v's surviving candidates, memoized
// per domain version (see kstate.dver).
func (st *kstate) liveMinMax(v VarID) (int64, int64) {
	if st.bver[v] == st.dver[v] {
		return st.bmin[v], st.bmax[v]
	}
	w := st.words[st.off[v]:st.off[v+1]]
	cand := st.cand[v]
	first := true
	var mn, mx int64
	for wi, word := range w {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			val := cand[wi*64+bit]
			if first {
				mn, mx = val, val
				first = false
			} else {
				if val < mn {
					mn = val
				}
				if val > mx {
					mx = val
				}
			}
		}
	}
	st.bver[v] = st.dver[v]
	st.bmin[v], st.bmax[v] = mn, mx
	return mn, mx
}

// klinBounds computes [lo, hi] for a linear expression under the current
// partial assignment, resolving variables through rep indirection.
// Distinct terms mapping to the same (merged) unassigned rep are bounded
// independently — a sound over-approximation that becomes exact once the
// rep is assigned.
func (st *kstate) klinBounds(l Lin) (int64, int64) {
	lo, hi := l.Const, l.Const
	for _, t := range l.Terms {
		r := st.rep[t.V]
		if st.assigned[r] {
			v := t.Coef * st.value[r]
			lo += v
			hi += v
			continue
		}
		dmin, dmax := st.liveMinMax(r)
		if t.Coef >= 0 {
			lo += t.Coef * dmin
			hi += t.Coef * dmax
		} else {
			lo += t.Coef * dmax
			hi += t.Coef * dmin
		}
	}
	return lo, hi
}

// --- compiled clause implementations ------------------------------------

type kCmp struct {
	op   sqltypes.CmpOp
	diff Lin // L - R, precompiled, variables pre-substituted to reps
}

func (c *kCmp) keval(st *kstate) sqltypes.Tristate {
	lo, hi := st.klinBounds(c.diff)
	return evalCmpBounds(c.op, lo, hi)
}

func (c *kCmp) kprune(st *kstate) bool {
	// Unit filtering: with exactly one unassigned rep the comparison is
	// exact per candidate value. Terms merged onto the same rep
	// accumulate their coefficients (merged x - y cancels to zero).
	var free VarID = -1
	var coef int64
	rest := c.diff.Const
	for _, t := range c.diff.Terms {
		r := st.rep[t.V]
		if st.assigned[r] {
			rest += t.Coef * st.value[r]
			continue
		}
		switch {
		case free < 0:
			free, coef = r, t.Coef
		case free == r:
			coef += t.Coef
		default:
			return false // two distinct free reps: only bounds apply
		}
	}
	if free < 0 || coef == 0 {
		return false // fully decided (or cancelled): keval handles it
	}
	off := st.off[free]
	w := st.words[off:st.off[free+1]]
	cand := st.cand[free]
	var removed int32
	for wi := range w {
		word := w[wi]
		if word == 0 {
			continue
		}
		nw := word
		iter := word
		for iter != 0 {
			bit := bits.TrailingZeros64(iter)
			iter &^= 1 << uint(bit)
			d := rest + coef*cand[wi*64+bit]
			sign := 0
			if d < 0 {
				sign = -1
			} else if d > 0 {
				sign = 1
			}
			if !c.op.HoldsSign(sign) {
				nw &^= 1 << uint(bit)
			}
		}
		if nw != word {
			st.tr.save(free, off+int32(wi), word)
			st.words[off+int32(wi)] = nw
			removed += int32(bits.OnesCount64(word) - bits.OnesCount64(nw))
			st.dver[free]++
		}
	}
	if removed > 0 {
		st.count[free] -= removed
	}
	return st.count[free] == 0
}

type kNary struct {
	conj     bool
	children []kclause
}

func (c *kNary) keval(st *kstate) sqltypes.Tristate {
	out := sqltypes.True
	if !c.conj {
		out = sqltypes.False
	}
	for _, ch := range c.children {
		t := ch.keval(st)
		if c.conj {
			out = out.And(t)
			if out == sqltypes.False {
				return sqltypes.False
			}
		} else {
			out = out.Or(t)
			if out == sqltypes.True {
				return sqltypes.True
			}
		}
	}
	return out
}

func (c *kNary) kprune(st *kstate) bool {
	if c.conj {
		for _, ch := range c.children {
			if ch.kprune(st) {
				return true
			}
		}
		return false
	}
	// Disjunction: unit propagation when all but one child is False.
	var unit kclause
	for _, ch := range c.children {
		switch ch.keval(st) {
		case sqltypes.True:
			return false // satisfied
		case sqltypes.False:
			continue
		default:
			if unit != nil {
				return false // two live children: nothing to propagate
			}
			unit = ch
		}
	}
	if unit == nil {
		return true // all children false: conflict
	}
	return unit.kprune(st)
}

// kcScratch holds kcompile's reusable buffers. The fused
// diff-substitute-normalize in klinDiff and the scratch-accumulated
// variable list reduce one compiled comparison from ~six heap objects
// (Minus/Times/normalize/subLinRep temporaries) to what outlives the
// compile: the clause nodes, their Terms and child slices, and the
// clause's variable list. Those are carved from slabs (see carve), so
// compiling a prepared base's database-constraint core — thousands of
// nodes — allocates a chunk per slabChunk nodes instead of one object
// per node.
type kcScratch struct {
	terms []Term
	vars  []VarID
	// Slabs the compiled nodes are carved from.
	cmps     []kCmp
	nary     []kNary
	children []kclause
	termSlab []Term
	varSlab  []VarID
}

// kcompile compiles a flattened constraint, substituting variables with
// their representatives, and returns the clause with its (sorted,
// deduplicated) variable list. sc is scratch reused across calls; the
// returned clause and vars are freshly allocated and do not alias it.
func kcompile(c Con, rep []VarID, sc *kcScratch) (kclause, []VarID) {
	sc.vars = sc.vars[:0]
	var walk func(c Con) kclause
	walk = func(c Con) kclause {
		switch n := c.(type) {
		case *Cmp:
			d := klinDiff(n.L, n.R, rep, sc)
			for _, t := range d.Terms {
				sc.vars = append(sc.vars, t.V)
			}
			c := &carve(&sc.cmps, 1)[0]
			*c = kCmp{op: n.Op, diff: d}
			return c
		case *And:
			out := carve(&sc.children, len(n.Cs))
			for i, x := range n.Cs {
				out[i] = walk(x)
			}
			c := &carve(&sc.nary, 1)[0]
			*c = kNary{conj: true, children: out}
			return c
		case *Or:
			out := carve(&sc.children, len(n.Cs))
			for i, x := range n.Cs {
				out[i] = walk(x)
			}
			c := &carve(&sc.nary, 1)[0]
			*c = kNary{conj: false, children: out}
			return c
		default:
			panic("solver: kcompile expects flattened constraints")
		}
	}
	cl := walk(c)
	slices.Sort(sc.vars)
	deduped := dedupeVars(sc.vars)
	vars := carve(&sc.varSlab, len(deduped))
	copy(vars, deduped)
	return cl, vars
}

// klinDiff computes normalize(substitute(L-R, rep)) — the canonical
// rep-substituted difference of two linear expressions — without the
// intermediate Lin values of the Minus/subLinRep chain. Substitution
// commutes with canonicalization (renaming only merges more terms, and
// per-variable coefficient sums are preserved either way), so fusing
// the passes yields the identical Lin. Only the final exact-size Terms
// slice is allocated; everything else lives in sc.
func klinDiff(L, R Lin, rep []VarID, sc *kcScratch) Lin {
	buf := sc.terms[:0]
	for _, t := range L.Terms {
		buf = append(buf, Term{Coef: t.Coef, V: rep[t.V]})
	}
	for _, t := range R.Terms {
		buf = append(buf, Term{Coef: -t.Coef, V: rep[t.V]})
	}
	sc.terms = buf
	// Insertion sort by variable id: expressions are tiny (join and
	// comparison conditions, one to three terms).
	for i := 1; i < len(buf); i++ {
		t := buf[i]
		j := i - 1
		for j >= 0 && buf[j].V > t.V {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = t
	}
	// Merge equal-variable runs, dropping zero coefficient sums.
	m := 0
	for i := 0; i < len(buf); {
		v := buf[i].V
		var sum int64
		for ; i < len(buf) && buf[i].V == v; i++ {
			sum += buf[i].Coef
		}
		if sum != 0 {
			buf[m] = Term{Coef: sum, V: v}
			m++
		}
	}
	out := Lin{Const: L.Const - R.Const}
	if m > 0 {
		out.Terms = carve(&sc.termSlab, m)
		copy(out.Terms, buf[:m])
	}
	return out
}

func dedupeVars(vars []VarID) []VarID {
	out := vars[:0]
	for i, v := range vars {
		if i == 0 || v != vars[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// buildWatch constructs watch lists (clause indices per rep variable)
// from st.cvars. The lists live in ownWatch, a buffer only ever filled
// by this method, so a recycled kstate can reuse both the outer table
// and the per-variable backing arrays; the shared-base path installs
// its own (alias-bearing) table directly into st.watch instead and
// never goes through here.
func (st *kstate) buildWatch() {
	st.ensureMemo()
	st.ownWatch = grow(st.ownWatch, len(st.rep))
	for i := range st.ownWatch {
		st.ownWatch[i] = st.ownWatch[i][:0]
	}
	st.watch = st.ownWatch
	st.appendWatch(0)
}

// ensureMemo (re)initializes the domain-version bounds memo (see
// kstate.dver), reusing recycled backing arrays when present.
func (st *kstate) ensureMemo() {
	n := len(st.count)
	st.dver = grow(st.dver, n)
	st.bver = grow(st.bver, n)
	for i := range st.dver {
		st.dver[i] = 1 // bver zero value means "never computed"
		st.bver[i] = 0
	}
	st.bmin = grow(st.bmin, n)
	st.bmax = grow(st.bmax, n)
}

// appendWatch adds clauses[first:] to the watch lists. Appending to a
// full-capacity shared slice (a base watch list) reallocates, so shared
// lists are never mutated in place.
func (st *kstate) appendWatch(first int) {
	for ci := first; ci < len(st.cvars); ci++ {
		for _, v := range st.cvars[ci] {
			r := st.rep[v]
			w := st.watch[r]
			if len(w) > 0 && w[len(w)-1] == int32(ci) {
				continue // merged duplicates within one clause
			}
			st.watch[r] = append(w, int32(ci))
		}
	}
}

// setupPropagate establishes the solve's starting fixed point: clauses
// from firstDelta on are pruned once (when a shared base is attached
// only the goal's delta clauses need the initial pass — the base store
// is already at its fixed point), unassigned singleton domains are
// assigned, and changed-variable propagation runs to quiescence. dirty
// seeds the worklist with variables whose domains were narrowed during
// equality preprocessing (delta pins and merges).
func (st *kstate) setupPropagate(firstDelta int, dirty []VarID) (bool, error) {
	for ci := firstDelta; ci < len(st.clauses); ci++ {
		st.propVisits++
		if err := st.ktick(); err != nil {
			return false, err
		}
		before := st.tr.mark()
		cl := st.clauses[ci]
		if cl.keval(st) == sqltypes.False || cl.kprune(st) {
			return true, nil
		}
		for _, e := range st.tr.entries[before:] {
			dirty = append(dirty, e.v)
		}
	}
	for v := range st.rep {
		if st.rep[v] == VarID(v) && !st.assigned[v] && st.count[v] == 1 {
			st.assign(VarID(v), st.firstLive(VarID(v)))
			dirty = append(dirty, VarID(v))
		}
	}
	return st.drainChanged(dirty)
}

// drainChanged runs changed-variable propagation to a fixed point:
// every clause watching a changed variable is re-evaluated and
// re-pruned; domains narrowed to singletons trigger assignments. Only
// used during setup — search-time propagation (kpropagate) uses the
// lighter assigned-variable discipline matching the list kernel.
func (st *kstate) drainChanged(queue []VarID) (bool, error) {
	for len(queue) > 0 {
		cur := st.rep[queue[0]]
		queue = queue[1:]
		for _, ci := range st.watch[cur] {
			st.propVisits++
			if err := st.ktick(); err != nil {
				return false, err
			}
			cl := st.clauses[ci]
			if cl.keval(st) == sqltypes.False {
				return true, nil
			}
			before := st.tr.mark()
			if cl.kprune(st) {
				return true, nil
			}
			for _, e := range st.tr.entries[before:] {
				if !st.assigned[e.v] && st.count[e.v] == 1 {
					st.assign(e.v, st.firstLive(e.v))
				}
				queue = append(queue, e.v)
			}
		}
	}
	return false, nil
}

// kpropagate assigns v=val and runs the search-time propagation loop:
// watched clauses are evaluated and pruned; singleton domains trigger
// implied assignments which propagate in turn. Each watched-clause
// visit ticks the stop-check throttle.
func (st *kstate) kpropagate(v VarID, val int64, implied *[]VarID) (bool, error) {
	st.assign(v, val)
	st.pq = append(st.pq[:0], v)
	for head := 0; head < len(st.pq); head++ {
		cur := st.pq[head]
		for _, ci := range st.watch[cur] {
			st.propVisits++
			if err := st.ktick(); err != nil {
				return false, err
			}
			cl := st.clauses[ci]
			if cl.keval(st) == sqltypes.False {
				return true, nil
			}
			before := st.tr.mark()
			if cl.kprune(st) {
				return true, nil
			}
			for _, e := range st.tr.entries[before:] {
				if !st.assigned[e.v] && st.count[e.v] == 1 {
					st.assign(e.v, st.firstLive(e.v))
					*implied = append(*implied, e.v)
					st.pq = append(st.pq, e.v)
				}
			}
		}
	}
	return false, nil
}

// dfs is the kernel's chronological backtracking search over vars.
// shuffle is nil on the first restart attempt (preference value order +
// LCV) and a per-attempt rng afterwards.
func (st *kstate) dfs(vars []VarID, shuffle *rand.Rand) (bool, error) {
	if err := st.kbudget(); err != nil {
		return false, err
	}
	best := st.pickVar(vars)
	if best < 0 {
		// Full assignment over vars: propagation evaluated every clause
		// exactly as its last variable was assigned, so no clause in
		// this (sub)problem can be violated here.
		return true, nil
	}
	// Per-depth value buffer: the loop below iterates vals across the
	// recursive calls, which use deeper buffers only.
	if st.depth >= len(st.vbufs) {
		st.vbufs = append(st.vbufs, make([]int64, 0, st.count[best]))
	}
	depth := st.depth
	st.depth++
	defer func() { st.depth = depth }()
	vals := st.liveValues(best, st.vbufs[depth][:0])
	st.vbufs[depth] = vals[:0]
	if shuffle != nil {
		shuffle.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	} else {
		st.orderValues(best, vals)
	}
	for _, val := range vals {
		mark := st.tr.mark()
		imark := len(st.impl)
		conflict, perr := st.kpropagate(best, val, &st.impl)
		if perr == nil && !conflict {
			ok, err := st.dfs(vars, shuffle)
			if err != nil {
				perr = err
			}
			if ok {
				return true, nil
			}
		}
		for _, iv := range st.impl[imark:] {
			st.assigned[iv] = false
		}
		st.impl = st.impl[:imark]
		st.assigned[best] = false
		st.undoTo(mark)
		if perr != nil {
			return false, perr
		}
	}
	return false, nil
}

// searchVars solves the subproblem spanned by vars (already restricted
// to unassigned representatives) with the restart ladder: doubling node
// budgets, preference order on the first attempt, deterministic
// per-attempt shuffles afterwards. On SAT the assignments are left in
// place; on exhaustion it returns ErrUnsat.
func (st *kstate) searchVars(vars []VarID) error {
	if len(vars) == 0 {
		return nil
	}
	mark0 := st.tr.mark()
	restartBudget := int64(4096)
	var rng *rand.Rand
	for attempt := 0; ; attempt++ {
		if canceled(st.done) {
			return ErrCanceled
		}
		var shuffle *rand.Rand
		if attempt > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(0x9e3779b9))
			}
			shuffle = rng
		}
		st.ceil = st.nodes + restartBudget
		if st.ceil > st.limit {
			st.ceil = st.limit
		}
		found, err := st.dfs(vars, shuffle)
		switch {
		case err == nil && found:
			return nil
		case err == nil:
			return ErrUnsat // search space exhausted
		case errors.Is(err, ErrLimit) && st.nodes < st.limit:
			// Attempt budget exhausted but global budget remains:
			// restart with a shuffled value order and a doubled budget.
			st.undoTo(mark0)
			for _, v := range vars {
				st.assigned[v] = false
			}
			restartBudget *= 2
		default:
			return err
		}
	}
}

// solveKernel is the kernel solve entry point: the front end, then
// component decomposition and search.
func (s *Solver) solveKernel(done <-chan struct{}, limit int64, opts Options) (Model, error) {
	// Per-solve buffers come from the arena when one is attached; a
	// fresh throwaway arena otherwise keeps the two paths identical.
	a := opts.Arena
	if a == nil {
		a = &Arena{}
	}
	if err := s.front(a, done); err != nil {
		return nil, err
	}
	st := &a.st
	st.limit = limit
	err := s.solveComponents(st, opts.Cache)
	s.last.Nodes += st.nodes
	if err != nil {
		return nil, err
	}
	m := make([]int64, len(s.domains))
	for v := range m {
		r := st.rep[v]
		if st.assigned[r] {
			m[v] = st.value[r]
		} else {
			m[v] = st.firstLive(r)
		}
	}
	return Model(m), nil
}

// front is the kernel's front end, shared by every solve and by
// PrepareBase: it flattens and splits the asserted constraints, starts
// from the attached base's fixed point (one memcopy of the word store)
// or a fresh store, merges and pins top-level equalities, compiles the
// rest, builds watch lists and propagates to a fixed point. It leaves
// the search state, ready for decomposition, in a.st, or returns
// ErrUnsat / ErrCanceled; a.st.propVisits counts the setup propagation
// either way. done may be nil (never stopped).
func (s *Solver) front(a *Arena, done <-chan struct{}) error {
	st := &a.st
	st.reset()
	b := s.base
	if b != nil && b.unsat {
		return ErrUnsat
	}
	nvars := len(s.domains)

	// Flatten quantifiers and split top-level conjunctions.
	conjuncts := a.conjuncts[:0]
	for _, c := range s.cons {
		conjuncts = appendConjuncts(conjuncts, flatten(c))
	}
	a.conjuncts = conjuncts

	// Starting point: the base's propagated fixed point (one memcopy of
	// the word store) or a fresh store.
	uf := &varUF{parent: grow(a.ufParent, nvars)}
	a.ufParent = uf.parent
	for i := range uf.parent {
		uf.parent[i] = VarID(i)
	}
	var ks kstore
	var count []int32
	var assigned []bool
	var value []int64
	firstDelta := 0
	var clauses []kclause
	var cvars [][]VarID
	if b != nil {
		copy(uf.parent, b.uf)
		a.words = append(a.words[:0], b.store.words...)
		ks = kstore{cand: b.store.cand, off: b.store.off, words: a.words}
		count = append(a.count[:0], b.count...)
		assigned = append(a.assigned[:0], b.assigned...)
		value = append(a.value[:0], b.value...)
		firstDelta = len(b.clauses)
		clauses = append(a.clauses[:0], b.clauses...)
		cvars = append(a.cvars[:0], b.cvars...)
	} else {
		ks = newKstoreLayoutInto(a, s.domains)
		count = grow(a.count, nvars)
		for v := range s.domains {
			count[v] = int32(len(s.domains[v]))
		}
		assigned = grow(a.assigned, nvars)
		value = grow(a.value, nvars)
		for v := 0; v < nvars; v++ {
			assigned[v] = false
			value[v] = 0
		}
		clauses = a.clauses[:0]
		cvars = a.cvars[:0]
	}
	a.count, a.assigned, a.value = count, assigned, value

	// Equality preprocessing: var = var conjuncts merge via union-find
	// (intersecting candidate sets by value), var = const conjuncts pin.
	// On top of a base, the roots they touch seed the setup worklist and
	// merges records (winner, loser) root pairs so the base's watch
	// lists can be folded onto the surviving roots. Without a base the
	// first setup pass prunes every clause after the pins and merges,
	// so seeds would only add redundant visits.
	dirty := a.dirty[:0]
	merges := a.merges[:0]
	remaining := a.remaining[:0]
	for _, c := range conjuncts {
		eq, pin, kind := classifyEq(c, uf)
		switch kind {
		case eqUnsat:
			return ErrUnsat
		case eqPin:
			r := pin.v
			if assigned[r] {
				if value[r] != pin.val {
					return ErrUnsat
				}
				continue
			}
			before := count[r]
			if pinStore(&ks, count, r, pin.val) == 0 {
				return ErrUnsat
			}
			if b != nil && count[r] != before {
				dirty = append(dirty, r)
			}
		case eqMerge:
			ra, rb := eq[0], eq[1]
			if ra == rb {
				continue
			}
			if mergeStore(&ks, count, uf, ra, rb, &a.live) == 0 {
				return ErrUnsat
			}
			root := uf.find(ra)
			// An assigned non-root side transfers its pin through the
			// intersection; the root's assignment status must stay
			// consistent with its (possibly singleton) domain.
			if assigned[root] && count[root] == 0 {
				return ErrUnsat
			}
			if b != nil {
				loser := ra
				if loser == root {
					loser = rb
				}
				merges = append(merges, [2]VarID{root, loser})
				dirty = append(dirty, root)
			}
		case eqTrivial:
			// constant-true conjunct: drop
		default:
			remaining = append(remaining, c)
		}
	}
	a.dirty, a.merges, a.remaining = dirty, merges, remaining

	rep := grow(a.rep, nvars)
	a.rep = rep
	for v := range rep {
		rep[v] = uf.find(VarID(v))
	}
	// A root may have been assigned on one side of a merge while the
	// other side stays pinned only through its domain; re-checking here
	// keeps assigned/value coherent with the intersected store.
	for v := 0; v < nvars; v++ {
		if rep[v] == VarID(v) && assigned[v] && count[v] != 1 {
			// The merge narrowed the store below/around the assignment;
			// retract and let singleton detection re-derive it.
			assigned[v] = false
		}
	}

	// Compile the remainder with variables substituted to their
	// representatives (merges performed later, by a goal's delta on top
	// of a base, are handled by the rep indirection on top of these ids).
	for _, c := range remaining {
		cl, vars := kcompile(c, rep, &a.kcsc)
		clauses = append(clauses, cl)
		cvars = append(cvars, vars)
	}
	a.clauses, a.cvars = clauses, cvars

	st.cand = ks.cand
	st.off = ks.off
	st.rep = rep
	st.words = ks.words
	st.count = count
	st.assigned = assigned
	st.value = value
	st.clauses = clauses
	st.cvars = cvars
	st.done = done
	if b != nil {
		// Start from the base's precomputed watch lists (exact-capacity
		// shared slices; appendWatch's appends reallocate instead of
		// mutating them) and only walk the delta clauses. Watch lists of
		// roots merged away by the delta are folded onto the winners so
		// their clauses still propagate when the winner is assigned.
		st.ensureMemo()
		st.watch = grow(a.watch, nvars)
		a.watch = st.watch
		copy(st.watch, b.watch)
		for _, m := range merges {
			winner, loser := m[0], m[1]
			if len(st.watch[loser]) == 0 {
				continue
			}
			merged := make([]int32, 0, len(st.watch[winner])+len(st.watch[loser]))
			merged = append(merged, st.watch[winner]...)
			merged = append(merged, st.watch[loser]...)
			st.watch[winner] = merged
		}
		st.appendWatch(firstDelta)
	} else {
		st.buildWatch()
	}

	conflict, err := st.setupPropagate(firstDelta, dirty)
	if b != nil {
		s.last.BasePropagationNodes = b.propNodes
	}
	if err == nil && conflict {
		err = ErrUnsat
	}
	return err
}
