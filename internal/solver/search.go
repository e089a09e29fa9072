package solver

import (
	"repro/internal/sqltypes"
)

// state is the shared backtracking-search state.
type state struct {
	domains  [][]int64 // current (possibly pruned) domains
	assigned []bool
	value    []int64
	nodes    int64
	limit    int64
	done     <-chan struct{} // cooperative cancellation (nil = none)
	checked  int64           // cancellation check throttle
}

func (st *state) budget() error {
	st.nodes++
	if st.nodes > st.limit {
		return ErrLimit
	}
	return st.tick()
}

// tick advances the shared cancellation throttle counter and, every
// 1024 ticks, checks the done channel. It is called once per search
// node by budget AND once per watched-clause visit by the propagation
// loop: before the counter was hoisted here, a solve dominated by
// propagation (few search nodes, huge implication chains) could
// overshoot its context's deadline by the full length of one
// propagation fixed-point, because only budget() ever advanced the
// counter (stop-check starvation).
func (st *state) tick() error {
	st.checked++
	if st.checked%1024 == 0 && canceled(st.done) {
		return ErrCanceled
	}
	return nil
}

// canceled reports whether the done channel has fired (nil = never).
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// linBounds computes [lo, hi] for a linear expression under the current
// partial assignment, using domain extremes for unassigned variables.
func (st *state) linBounds(l Lin) (int64, int64) {
	lo, hi := l.Const, l.Const
	for _, t := range l.Terms {
		if st.assigned[t.V] {
			v := t.Coef * st.value[t.V]
			lo += v
			hi += v
			continue
		}
		dmin, dmax := domainMinMax(st.domains[t.V])
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

func domainMinMax(d []int64) (int64, int64) {
	mn, mx := d[0], d[0]
	for _, v := range d[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// evalCmpBounds decides a comparison on the sign of diff = L-R given its
// bounds, in three-valued logic.
func evalCmpBounds(op sqltypes.CmpOp, lo, hi int64) sqltypes.Tristate {
	// Possible signs of diff.
	var canNeg, canZero, canPos bool
	if lo < 0 {
		canNeg = true
	}
	if lo <= 0 && hi >= 0 {
		canZero = true
	}
	if hi > 0 {
		canPos = true
	}
	holdNeg, holdZero, holdPos := op.HoldsSign(-1), op.HoldsSign(0), op.HoldsSign(1)
	allHold := (!canNeg || holdNeg) && (!canZero || holdZero) && (!canPos || holdPos)
	noneHold := (!canNeg || !holdNeg) && (!canZero || !holdZero) && (!canPos || !holdPos)
	switch {
	case allHold:
		return sqltypes.True
	case noneHold:
		return sqltypes.False
	default:
		return sqltypes.Unknown
	}
}

// --- Quantified mode -----------------------------------------------------

// solveQuantified models CVC3 without quantifier unfolding (§VI-B)
// with the lazy quantifier-instantiation loop of 2007-era SMT solvers:
// the ground fragment is solved from scratch, the candidate model is
// checked against every quantified constraint, the first violated
// quantifier is expanded into a ground lemma, and the solver restarts on
// the grown problem. Each restart repeats preprocessing, compilation and
// search, so the cost multiplier grows with the number of quantified
// constraints — foreign keys, NOT-EXISTS nullifications, input-database
// tuple constraints — which is exactly the overhead that unfolding all
// quantifiers up front (the paper's optimization) eliminates.
func (s *Solver) solveQuantified(done <-chan struct{}, limit int64) (Model, error) {
	var conjuncts, active, quantified []Con
	for _, c := range s.cons {
		conjuncts = appendConjuncts(conjuncts, c)
	}
	for _, c := range conjuncts {
		if hasQuant(c) {
			quantified = append(quantified, c)
		} else {
			active = append(active, c)
		}
	}

	type pendingQuant struct {
		con   Con
		added map[int]bool // universal bodies already instantiated
	}
	var pending []*pendingQuant
	for _, c := range quantified {
		pending = append(pending, &pendingQuant{con: c, added: map[int]bool{}})
	}
	fullAssigned := make([]bool, len(s.domains))
	for i := range fullAssigned {
		fullAssigned[i] = true
	}
	// Instantiation rounds: one lemma per round, at instance granularity
	// for universal quantifiers (a violated body), wholesale for
	// existential ones. Each body is added at most once, so the loop
	// terminates after at most total-instance-count rounds.
	for {
		// Cooperative cancellation between lazy-instantiation rounds (the
		// in-round DFS checks st.done itself).
		if canceled(done) {
			return nil, ErrCanceled
		}
		remaining := limit - s.last.Nodes
		if remaining <= 0 {
			return nil, ErrLimit
		}
		sub := &Solver{domains: s.domains, names: s.names, cons: active}
		m, err := sub.solveUnfolded(done, remaining)
		s.last.Nodes += sub.last.Nodes
		if err != nil {
			// UNSAT of a subset of the implied constraints is UNSAT of
			// the whole problem (lemmas are implied by the quantifiers).
			return nil, err
		}
		st := &state{domains: s.domains, assigned: fullAssigned, value: m}
		// Model checking re-walks every pending quantifier wholesale
		// (the instantiation-candidate scan).
		var lemma Con
		for pi := 0; pi < len(pending); pi++ {
			p := pending[pi]
			if evalCon(st, p.con) == sqltypes.True {
				continue
			}
			if lemma != nil {
				continue // keep scanning (cost), but one lemma per round
			}
			q := p.con.(*Quant)
			if !q.All {
				lemma = flatten(q)
				pending = append(pending[:pi], pending[pi+1:]...)
				pi--
				continue
			}
			for bi, b := range q.Bodies {
				if !p.added[bi] && evalCon(st, b) != sqltypes.True {
					p.added[bi] = true
					lemma = flatten(b)
					break
				}
			}
			if lemma == nil {
				// Every violated body was already instantiated (cannot
				// normally happen): fall back to the full expansion.
				lemma = flatten(q)
				pending = append(pending[:pi], pending[pi+1:]...)
				pi--
			}
		}
		if lemma == nil {
			return m, nil
		}
		active = append(active, lemma)
		s.last.Restarts++
	}
}

func hasQuant(c Con) bool {
	switch n := c.(type) {
	case *Quant:
		return true
	case *And:
		for _, x := range n.Cs {
			if hasQuant(x) {
				return true
			}
		}
	case *Or:
		for _, x := range n.Cs {
			if hasQuant(x) {
				return true
			}
		}
	}
	return false
}

// evalCon evaluates a constraint tree in three-valued logic, re-walking
// quantifier bodies on every call (used for model checking in the
// instantiation loop and by tests).
func evalCon(st *state, c Con) sqltypes.Tristate {
	switch n := c.(type) {
	case *Cmp:
		lo, hi := st.linBounds(n.L.Minus(n.R))
		return evalCmpBounds(n.Op, lo, hi)
	case *And:
		return evalAll(st, n.Cs, true)
	case *Or:
		return evalAll(st, n.Cs, false)
	case *Quant:
		return evalAll(st, n.Bodies, n.All)
	default:
		panic("solver: evalCon on unknown node")
	}
}

func evalAll(st *state, cs []Con, conj bool) sqltypes.Tristate {
	out := sqltypes.True
	if !conj {
		out = sqltypes.False
	}
	for _, c := range cs {
		t := evalCon(st, c)
		if conj {
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

// --- Unfolded mode -------------------------------------------------------

// clause is a compiled constraint for the unfolded fast path.
type clause interface {
	eval(st *state) sqltypes.Tristate
	// prune narrows domains of unassigned variables where possible.
	// It reports conflict when a domain empties.
	prune(st *state, trail *trail) (conflict bool)
}

type cCmp struct {
	op   sqltypes.CmpOp
	diff Lin // L - R, precompiled
}

func (c *cCmp) eval(st *state) sqltypes.Tristate {
	lo, hi := st.linBounds(c.diff)
	return evalCmpBounds(c.op, lo, hi)
}

func (c *cCmp) prune(st *state, tr *trail) bool {
	// Unit pruning: with exactly one unassigned variable the comparison
	// is exact per candidate value.
	var free VarID = -1
	var coef int64
	rest := c.diff.Const
	for _, t := range c.diff.Terms {
		if st.assigned[t.V] {
			rest += t.Coef * st.value[t.V]
			continue
		}
		if free >= 0 {
			return false // more than one free variable: only bounds apply
		}
		free, coef = t.V, t.Coef
	}
	if free < 0 {
		return false
	}
	old := st.domains[free]
	holds := func(val int64) bool {
		d := rest + coef*val
		sign := 0
		if d < 0 {
			sign = -1
		} else if d > 0 {
			sign = 1
		}
		return c.op.HoldsSign(sign)
	}
	// Scan first; allocate only when something is actually pruned.
	drop := -1
	for i, val := range old {
		if !holds(val) {
			drop = i
			break
		}
	}
	if drop < 0 {
		return false
	}
	kept := make([]int64, 0, len(old)-1)
	kept = append(kept, old[:drop]...)
	for _, val := range old[drop+1:] {
		if holds(val) {
			kept = append(kept, val)
		}
	}
	tr.save(free, old)
	st.domains[free] = kept
	return len(kept) == 0
}

type cNary struct {
	conj     bool
	children []clause
}

func (c *cNary) eval(st *state) sqltypes.Tristate {
	out := sqltypes.True
	if !c.conj {
		out = sqltypes.False
	}
	for _, ch := range c.children {
		t := ch.eval(st)
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

func (c *cNary) prune(st *state, tr *trail) bool {
	if c.conj {
		for _, ch := range c.children {
			if ch.prune(st, tr) {
				return true
			}
		}
		return false
	}
	// Disjunction: unit propagation when all but one child is False.
	var unit clause
	for _, ch := range c.children {
		switch ch.eval(st) {
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
	return unit.prune(st, tr)
}

func compile(c Con) clause {
	switch n := c.(type) {
	case *Cmp:
		return &cCmp{op: n.Op, diff: n.L.Minus(n.R)}
	case *And:
		out := make([]clause, len(n.Cs))
		for i, x := range n.Cs {
			out[i] = compile(x)
		}
		return &cNary{conj: true, children: out}
	case *Or:
		out := make([]clause, len(n.Cs))
		for i, x := range n.Cs {
			out[i] = compile(x)
		}
		return &cNary{conj: false, children: out}
	default:
		panic("solver: compile expects flattened constraints")
	}
}

// trail records domain prunings for backtracking.
type trail struct {
	entries []trailEntry
}

type trailEntry struct {
	v   VarID
	old []int64
}

func (t *trail) save(v VarID, old []int64) {
	t.entries = append(t.entries, trailEntry{v, old})
}

func (t *trail) mark() int { return len(t.entries) }

func (t *trail) undo(st *state, mark int) {
	for i := len(t.entries) - 1; i >= mark; i-- {
		st.domains[t.entries[i].v] = t.entries[i].old
	}
	t.entries = t.entries[:mark]
}

// uprob is a preprocessed unfolded problem: the output of flattening,
// equality preprocessing, compilation and watch-list construction,
// built once per solve and then searched.
type uprob struct {
	// root[v] is v's union-find representative, frozen at prep time so
	// the search resolves non-representatives with a table lookup.
	root    []VarID
	domains [][]int64
	clauses []clause
	reps    []VarID
	watch   [][]int32
}

// prepUnfolded performs the list kernel's front end: flatten and split
// conjunctions, merge/pin top-level equalities, normalize onto
// representatives, compile, and build watch lists. The splitting and
// the equality decisions are the bitset kernel's own (appendConjuncts,
// classifyEq); only the stores differ. Returns ErrUnsat when
// preprocessing alone refutes the system.
func (s *Solver) prepUnfolded() (*uprob, error) {
	var conjuncts []Con
	for _, c := range s.cons {
		conjuncts = appendConjuncts(conjuncts, flatten(c))
	}

	// Equality preprocessing: top-level x = y conjuncts merge variables
	// via union-find, and x = c conjuncts pin domains. After unfolding,
	// the paper's constraint systems are dominated by such equalities
	// (§V-H), which is what makes the unfolded mode fast.
	uf := newVarUF(len(s.domains))
	domains := make([][]int64, len(s.domains))
	copy(domains, s.domains)
	var remaining []Con
	for _, c := range conjuncts {
		eq, pin, kind := classifyEq(c, uf)
		switch kind {
		case eqUnsat:
			return nil, ErrUnsat
		case eqPin:
			nd := intersect(domains[pin.v], []int64{pin.val})
			if len(nd) == 0 {
				return nil, ErrUnsat
			}
			domains[pin.v] = nd
		case eqMerge:
			a, b := eq[0], eq[1]
			if a != b {
				nd := intersect(domains[a], domains[b])
				if len(nd) == 0 {
					return nil, ErrUnsat
				}
				domains[uf.union(a, b)] = nd
			}
		case eqNone:
			remaining = append(remaining, c)
		}
	}
	// Normalize domains onto roots (a non-root may have been pinned
	// before being merged).
	for v := range domains {
		r := uf.find(VarID(v))
		if r != VarID(v) {
			nd := intersect(domains[r], domains[v])
			if len(nd) == 0 {
				return nil, ErrUnsat
			}
			domains[r] = nd
		}
	}

	// Compile remaining constraints with variables substituted by their
	// representatives.
	var clauses []clause
	for _, c := range remaining {
		clauses = append(clauses, compile(substitute(c, uf)))
	}

	// Non-representative variables are resolved from their roots at the
	// end; exclude them from search.
	root := make([]VarID, len(s.domains))
	reps := make([]VarID, 0, len(s.domains))
	for v := range s.domains {
		root[v] = uf.find(VarID(v))
		if root[v] == VarID(v) {
			reps = append(reps, VarID(v))
		}
	}

	// Watch lists: clause indices per representative variable.
	watch := make([][]int32, len(s.domains))
	for ci, cl := range clauses {
		vars := map[VarID]bool{}
		clauseVars(cl, vars)
		for v := range vars {
			watch[v] = append(watch[v], int32(ci))
		}
	}

	return &uprob{
		root:    root,
		domains: domains,
		clauses: clauses,
		reps:    reps,
		watch:   watch,
	}, nil
}

// solveUnfolded is the list kernel, quantified mode's ground solver:
// prepUnfolded runs the front end, a pre-pass prunes every clause once,
// and the DFS searches the representatives under the node limit,
// checking done every ~1024 nodes. It returns the model, or ErrUnsat
// (refuted or exhausted), ErrLimit or ErrCanceled.
func (s *Solver) solveUnfolded(done <-chan struct{}, limit int64) (Model, error) {
	p, err := s.prepUnfolded()
	if err != nil {
		return nil, err
	}
	if canceled(done) {
		return nil, ErrCanceled
	}
	// The search owns p's domain table: the problem was built for it.
	st := &state{
		domains:  p.domains,
		assigned: make([]bool, len(p.domains)),
		value:    make([]int64, len(p.domains)),
		limit:    limit,
		done:     done,
	}
	for v, r := range p.root {
		// Non-representatives never enter the search; filled from
		// their roots below.
		st.assigned[v] = r != VarID(v)
	}
	tr := &trail{}
	for _, cl := range p.clauses {
		if cl.eval(st) == sqltypes.False || cl.prune(st, tr) {
			return nil, ErrUnsat
		}
	}
	found, err := s.dfsUnfolded(st, p.clauses, p.watch, tr, p.reps)
	s.last.Nodes += st.nodes
	switch {
	case err != nil:
		return nil, err
	case !found:
		return nil, ErrUnsat // search space exhausted
	}
	for v, r := range p.root {
		st.value[v] = st.value[r]
	}
	return Model(st.value), nil
}

// varUF is a union-find over variables.
type varUF struct{ parent []VarID }

func newVarUF(n int) *varUF {
	p := make([]VarID, n)
	for i := range p {
		p[i] = VarID(i)
	}
	return &varUF{parent: p}
}

func (u *varUF) find(v VarID) VarID {
	for u.parent[v] != v {
		u.parent[v] = u.parent[u.parent[v]]
		v = u.parent[v]
	}
	return v
}

func (u *varUF) union(a, b VarID) VarID {
	ra, rb := u.find(a), u.find(b)
	if ra < rb {
		u.parent[rb] = ra
		return ra
	}
	u.parent[ra] = rb
	return rb
}

func intersect(a, b []int64) []int64 {
	set := make(map[int64]bool, len(b))
	for _, v := range b {
		set[v] = true
	}
	var out []int64
	for _, v := range a {
		if set[v] {
			out = append(out, v)
		}
	}
	return out
}

// substitute rewrites variables to their union-find representatives.
func substitute(c Con, uf *varUF) Con {
	switch n := c.(type) {
	case *Cmp:
		return &Cmp{Op: n.Op, L: subLin(n.L, uf), R: subLin(n.R, uf)}
	case *And:
		out := make([]Con, len(n.Cs))
		for i, x := range n.Cs {
			out[i] = substitute(x, uf)
		}
		return &And{Cs: out}
	case *Or:
		out := make([]Con, len(n.Cs))
		for i, x := range n.Cs {
			out[i] = substitute(x, uf)
		}
		return &Or{Cs: out}
	default:
		panic("solver: substitute expects flattened constraints")
	}
}

func subLin(l Lin, uf *varUF) Lin {
	out := Lin{Const: l.Const}
	for _, t := range l.Terms {
		out.Terms = append(out.Terms, Term{Coef: t.Coef, V: uf.find(t.V)})
	}
	return out.normalize()
}

func clauseVars(c clause, dst map[VarID]bool) {
	switch n := c.(type) {
	case *cCmp:
		for _, t := range n.diff.Terms {
			dst[t.V] = true
		}
	case *cNary:
		for _, ch := range n.children {
			clauseVars(ch, dst)
		}
	}
}

func (s *Solver) dfsUnfolded(st *state, clauses []clause, watch [][]int32, tr *trail, reps []VarID) (bool, error) {
	if err := st.budget(); err != nil {
		return false, err
	}
	// MRV variable selection over representative variables.
	best, bestSize := VarID(-1), int(^uint(0)>>1)
	for _, v := range reps {
		if st.assigned[v] {
			continue
		}
		if n := len(st.domains[v]); n < bestSize {
			best, bestSize = v, n
		}
	}
	if best < 0 {
		// Full assignment: verify (defensive; propagation should have
		// caught conflicts already).
		for _, cl := range clauses {
			if cl.eval(st) != sqltypes.True {
				return false, nil
			}
		}
		return true, nil
	}
	vals := append([]int64(nil), st.domains[best]...)
	for _, val := range vals {
		mark := tr.mark()
		var implied []VarID
		conflict, perr := propagate(st, clauses, watch, tr, best, val, &implied)
		if perr == nil && !conflict {
			ok, err := s.dfsUnfolded(st, clauses, watch, tr, reps)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		for _, v := range implied {
			st.assigned[v] = false
		}
		st.assigned[best] = false
		tr.undo(st, mark)
		if perr != nil {
			return false, perr
		}
	}
	return false, nil
}

// propagate assigns v=val and runs a propagation loop: watched clauses
// are evaluated and pruned; domains narrowed to a single value trigger
// implied assignments which propagate in turn. It reports conflict, and
// surfaces cancellation: each watched-clause visit ticks the shared
// throttle so a long implication chain cannot starve the stop check
// (see state.tick).
func propagate(st *state, clauses []clause, watch [][]int32, tr *trail, v VarID, val int64, implied *[]VarID) (bool, error) {
	st.assigned[v] = true
	st.value[v] = val
	queue := []VarID{v}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ci := range watch[cur] {
			if err := st.tick(); err != nil {
				return false, err
			}
			cl := clauses[ci]
			if cl.eval(st) == sqltypes.False {
				return true, nil
			}
			before := tr.mark()
			if cl.prune(st, tr) {
				return true, nil
			}
			// Implied assignments: domains narrowed to singletons.
			for _, e := range tr.entries[before:] {
				if !st.assigned[e.v] && len(st.domains[e.v]) == 1 {
					st.assigned[e.v] = true
					st.value[e.v] = st.domains[e.v][0]
					*implied = append(*implied, e.v)
					queue = append(queue, e.v)
				}
			}
		}
	}
	return false, nil
}
