package solver

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
	"time"

	"repro/internal/sqltypes"
)

// Connected-component decomposition (Options.Decompose): after setup
// propagation, the constraint graph — unassigned representative
// variables, connected when a live clause mentions both — is
// partitioned into components that are solved independently,
// smallest-first, so a tiny UNSAT component fails the whole goal before
// any time is spent on the large SAT ones. Each component is canonically
// encoded (local variable ids by first appearance, assigned variables
// folded into constants, surviving domains appended), and the encoding
// doubles as an exact memoization key: the kill goals of one Generate
// run share most of their sub-problems, so identical components are
// solved once and replayed from the ComponentCache afterwards.
//
// Determinism: component search is a pure function of the canonical
// encoding — variables are searched in canonical order (MRV ties break
// toward it), values in surviving-candidate order, restart shuffles are
// seeded per component — so a cache replay is byte-identical to a fresh
// solve and aggregate statistics stay worker-count-independent (the
// cache is singleflight: concurrent solves of the same key block on the
// first claimant instead of duplicating search nodes).

// kcomp is one connected component.
type kcomp struct {
	vars    []VarID // canonical order: first appearance in the clause walk
	clauses []int32 // global clause indices, ascending
	weight  int64   // domain-cardinality sum + clause count (solve order)
}

// componentize partitions the live constraint graph. It reports a
// conflict when a fully-decided clause turns out violated (defensive:
// setup propagation catches these in practice). All scratch — the
// union-find parents, the live-clause list, the marking arrays and the
// component table including each entry's vars/clauses backing — is
// recycled on the kstate across solves.
func (st *kstate) componentize() ([]kcomp, bool) {
	n := len(st.rep)
	st.cufParent = grow(st.cufParent, n)
	cuf := &varUF{parent: st.cufParent}
	for i := range cuf.parent {
		cuf.parent[i] = VarID(i)
	}
	liveClauses := st.liveCl[:0]
	for ci := range st.clauses {
		switch st.clauses[ci].keval(st) {
		case sqltypes.True:
			continue // imposes nothing; must not glue components
		case sqltypes.False:
			st.liveCl = liveClauses
			return nil, true
		}
		var first VarID = -1
		for _, v0 := range st.cvars[ci] {
			r := st.rep[v0]
			if st.assigned[r] {
				continue
			}
			if first < 0 {
				first = r
			} else {
				cuf.union(first, r)
			}
		}
		if first >= 0 {
			liveClauses = append(liveClauses, int32(ci))
		}
	}
	st.liveCl = liveClauses

	comps := st.comps[:0]
	// appendComp reuses a previous solve's kcomp entry (and its slices'
	// backing) when the recycled table has spare capacity.
	appendComp := func() int {
		idx := len(comps)
		if cap(comps) > idx {
			comps = comps[:idx+1]
			comps[idx].vars = comps[idx].vars[:0]
			comps[idx].clauses = comps[idx].clauses[:0]
			comps[idx].weight = 0
		} else {
			comps = append(comps, kcomp{})
		}
		return idx
	}
	st.compOf = grow(st.compOf, n) // comp index + 1 per root var
	st.stamp = grow(st.stamp, n)   // comp index + 1 per var
	compOf, stamp := st.compOf, st.stamp
	for i := 0; i < n; i++ {
		compOf[i] = 0
		stamp[i] = 0
	}
	for _, ci := range liveClauses {
		var root VarID = -1
		for _, v0 := range st.cvars[ci] {
			if r := st.rep[v0]; !st.assigned[r] {
				root = cuf.find(r)
				break
			}
		}
		idx := int(compOf[root]) - 1
		if idx < 0 {
			idx = appendComp()
			compOf[root] = int32(idx) + 1
		}
		c := &comps[idx]
		c.clauses = append(c.clauses, ci)
		kwalkVars(st.clauses[ci], func(v VarID) {
			r := st.rep[v]
			if st.assigned[r] || stamp[r] == int32(idx+1) {
				return
			}
			stamp[r] = int32(idx + 1)
			c.vars = append(c.vars, r)
		})
	}
	// Isolated unassigned representatives: singleton components.
	for v := 0; v < n; v++ {
		if st.rep[v] == VarID(v) && !st.assigned[v] && stamp[v] == 0 {
			idx := appendComp()
			comps[idx].vars = append(comps[idx].vars, VarID(v))
		}
	}
	for i := range comps {
		c := &comps[i]
		for _, v := range c.vars {
			c.weight += int64(st.count[v])
		}
		c.weight += int64(len(c.clauses))
	}
	st.comps = comps
	return comps, false
}

// kwalkVars visits a compiled clause's variables in tree order (the
// canonical-order walk).
func kwalkVars(cl kclause, fn func(VarID)) {
	switch n := cl.(type) {
	case *kCmp:
		for _, t := range n.diff.Terms {
			fn(t.V)
		}
	case *kNary:
		for _, ch := range n.children {
			kwalkVars(ch, fn)
		}
	}
}

// canonicalKey encodes a component canonically: clauses in global index
// order with local variable ids by first appearance (matching
// comp.vars) and assigned variables folded into constants, followed by
// each local variable's surviving candidate values in preference order
// and the heuristics flags that influence model choice. The encoding is
// used directly as the (exact, collision-free) cache key.
// The returned byte slice is kstate scratch, valid only until the next
// canonicalKey call on the same kstate.
func (st *kstate) canonicalKey(c *kcomp) []byte {
	// Local-id lookup and the byte/term buffers are kstate scratch:
	// canonicalKey runs once per component per solve, and the per-call
	// map + slice allocations dominated its cost.
	// componentize guarantees every unassigned representative reached
	// below appears in c.vars, so lidOf never serves a stale entry.
	if len(st.lidOf) < len(st.rep) {
		st.lidOf = make([]int32, len(st.rep))
	}
	for i, v := range c.vars {
		st.lidOf[v] = int32(i)
	}
	buf := st.keyBuf[:0]
	terms := st.keyTerms[:0]
	var enc func(cl kclause)
	enc = func(cl kclause) {
		switch n := cl.(type) {
		case *kCmp:
			buf = append(buf, 'C', byte(n.op))
			rest := n.diff.Const
			terms = terms[:0]
			for _, t := range n.diff.Terms {
				r := st.rep[t.V]
				if st.assigned[r] {
					rest += t.Coef * st.value[r]
					continue
				}
				id := st.lidOf[r]
				found := false
				for i := range terms {
					if terms[i].lid == id {
						terms[i].coef += t.Coef
						found = true
						break
					}
				}
				if !found {
					terms = append(terms, keyTerm{lid: id, coef: t.Coef})
				}
			}
			// Stable insertion sort by local id (terms is tiny).
			for i := 1; i < len(terms); i++ {
				t := terms[i]
				j := i
				for j > 0 && terms[j-1].lid > t.lid {
					terms[j] = terms[j-1]
					j--
				}
				terms[j] = t
			}
			kept := terms[:0]
			for _, t := range terms {
				if t.coef != 0 {
					kept = append(kept, t)
				}
			}
			buf = binary.AppendVarint(buf, rest)
			buf = binary.AppendVarint(buf, int64(len(kept)))
			for _, t := range kept {
				buf = binary.AppendVarint(buf, t.coef)
				buf = binary.AppendVarint(buf, int64(t.lid))
			}
			terms = terms[:0]
		case *kNary:
			if n.conj {
				buf = append(buf, 'A')
			} else {
				buf = append(buf, 'O')
			}
			buf = binary.AppendVarint(buf, int64(len(n.children)))
			for _, ch := range n.children {
				enc(ch)
			}
		}
	}
	for _, ci := range c.clauses {
		enc(st.clauses[ci])
	}
	buf = append(buf, 'D')
	for _, v := range c.vars {
		buf = binary.AppendVarint(buf, int64(st.count[v]))
		w := st.words[st.off[v]:st.off[v+1]]
		cand := st.cand[v]
		for wi, word := range w {
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				word &^= 1 << uint(bit)
				buf = binary.AppendVarint(buf, cand[wi*64+bit])
			}
		}
	}
	buf = append(buf, 'F')
	if st.lcv {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	st.keyBuf = buf
	st.keyTerms = terms[:0]
	return buf
}

// keyTerm is a (local id, coefficient) pair in a canonical encoding.
type keyTerm struct {
	lid  int32
	coef int64
}

// compResult is a memoized component outcome: UNSAT, or a model indexed
// by canonical local variable id.
type compResult struct {
	unsat bool
	model []int64
}

// ComponentCache memoizes solved components by canonical key. It is
// safe for concurrent use and singleflight: when several goals reach
// the same component simultaneously, one solves while the rest wait for
// the published result, so search work (and therefore aggregate node
// statistics) is independent of worker count. A claimant that fails —
// budget exhaustion, cancellation, or a panic unwinding through the
// solve — releases its claim without publishing, so a poisoned entry
// can never be observed; waiters simply re-claim and solve themselves.
type ComponentCache struct {
	mu sync.Mutex
	m  map[string]*compEntry
}

type compEntry struct {
	done chan struct{}
	res  compResult
	ok   bool
}

// NewComponentCache returns an empty cache. One cache is typically
// scoped to one Generate run (one schema/query layout); keys from
// different variable layouts cannot collide semantically because the
// encoding is layout-independent (local ids + literal domains).
func NewComponentCache() *ComponentCache {
	return &ComponentCache{m: make(map[string]*compEntry)}
}

// Len reports the number of published entries (diagnostics/tests).
func (c *ComponentCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.m {
		if e.ok {
			n++
		}
	}
	return n
}

// acquire returns either a published result (claimed=false) or a claim
// (claimed=true): the caller must then publish via complete or abandon
// via release — a panic-safe obligation — using the returned interned
// key string. key is a scratch byte encoding: lookups go through the
// compiler's no-alloc map[string] conversion, and the string is
// materialized only when a claim inserts it, so the steady state (cache
// hits) allocates nothing. Waiting respects the solve's cancellation
// channel and deadline.
func (c *ComponentCache) acquire(key []byte, done <-chan struct{}, deadline time.Time) (compResult, bool, string, error) {
	for {
		c.mu.Lock()
		e, exists := c.m[string(key)]
		if !exists {
			skey := string(key)
			e = &compEntry{done: make(chan struct{})}
			c.m[skey] = e
			c.mu.Unlock()
			return compResult{}, true, skey, nil
		}
		if e.ok {
			res := e.res
			c.mu.Unlock()
			return res, false, "", nil
		}
		c.mu.Unlock()
		if deadline.IsZero() {
			select {
			case <-e.done:
			case <-done:
				return compResult{}, false, "", ErrCanceled
			}
		} else {
			t := time.NewTimer(time.Until(deadline))
			select {
			case <-e.done:
				t.Stop()
			case <-done:
				t.Stop()
				return compResult{}, false, "", ErrCanceled
			case <-t.C:
				return compResult{}, false, "", ErrLimit
			}
		}
		// Woken: the claimant either published (loop re-reads e.ok) or
		// released (entry gone: loop re-claims).
	}
}

// complete publishes a claimed entry's result.
func (c *ComponentCache) complete(key string, res compResult) {
	c.mu.Lock()
	e := c.m[key]
	e.res = res
	e.ok = true
	c.mu.Unlock()
	close(e.done)
}

// release abandons a claim without publishing; waiters re-claim.
func (c *ComponentCache) release(key string) {
	c.mu.Lock()
	e := c.m[key]
	delete(c.m, key)
	c.mu.Unlock()
	close(e.done)
}

// solveComponents is the Decompose solve driver.
func (s *Solver) solveComponents(st *kstate, cache *ComponentCache) error {
	comps, conflict := st.componentize()
	if conflict {
		return ErrUnsat
	}
	s.last.ComponentCount = int64(len(comps))
	// Smallest-first: a small UNSAT component (a contradicted mutation
	// delta, typically) fails the goal before the big components are
	// searched. Ties break on the first variable id, which is unique
	// across (disjoint) components.
	// Insertion sort: component counts are small and the concrete
	// comparison avoids sort.Slice's reflection-based swapper.
	for i := 1; i < len(comps); i++ {
		c := comps[i]
		j := i
		for j > 0 && compLess(&c, &comps[j-1]) {
			comps[j] = comps[j-1]
			j--
		}
		comps[j] = c
	}
	n := len(st.rep)
	st.degree = grow(st.degree, n)
	st.cmark = grow(st.cmark, n)
	for i := 0; i < n; i++ {
		st.degree[i] = 0
		st.cmark[i] = 0
	}
	// Per-component degrees, computed upfront in one pass (components
	// are variable-disjoint, so each variable's degree is set by exactly
	// one component and cannot change while earlier components solve):
	// only the component's own clauses count, so canonically-equal
	// components order variables identically.
	for i := range comps {
		c := &comps[i]
		for _, ci := range c.clauses {
			for _, v0 := range st.cvars[ci] {
				r := st.rep[v0]
				if st.assigned[r] || st.cmark[r] == ci+1 {
					continue
				}
				st.cmark[r] = ci + 1
				st.degree[r]++
			}
		}
	}
	for i := range comps {
		c := &comps[i]
		if len(c.clauses) == 0 {
			// Isolated variable: the preference-order value survives.
			v := c.vars[0]
			st.assign(v, st.firstLive(v))
			continue
		}
		if err := s.solveComp(st, c, cache); err != nil {
			return err
		}
	}
	return nil
}

// compLess is the solve order: lighter first, then fewer variables,
// then lowest first variable id (unique across disjoint components).
func compLess(a, b *kcomp) bool {
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	if len(a.vars) != len(b.vars) {
		return len(a.vars) < len(b.vars)
	}
	return a.vars[0] < b.vars[0]
}

// solveComp solves one component, consulting the cache when configured.
func (s *Solver) solveComp(st *kstate, c *kcomp, cache *ComponentCache) error {
	if cache == nil {
		return st.searchVars(c.vars)
	}
	key := st.canonicalKey(c)
	res, claimed, skey, err := cache.acquire(key, st.done, st.deadline)
	if err != nil {
		return err
	}
	if !claimed {
		s.last.ComponentCacheHits++
		if res.unsat {
			return ErrUnsat
		}
		for i, v := range c.vars {
			st.assign(v, res.model[i])
		}
		return nil
	}
	published := false
	defer func() {
		if !published {
			cache.release(skey)
		}
	}()
	err = st.searchVars(c.vars)
	switch {
	case err == nil:
		model := make([]int64, len(c.vars))
		for i, v := range c.vars {
			model[i] = st.value[v]
		}
		cache.complete(skey, compResult{model: model})
		published = true
	case errors.Is(err, ErrUnsat):
		cache.complete(skey, compResult{unsat: true})
		published = true
	}
	return err
}
