package solver

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/sqltypes"
)

// --- metamorphic old-vs-new agreement ------------------------------------

// randInstance builds a seeded random constraint system mixing plain
// comparisons, disjunctions, quantifiers, and — important for the
// kernel's preprocessing — top-level equalities (var=var merges and
// var=const pins).
func randInstance(rng *rand.Rand) (*Solver, []Con) {
	s := New()
	nv := 2 + rng.Intn(6)
	vars := make([]VarID, nv)
	for i := range vars {
		var d []int64
		for k := 0; k <= rng.Intn(5); k++ {
			d = append(d, int64(rng.Intn(7)-1))
		}
		vars[i] = s.NewVar(fmt.Sprintf("v%d", i), d)
	}
	randLin := func() Lin {
		l := C(int64(rng.Intn(5) - 2))
		for k := 0; k < 1+rng.Intn(2); k++ {
			l = l.Plus(V(vars[rng.Intn(nv)]).Times(int64(1 + rng.Intn(2))))
		}
		return l
	}
	randCmp := func() *Cmp {
		return NewCmp(sqltypes.AllCmpOps[rng.Intn(6)], randLin(), randLin())
	}
	nc := 1 + rng.Intn(7)
	var cons []Con
	for c := 0; c < nc; c++ {
		switch rng.Intn(7) {
		case 0:
			cons = append(cons, randCmp())
		case 1:
			cons = append(cons, NewOr(randCmp(), randCmp()))
		case 2:
			cons = append(cons, ForAll(randCmp(), randCmp()))
		case 3:
			cons = append(cons, Exists(randCmp(), randCmp()))
		case 4: // var = var merge
			cons = append(cons, Eq(V(vars[rng.Intn(nv)]), V(vars[rng.Intn(nv)])))
		case 5: // var = const pin
			cons = append(cons, Eq(V(vars[rng.Intn(nv)]), C(int64(rng.Intn(7)-1))))
		default: // nested And inside Or
			cons = append(cons, NewOr(NewAnd(randCmp(), randCmp()), randCmp()))
		}
	}
	for _, c := range cons {
		s.Assert(c)
	}
	return s, cons
}

func checkModel(t *testing.T, iter int, name string, s *Solver, cons []Con, m Model) {
	t.Helper()
	st := &state{assigned: make([]bool, s.NumVars()), value: m, domains: s.domains}
	for i := range st.assigned {
		st.assigned[i] = true
	}
	for _, c := range cons {
		if evalCon(st, c) != sqltypes.True {
			t.Fatalf("iter %d: %s model %v violates %s", iter, name, m, ConString(c, s.Name))
		}
	}
}

// TestKernelMetamorphic solves thousands of seeded random instances
// with the legacy unfolded kernel (the oracle) and every new-kernel
// configuration — heuristics, decomposition, decomposition+cache, and
// shared-base incremental solving — asserting SAT/UNSAT agreement and
// model validity everywhere. The component cache is shared across all
// instances, stressing the canonical-key purity guarantee (a replayed
// model must be valid wherever the key matches).
func TestKernelMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(20240817))
	cache := NewComponentCache()
	variants := []struct {
		name string
		opts Options
	}{
		{"heuristics", Options{Unfold: true, Heuristics: true}},
		{"decompose", Options{Unfold: true, Decompose: true}},
		{"decompose+cache", Options{Unfold: true, Heuristics: true, Decompose: true, Cache: cache}},
	}
	const iters = 2500
	sat, unsat := 0, 0
	for iter := 0; iter < iters; iter++ {
		s, cons := randInstance(rng)
		mo, eo := s.Solve(Options{Unfold: true})
		if eo == nil {
			sat++
			checkModel(t, iter, "oracle", s, cons, mo)
		} else if errors.Is(eo, ErrUnsat) {
			unsat++
		} else {
			t.Fatalf("iter %d: oracle error %v", iter, eo)
		}
		for _, v := range variants {
			mk, ek := s.Solve(v.opts)
			if (ek == nil) != (eo == nil) {
				t.Fatalf("iter %d: %s disagrees with oracle: kernel=%v oracle=%v",
					iter, v.name, ek, eo)
			}
			if ek == nil {
				checkModel(t, iter, v.name, s, cons, mk)
			}
		}
		// Shared-base split: first half of the constraints become the
		// pre-propagated base, the rest the per-goal delta.
		layout := &Solver{domains: s.domains, names: s.names}
		half := len(cons) / 2
		b := PrepareBase(layout, cons[:half])
		sb := NewShared(layout)
		sb.AttachBase(b)
		for _, c := range cons[half:] {
			sb.Assert(c)
		}
		mb, eb := sb.Solve(Options{Unfold: true, Heuristics: true, Decompose: true, Cache: cache})
		if (eb == nil) != (eo == nil) {
			t.Fatalf("iter %d: shared-base disagrees with oracle: base=%v oracle=%v", iter, eb, eo)
		}
		if eb == nil {
			checkModel(t, iter, "shared-base", s, cons, mb)
		}
	}
	if sat < iters/10 || unsat < iters/10 {
		t.Fatalf("degenerate instance mix: %d sat / %d unsat of %d", sat, unsat, iters)
	}
}

// TestKernelDeterministic locks byte-determinism: repeated kernel
// solves (fresh caches, same options) return identical models and node
// counts, and a cache replay is identical to a fresh solve.
func TestKernelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		s, _ := randInstance(rng)
		var firstModel Model
		var firstNodes int64
		for rep := 0; rep < 3; rep++ {
			opts := Options{Unfold: true, Heuristics: true, Decompose: true, Cache: NewComponentCache()}
			m, err := s.Solve(opts)
			if err != nil && !errors.Is(err, ErrUnsat) {
				t.Fatal(err)
			}
			nodes := s.LastStats().Nodes
			if rep == 0 {
				firstModel, firstNodes = m, nodes
				continue
			}
			if nodes != firstNodes {
				t.Fatalf("iter %d: nodes %d != %d", iter, nodes, firstNodes)
			}
			if (m == nil) != (firstModel == nil) {
				t.Fatalf("iter %d: sat/unsat flip", iter)
			}
			for i := range m {
				if m[i] != firstModel[i] {
					t.Fatalf("iter %d: model differs at %d: %d != %d", iter, i, m[i], firstModel[i])
				}
			}
		}
		// Warm-cache replay must be byte-identical too.
		cache := NewComponentCache()
		opts := Options{Unfold: true, Heuristics: true, Decompose: true, Cache: cache}
		m1, e1 := s.Solve(opts)
		m2, e2 := s.Solve(opts)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("iter %d: warm replay flips sat/unsat", iter)
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				t.Fatalf("iter %d: warm replay model differs at %d", iter, i)
			}
		}
		// Isolated singleton components bypass the cache, so hits are
		// only guaranteed when the first solve published something.
		if e1 == nil && cache.Len() > 0 && s.LastStats().ComponentCacheHits == 0 {
			t.Fatalf("iter %d: warm replay had no cache hits (%d components, %d cached)",
				iter, s.LastStats().ComponentCount, cache.Len())
		}
	}
}

// TestKernelStatsCounters asserts the new Stats fields are populated on
// a decomposable multi-component problem with a shared base.
func TestKernelStatsCounters(t *testing.T) {
	layout := New()
	var vars []VarID
	for i := 0; i < 8; i++ {
		vars = append(vars, layout.NewVar(fmt.Sprintf("x%d", i), []int64{0, 1, 2, 3}))
	}
	// Base: two independent chains (two components) + a pin.
	base := []Con{
		NewCmp(sqltypes.OpLT, V(vars[0]), V(vars[1])),
		NewCmp(sqltypes.OpLT, V(vars[2]), V(vars[3])),
		Eq(V(vars[4]), C(2)),
	}
	b := PrepareBase(layout, base)
	if b.Unsat() {
		t.Fatal("base unexpectedly unsat")
	}
	if b.PropagationNodes() == 0 {
		t.Fatal("base propagation did no work")
	}
	s := NewShared(layout)
	s.AttachBase(b)
	s.Assert(NewCmp(sqltypes.OpGT, V(vars[5]), V(vars[6])))
	cache := NewComponentCache()
	opts := Options{Unfold: true, Heuristics: true, Decompose: true, Cache: cache}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	st := s.LastStats()
	if st.ComponentCount < 3 {
		t.Fatalf("ComponentCount = %d, want >= 3", st.ComponentCount)
	}
	if st.BasePropagationNodes == 0 {
		t.Fatal("BasePropagationNodes = 0 with attached base")
	}
	// Second solve over the same cache: hits.
	s2 := NewShared(layout)
	s2.AttachBase(b)
	s2.Assert(NewCmp(sqltypes.OpGT, V(vars[5]), V(vars[6])))
	if _, err := s2.Solve(opts); err != nil {
		t.Fatal(err)
	}
	if s2.LastStats().ComponentCacheHits == 0 {
		t.Fatal("ComponentCacheHits = 0 on a warm cache")
	}
}

// --- deadline-starvation regression --------------------------------------

// buildChain returns a solver whose first decision triggers one huge
// propagation fixed-point: an implication chain v0 <= v1 <= ... <= vN
// <= v0 pinning every variable as soon as v0 is assigned. The GE/LE
// pairs are deliberately not expressed as equalities so preprocessing
// cannot collapse the chain.
func buildChain(n int) *Solver {
	s := New()
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = s.NewVar(fmt.Sprintf("c%d", i), []int64{0, 1})
	}
	for i := 0; i+1 < n; i++ {
		s.Assert(NewCmp(sqltypes.OpGE, V(vars[i+1]), V(vars[i])))
		s.Assert(NewCmp(sqltypes.OpLE, V(vars[i+1]), V(vars[i])))
	}
	return s
}

// TestDeadlineNotStarvedByPropagation locks the state.budget fix: a
// goal whose work is dominated by a single propagation fixed-point
// (few search nodes, thousands of watched-clause visits) must still
// observe an already-expired deadline. Before the throttle counter was
// hoisted into tick()/ktick(), only search nodes advanced it, so this
// solve completed despite Timeout=1ns.
func TestDeadlineNotStarvedByPropagation(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"legacy", Options{Unfold: true, Timeout: time.Nanosecond}},
		{"kernel", Options{Unfold: true, Heuristics: true, Timeout: time.Nanosecond}},
	} {
		s := buildChain(3000)
		_, err := s.Solve(mode.opts)
		if !errors.Is(err, ErrLimit) {
			t.Errorf("%s: err = %v, want ErrLimit (expired deadline must interrupt propagation)", mode.name, err)
		}
	}
	// Sanity: with no deadline the same chain is SAT.
	s := buildChain(3000)
	if _, err := s.Solve(Options{Unfold: true, Heuristics: true}); err != nil {
		t.Fatalf("chain unsolvable without deadline: %v", err)
	}
}

// --- trail allocation discipline -----------------------------------------

// trailCycleState builds a kernel state with one wide variable and a
// pruning clause, for exercising save/undo.
func trailCycle(st *kstate, cl kclause) {
	mark := st.tr.mark()
	if cl.kprune(st) {
		panic("unexpected conflict")
	}
	st.undoTo(mark)
}

func newTrailFixture() (*kstate, kclause) {
	s := New()
	var d []int64
	for i := int64(0); i < 200; i++ {
		d = append(d, i)
	}
	v := s.NewVar("w", d)
	ks := newKstoreLayout(s.domains)
	st := &kstate{
		cand:     ks.cand,
		off:      ks.off,
		rep:      []VarID{v},
		words:    ks.words,
		count:    []int32{int32(len(d))},
		assigned: make([]bool, 1),
		value:    make([]int64, 1),
	}
	st.buildWatch() // allocates the domain-version bounds memo
	// w < 100 prunes half the domain (4 words saved copy-on-write).
	cl, _ := kcompile(NewCmp(sqltypes.OpLT, V(v), C(100)), st.rep, &kcScratch{})
	return st, cl
}

// TestTrailUndoAllocs asserts the copy-on-write trail's allocation
// discipline: after warm-up (the trail slice has grown), a prune/undo
// cycle that would have copied a 200-element []int64 per save in the
// legacy kernel performs zero allocations.
func TestTrailUndoAllocs(t *testing.T) {
	st, cl := newTrailFixture()
	trailCycle(st, cl) // warm-up: grow the trail slice
	allocs := testing.AllocsPerRun(100, func() { trailCycle(st, cl) })
	if allocs != 0 {
		t.Fatalf("prune/undo cycle allocates %v/op, want 0", allocs)
	}
}

func BenchmarkTrailUndo(b *testing.B) {
	st, cl := newTrailFixture()
	trailCycle(st, cl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trailCycle(st, cl)
	}
}

// --- steady-state allocation lock ----------------------------------------

// newSearchFixture builds a warm kernel state over a chain of
// not-equal constraints: easy enough to solve greedily on the first
// restart attempt (no shuffle rng), hard enough to exercise
// propagation, the trail, and per-depth value buffers.
func newSearchFixture() (*kstate, []VarID) {
	s := New()
	d := dom(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	const n = 6
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = s.NewVar(fmt.Sprintf("v%d", i), d)
	}
	for i := 0; i+1 < n; i++ {
		s.Assert(NewCmp(sqltypes.OpNE, V(vars[i]), V(vars[i+1])))
	}
	s.Assert(NewCmp(sqltypes.OpLT, V(vars[0]), C(8)))

	ks := newKstoreLayout(s.domains)
	rep := make([]VarID, n)
	count := make([]int32, n)
	for v := range rep {
		rep[v] = VarID(v)
		count[v] = int32(len(s.domains[v]))
	}
	st := &kstate{
		cand:     ks.cand,
		off:      ks.off,
		rep:      rep,
		words:    ks.words,
		count:    count,
		assigned: make([]bool, n),
		value:    make([]int64, n),
		limit:    1 << 62,
	}
	var sc kcScratch
	for _, c := range s.cons {
		cl, cvs := kcompile(c, rep, &sc)
		st.clauses = append(st.clauses, cl)
		st.cvars = append(st.cvars, cvs)
	}
	st.buildWatch()
	st.degree = make([]int32, n)
	for v := range st.degree {
		st.degree[v] = int32(len(st.watch[v]))
	}
	if conflict, err := st.setupPropagate(0, nil); conflict || err != nil {
		panic(fmt.Sprintf("fixture setup: conflict=%v err=%v", conflict, err))
	}
	return st, rep
}

// searchCycle runs one full solve/undo cycle on the fixture: searchVars
// assigns every variable, then the trail and assignments are rolled
// back to the post-setup state so the next cycle replays identically.
func searchCycle(st *kstate, vars []VarID) {
	mark := st.tr.mark()
	if err := st.searchVars(vars); err != nil {
		panic(err)
	}
	st.undoTo(mark)
	for _, v := range vars {
		st.assigned[v] = false
	}
	st.impl = st.impl[:0]
	st.nodes = 0
}

// TestSearchSteadyStateAllocs is the hard 0-allocs/op lock on the
// kernel search loop: after one warm-up cycle (trail, propagation
// queue, and per-depth value buffers grown), a complete search + undo
// of the fixture must not allocate. Guarded in CI alongside
// TestTrailUndoAllocs.
func TestSearchSteadyStateAllocs(t *testing.T) {
	st, vars := newSearchFixture()
	searchCycle(st, vars) // warm-up: grow all reusable scratch
	allocs := testing.AllocsPerRun(100, func() { searchCycle(st, vars) })
	if allocs != 0 {
		t.Fatalf("steady-state search cycle allocates %v/op, want 0", allocs)
	}
}

func BenchmarkSearchSteadyState(b *testing.B) {
	st, vars := newSearchFixture()
	searchCycle(st, vars)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchCycle(st, vars)
	}
}

// --- component cache semantics -------------------------------------------

// TestComponentCacheSingleflight exercises the claim/publish/release
// protocol directly: a released claim wakes waiters into re-claiming,
// a published result is shared, and cancellation interrupts a wait.
func TestComponentCacheSingleflight(t *testing.T) {
	c := NewComponentCache()
	_, claimed, _, err := c.acquire([]byte("k"), nil, time.Time{})
	if err != nil || !claimed {
		t.Fatalf("first acquire: claimed=%v err=%v, want claim", claimed, err)
	}
	type got struct {
		res     compResult
		claimed bool
		err     error
	}
	waiter := make(chan got, 1)
	go func() {
		res, cl, _, err := c.acquire([]byte("k"), nil, time.Time{})
		waiter <- got{res, cl, err}
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case g := <-waiter:
		t.Fatalf("waiter returned early: %+v", g)
	default:
	}
	// Abandon the claim: the waiter must wake and become the claimant.
	c.release("k")
	g := <-waiter
	if g.err != nil || !g.claimed {
		t.Fatalf("after release: claimed=%v err=%v, want re-claim", g.claimed, g.err)
	}
	// Publish; a new reader sees the result without claiming.
	c.complete("k", compResult{model: []int64{42}})
	res, claimed, _, err := c.acquire([]byte("k"), nil, time.Time{})
	if err != nil || claimed || res.unsat || len(res.model) != 1 || res.model[0] != 42 {
		t.Fatalf("after complete: res=%+v claimed=%v err=%v", res, claimed, err)
	}
	// Cancellation interrupts waiting on an unpublished claim.
	_, claimed, _, _ = c.acquire([]byte("k2"), nil, time.Time{})
	if !claimed {
		t.Fatal("k2 claim")
	}
	done := make(chan struct{})
	close(done)
	if _, _, _, err := c.acquire([]byte("k2"), done, time.Time{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled wait: err = %v, want ErrCanceled", err)
	}
	c.release("k2")
	// A deadline interrupts waiting too.
	_, claimed, _, _ = c.acquire([]byte("k3"), nil, time.Time{})
	if !claimed {
		t.Fatal("k3 claim")
	}
	if _, _, _, err := c.acquire([]byte("k3"), nil, time.Now().Add(time.Millisecond)); !errors.Is(err, ErrLimit) {
		t.Fatalf("deadlined wait: err = %v, want ErrLimit", err)
	}
	c.release("k3")
}

// TestComponentCacheNotPoisonedByFailure runs a budget-limited solve
// that aborts mid-decomposition and asserts the cache holds no
// unpublished entries afterwards (a poisoned entry would deadlock or
// corrupt later solves), then that the same cache still serves a
// successful solve.
func TestComponentCacheNotPoisonedByFailure(t *testing.T) {
	cache := NewComponentCache()
	s := buildChain(3000)
	// Expired deadline: the solve fails inside setup or search.
	_, err := s.Solve(Options{Unfold: true, Decompose: true, Cache: cache, Timeout: time.Nanosecond})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	// Every map entry must be published (ok=true): Len counts published
	// entries and the map must not exceed them.
	cache.mu.Lock()
	for k, e := range cache.m {
		if !e.ok {
			t.Errorf("unpublished (poisoned) cache entry %q survived a failed solve", k)
		}
	}
	cache.mu.Unlock()
	s2 := buildChain(3000)
	if _, err := s2.Solve(Options{Unfold: true, Decompose: true, Cache: cache}); err != nil {
		t.Fatalf("cache unusable after failed solve: %v", err)
	}
}

// TestComponentCacheConcurrent hammers one shared cache from many
// goroutines solving the same instances (run with -race): results must
// agree with a serial solve.
func TestComponentCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	type inst struct {
		s    *Solver
		want bool // sat?
	}
	var insts []inst
	for i := 0; i < 20; i++ {
		s, _ := randInstance(rng)
		_, err := s.Solve(Options{Unfold: true})
		insts = append(insts, inst{s: s, want: err == nil})
	}
	cache := NewComponentCache()
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, in := range insts {
				// Each goroutine needs its own Solver (Solve mutates
				// last-stats), sharing domains and constraints.
				s := &Solver{domains: in.s.domains, names: in.s.names, cons: in.s.cons}
				_, err := s.Solve(Options{Unfold: true, Heuristics: true, Decompose: true, Cache: cache})
				sat := err == nil
				if err != nil && !errors.Is(err, ErrUnsat) {
					errc <- fmt.Errorf("worker %d inst %d: %v", w, i, err)
					return
				}
				if sat != in.want {
					errc <- fmt.Errorf("worker %d inst %d: sat=%v want %v", w, i, sat, in.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
