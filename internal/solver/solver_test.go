package solver

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/sqltypes"
)

func solveBoth(t *testing.T, s *Solver) (Model, Model, error, error) {
	t.Helper()
	mu, eu := s.Solve(Options{Unfold: true})
	mq, eq := s.Solve(Options{Unfold: false})
	return mu, mq, eu, eq
}

func dom(vals ...int64) []int64 { return vals }

func TestSimpleEquality(t *testing.T) {
	s := New()
	x := s.NewVar("x", dom(1, 2, 3))
	y := s.NewVar("y", dom(2, 3, 4))
	s.Assert(Eq(V(x), V(y)))
	mu, mq, eu, eq := solveBoth(t, s)
	if eu != nil || eq != nil {
		t.Fatalf("errors: %v %v", eu, eq)
	}
	if mu[x] != mu[y] || mq[x] != mq[y] {
		t.Errorf("models: %v %v", mu, mq)
	}
}

func TestUnsatDisjointDomains(t *testing.T) {
	s := New()
	x := s.NewVar("x", dom(1, 2))
	y := s.NewVar("y", dom(5, 6))
	s.Assert(Eq(V(x), V(y)))
	_, _, eu, eq := solveBoth(t, s)
	if !errors.Is(eu, ErrUnsat) || !errors.Is(eq, ErrUnsat) {
		t.Errorf("errors: %v %v", eu, eq)
	}
}

func TestLinearArithmetic(t *testing.T) {
	// b = c + 10, the paper's non-equi-join example.
	s := New()
	b := s.NewVar("b", dom(0, 5, 10, 15, 20))
	c := s.NewVar("c", dom(0, 5, 10, 15, 20))
	s.Assert(Eq(V(b), V(c).Plus(C(10))))
	mu, mq, eu, eq := solveBoth(t, s)
	if eu != nil || eq != nil {
		t.Fatalf("errors: %v %v", eu, eq)
	}
	for _, m := range []Model{mu, mq} {
		if m[b] != m[c]+10 {
			t.Errorf("model: b=%d c=%d", m[b], m[c])
		}
	}
}

func TestComparisonOperators(t *testing.T) {
	for _, op := range sqltypes.AllCmpOps {
		s := New()
		x := s.NewVar("x", dom(1, 2, 3))
		s.Assert(NewCmp(op, V(x), C(2)))
		mu, mq, eu, eq := solveBoth(t, s)
		if eu != nil || eq != nil {
			t.Fatalf("%s: errors %v %v", op, eu, eq)
		}
		for _, m := range []Model{mu, mq} {
			if sqltypes.TriCompare(op, sqltypes.NewInt(m[x]), sqltypes.NewInt(2)) != sqltypes.True {
				t.Errorf("%s: x=%d violates", op, m[x])
			}
		}
	}
}

func TestCoefficients(t *testing.T) {
	// 2x - 3y = 1 with small domains.
	s := New()
	x := s.NewVar("x", dom(0, 1, 2, 3, 4, 5))
	y := s.NewVar("y", dom(0, 1, 2, 3))
	s.Assert(Eq(V(x).Times(2).Minus(V(y).Times(3)), C(1)))
	mu, _, eu, _ := solveBoth(t, s)
	if eu != nil {
		t.Fatalf("err: %v", eu)
	}
	if 2*mu[x]-3*mu[y] != 1 {
		t.Errorf("model: %v", mu)
	}
}

func TestOrConstraint(t *testing.T) {
	s := New()
	x := s.NewVar("x", dom(1, 2, 3))
	s.Assert(NewOr(Eq(V(x), C(7)), Eq(V(x), C(3))))
	mu, mq, eu, eq := solveBoth(t, s)
	if eu != nil || eq != nil {
		t.Fatalf("errors: %v %v", eu, eq)
	}
	if mu[x] != 3 || mq[x] != 3 {
		t.Errorf("models: %v %v", mu, mq)
	}
}

func TestImpliesChasePattern(t *testing.T) {
	// Primary-key FD: r1.k = r2.k => r1.a = r2.a (the chase, §V-B).
	s := New()
	k1 := s.NewVar("r1.k", dom(1, 2))
	a1 := s.NewVar("r1.a", dom(10, 20))
	k2 := s.NewVar("r2.k", dom(1, 2))
	a2 := s.NewVar("r2.a", dom(10, 20))
	s.Assert(Implies(Eq(V(k1), V(k2)), Eq(V(a1), V(a2))))
	// Force keys equal and a-values different: must be UNSAT.
	s.Assert(Eq(V(k1), V(k2)))
	s.Assert(NewCmp(sqltypes.OpNE, V(a1), V(a2)))
	_, _, eu, eq := solveBoth(t, s)
	if !errors.Is(eu, ErrUnsat) || !errors.Is(eq, ErrUnsat) {
		t.Errorf("chase violated: %v %v", eu, eq)
	}
}

func TestForAllExistsFKPattern(t *testing.T) {
	// FK: every s[i].b must equal some r[j].a; two s tuples, two r
	// tuples.
	s := New()
	sb := []VarID{s.NewVar("s0.b", dom(1, 2, 3)), s.NewVar("s1.b", dom(1, 2, 3))}
	ra := []VarID{s.NewVar("r0.a", dom(1, 2, 3)), s.NewVar("r1.a", dom(1, 2, 3))}
	var bodies []Con
	for _, sv := range sb {
		var disj []Con
		for _, rv := range ra {
			disj = append(disj, Eq(V(sv), V(rv)))
		}
		bodies = append(bodies, Exists(disj...))
	}
	s.Assert(ForAll(bodies...))
	// Force all different values on s side: s0.b=1, s1.b=2.
	s.Assert(Eq(V(sb[0]), C(1)))
	s.Assert(Eq(V(sb[1]), C(2)))
	mu, mq, eu, eq := solveBoth(t, s)
	if eu != nil || eq != nil {
		t.Fatalf("errors: %v %v", eu, eq)
	}
	for _, m := range []Model{mu, mq} {
		for _, sv := range sb {
			found := false
			for _, rv := range ra {
				if m[sv] == m[rv] {
					found = true
				}
			}
			if !found {
				t.Errorf("FK violated in %v", m)
			}
		}
	}
}

func TestNotExistsPattern(t *testing.T) {
	// The paper's nullification constraint: no r tuple matches value 5.
	s := New()
	r0 := s.NewVar("r0.x", dom(4, 5, 6))
	r1 := s.NewVar("r1.x", dom(4, 5, 6))
	s.Assert(NotExists(Eq(V(r0), C(5)), Eq(V(r1), C(5))))
	mu, mq, eu, eq := solveBoth(t, s)
	if eu != nil || eq != nil {
		t.Fatalf("errors: %v %v", eu, eq)
	}
	for _, m := range []Model{mu, mq} {
		if m[r0] == 5 || m[r1] == 5 {
			t.Errorf("NOT EXISTS violated: %v", m)
		}
	}
}

func TestNotExistsUnsatWithFK(t *testing.T) {
	// Nullifying a referenced key that a foreign key forces to exist:
	// the paper's equivalent-mutation case must come back UNSAT.
	s := New()
	fk := s.NewVar("a.x", dom(1))
	pk := s.NewVar("b.x", dom(1, 2))
	s.Assert(Exists(Eq(V(fk), V(pk)))) // FK: a.x references b.x (one b tuple)
	s.Assert(Eq(V(fk), C(1)))
	s.Assert(NotExists(Eq(V(pk), C(1)))) // nullify b on value 1
	_, _, eu, eq := solveBoth(t, s)
	if !errors.Is(eu, ErrUnsat) || !errors.Is(eq, ErrUnsat) {
		t.Errorf("expected UNSAT: %v %v", eu, eq)
	}
}

func TestNegate(t *testing.T) {
	s := New()
	x := s.NewVar("x", dom(1, 2, 3))
	inner := NewAnd(NewCmp(sqltypes.OpGT, V(x), C(1)), NewCmp(sqltypes.OpLT, V(x), C(3)))
	s.Assert(Negate(inner)) // NOT (x>1 AND x<3) => x<=1 OR x>=3
	mu, _, eu, _ := solveBoth(t, s)
	if eu != nil {
		t.Fatalf("err: %v", eu)
	}
	if mu[x] == 2 {
		t.Errorf("negation violated: %v", mu)
	}
}

func TestNegateQuant(t *testing.T) {
	s := New()
	x := s.NewVar("x", dom(1, 2))
	y := s.NewVar("y", dom(1, 2))
	// NOT (EXISTS: x=1 or y=1)  =>  x!=1 AND y!=1.
	s.Assert(Negate(Exists(Eq(V(x), C(1)), Eq(V(y), C(1)))))
	mu, mq, eu, eq := solveBoth(t, s)
	if eu != nil || eq != nil {
		t.Fatalf("errors: %v %v", eu, eq)
	}
	for _, m := range []Model{mu, mq} {
		if m[x] == 1 || m[y] == 1 {
			t.Errorf("model %v violates", m)
		}
	}
}

func TestEmptyProblemIsSat(t *testing.T) {
	s := New()
	s.NewVar("x", dom(1))
	m, err := s.Solve(Options{Unfold: true})
	if err != nil || m[0] != 1 {
		t.Errorf("m=%v err=%v", m, err)
	}
}

func TestNodeLimit(t *testing.T) {
	// A deliberately hard UNSAT pigeonhole-ish instance with a tiny node
	// budget must return ErrLimit, not ErrUnsat.
	s := New()
	const n = 12
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = s.NewVar("p", dom(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s.Assert(NewCmp(sqltypes.OpNE, V(vars[i]), V(vars[j])))
		}
	}
	_, err := s.Solve(Options{Unfold: false, NodeLimit: 50})
	if !errors.Is(err, ErrLimit) {
		t.Errorf("err = %v, want ErrLimit", err)
	}
}

func TestDomainDeduplication(t *testing.T) {
	s := New()
	x := s.NewVar("x", dom(1, 1, 2, 2, 1))
	if got := len(s.domains[x]); got != 2 {
		t.Errorf("domain size = %d", got)
	}
}

func TestValueOrderPreference(t *testing.T) {
	// The first feasible domain value must be chosen (callers order
	// domains to prefer intuitive values).
	s := New()
	x := s.NewVar("x", dom(7, 1, 5))
	m, err := s.Solve(Options{Unfold: true})
	if err != nil || m[x] != 7 {
		t.Errorf("m=%v err=%v, want x=7", m, err)
	}
}

func TestLinNormalization(t *testing.T) {
	x, y := VarID(0), VarID(1)
	l := V(x).Plus(V(y)).Minus(V(x)) // should cancel x
	if len(l.Terms) != 1 || l.Terms[0].V != y {
		t.Errorf("normalize = %+v", l)
	}
	l2 := V(x).Times(0)
	if len(l2.Terms) != 0 {
		t.Errorf("zero coef kept: %+v", l2)
	}
}

// Property: on random small instances, the two modes agree on
// satisfiability, and any returned model satisfies every constraint.
func TestModesAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		s := New()
		nv := 2 + rng.Intn(4)
		vars := make([]VarID, nv)
		for i := range vars {
			var d []int64
			for k := 0; k <= rng.Intn(4); k++ {
				d = append(d, int64(rng.Intn(5)))
			}
			vars[i] = s.NewVar("v", d)
		}
		nc := 1 + rng.Intn(5)
		var cons []Con
		randLin := func() Lin {
			l := C(int64(rng.Intn(5) - 2))
			for k := 0; k < 1+rng.Intn(2); k++ {
				l = l.Plus(V(vars[rng.Intn(nv)]).Times(int64(1 + rng.Intn(2))))
			}
			return l
		}
		for c := 0; c < nc; c++ {
			cmp := NewCmp(sqltypes.AllCmpOps[rng.Intn(6)], randLin(), randLin())
			switch rng.Intn(4) {
			case 0:
				cons = append(cons, cmp)
			case 1:
				cons = append(cons, NewOr(cmp, NewCmp(sqltypes.AllCmpOps[rng.Intn(6)], randLin(), randLin())))
			case 2:
				cons = append(cons, ForAll(cmp, NewCmp(sqltypes.AllCmpOps[rng.Intn(6)], randLin(), randLin())))
			default:
				cons = append(cons, Exists(cmp, NewCmp(sqltypes.AllCmpOps[rng.Intn(6)], randLin(), randLin())))
			}
		}
		for _, c := range cons {
			s.Assert(c)
		}
		mu, eu := s.Solve(Options{Unfold: true})
		mq, eq := s.Solve(Options{Unfold: false})
		if (eu == nil) != (eq == nil) {
			t.Fatalf("iter %d: modes disagree: unfolded=%v quantified=%v", iter, eu, eq)
		}
		for name, m := range map[string]Model{"unfolded": mu, "quantified": mq} {
			if m == nil {
				continue
			}
			st := &state{assigned: make([]bool, nv), value: m, domains: s.domains}
			for i := range st.assigned {
				st.assigned[i] = true
			}
			for _, c := range cons {
				if evalCon(st, c) != sqltypes.True {
					t.Fatalf("iter %d: %s model %v violates %s", iter, name, m, ConString(c, s.Name))
				}
			}
		}
	}
}

func TestConString(t *testing.T) {
	s := New()
	x := s.NewVar("x", dom(1))
	y := s.NewVar("y", dom(1))
	c := NewOr(Eq(V(x).Times(2).Plus(C(1)), V(y)), NewCmp(sqltypes.OpLT, V(x), C(5)))
	got := ConString(c, s.Name)
	want := "(2*x + 1 = y OR x < 5)"
	if got != want {
		t.Errorf("ConString = %q, want %q", got, want)
	}
}

func TestLastStats(t *testing.T) {
	s := New()
	x := s.NewVar("x", dom(1, 2, 3))
	y := s.NewVar("y", dom(1, 2, 3))
	s.Assert(ForAll(Exists(Eq(V(x), V(y)))))
	s.Assert(NewCmp(sqltypes.OpNE, V(x), C(1)))
	if _, err := s.Solve(Options{Unfold: true}); err != nil {
		t.Fatal(err)
	}
	unfolded := s.LastStats()
	if unfolded.Nodes == 0 || unfolded.Restarts != 0 {
		t.Errorf("unfolded stats = %+v", unfolded)
	}
	if _, err := s.Solve(Options{Unfold: false}); err != nil {
		t.Fatal(err)
	}
	quantified := s.LastStats()
	if quantified.Nodes < unfolded.Nodes {
		t.Errorf("quantified nodes %d < unfolded %d", quantified.Nodes, unfolded.Nodes)
	}
	// Stats reset between solves: a second unfolded solve reports the
	// same counts as the first.
	if _, err := s.Solve(Options{Unfold: true}); err != nil {
		t.Fatal(err)
	}
	if got := s.LastStats(); got != unfolded {
		t.Errorf("stats not reset: %+v vs %+v", got, unfolded)
	}
}

func TestQuantifiedInstantiationRestarts(t *testing.T) {
	// A quantifier the first ground model must violate forces at least
	// one instantiation restart.
	s := New()
	x := s.NewVar("x", dom(1, 2, 3))
	s.Assert(ForAll(NewCmp(sqltypes.OpGE, V(x), C(3))))
	m, err := s.Solve(Options{Unfold: false})
	if err != nil || m[x] != 3 {
		t.Fatalf("m=%v err=%v", m, err)
	}
	if s.LastStats().Restarts == 0 {
		t.Errorf("expected instantiation restarts, stats = %+v", s.LastStats())
	}
}

// Determinism: repeated solves of the same problem yield the same model
// (restart shuffling is seeded).
func TestSolveDeterministic(t *testing.T) {
	build := func() (*Solver, []VarID) {
		s := New()
		var vars []VarID
		for i := 0; i < 8; i++ {
			vars = append(vars, s.NewVar("v", dom(0, 1, 2, 3, 4)))
		}
		for i := 0; i+1 < 8; i++ {
			s.Assert(NewCmp(sqltypes.OpNE, V(vars[i]), V(vars[i+1])))
		}
		return s, vars
	}
	s1, _ := build()
	m1, err := s1.Solve(Options{Unfold: true})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := build()
	m2, err := s2.Solve(Options{Unfold: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("non-deterministic: %v vs %v", m1, m2)
		}
	}
}

// Hard-but-satisfiable instances must be rescued by randomized restarts
// rather than thrashing: a graph-coloring-ish instance with an adverse
// initial value order.
func TestRestartEscapesThrash(t *testing.T) {
	s := New()
	const n = 14
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = s.NewVar("c", dom(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13))
	}
	// All-different plus a parity twist that defeats the ascending order.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s.Assert(NewCmp(sqltypes.OpNE, V(vars[i]), V(vars[j])))
		}
	}
	s.Assert(NewCmp(sqltypes.OpGE, V(vars[0]), C(13)))
	m, err := s.Solve(Options{Unfold: true, NodeLimit: 5_000_000})
	if err != nil {
		t.Fatalf("err=%v (stats %+v)", err, s.LastStats())
	}
	seen := map[int64]bool{}
	for _, v := range vars {
		if seen[m[v]] {
			t.Fatalf("all-different violated: %v", m)
		}
		seen[m[v]] = true
	}
}
