// Package solver is a finite-domain constraint solver playing the role
// CVC3 plays in the paper: it finds a model (an assignment of values to
// tuple-attribute variables) satisfying the constraints the X-Data
// generator emits — equality/comparison constraints over linear integer
// expressions, conjunction/disjunction, and bounded FORALL / EXISTS /
// NOT-EXISTS quantifiers over tuple arrays.
//
// Two solve modes reproduce the paper's §VI-B unfolding experiment:
//
//   - Unfolded: quantifiers are expanded into plain conjunctions /
//     disjunctions before search, and the search uses watched constraints
//     plus domain pruning — the fast path.
//   - Quantified: quantifier nodes stay opaque and are handled by a
//     lazy-instantiation loop (solve the ground fragment, check the
//     model against each quantifier, add a violated instance as a ground
//     lemma, restart), modelling how 2007-era SMT solvers such as CVC3
//     processed quantified formulas. The extra restarts and re-solves
//     are the work that unfolding eliminates; LastStats exposes them.
//
// Both modes are sound and complete over the given finite domains.
// String values are handled by the caller encoding them as integers over
// an order-preserving pool (see the core package).
package solver

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/sqltypes"
)

// VarID identifies a solver variable.
type VarID int32

// Lin is a linear expression: sum of Coef*Var terms plus a constant.
type Lin struct {
	Terms []Term
	Const int64
}

// Term is one Coef*Var summand.
type Term struct {
	Coef int64
	V    VarID
}

// vpage backs V's single-term expressions for small variable ids. V is
// the hottest Lin constructor (every attribute reference builds one),
// and Lin values are immutable by construction — Plus, Times, normalize
// and klinDiff always allocate fresh term slices — so every V(v) can
// share one read-only page of terms. Each view is capped at length 1 by
// a full slice expression: a caller appending to it reallocates instead
// of clobbering the neighboring variable's term.
const vpageSize = 1 << 14

var vpage = func() []Term {
	p := make([]Term, vpageSize)
	for i := range p {
		p[i] = Term{Coef: 1, V: VarID(i)}
	}
	return p
}()

// V returns the linear expression consisting of a single variable.
func V(v VarID) Lin {
	if v >= 0 && int(v) < vpageSize {
		return Lin{Terms: vpage[v : v+1 : v+1]}
	}
	return Lin{Terms: []Term{{Coef: 1, V: v}}}
}

// C returns a constant linear expression.
func C(c int64) Lin { return Lin{Const: c} }

// Plus returns l + o.
func (l Lin) Plus(o Lin) Lin {
	out := Lin{Const: l.Const + o.Const}
	out.Terms = append(append([]Term{}, l.Terms...), o.Terms...)
	return out.normalize()
}

// Minus returns l - o.
func (l Lin) Minus(o Lin) Lin { return l.Plus(o.Times(-1)) }

// Times returns l * k.
func (l Lin) Times(k int64) Lin {
	out := Lin{Const: l.Const * k}
	for _, t := range l.Terms {
		out.Terms = append(out.Terms, Term{Coef: t.Coef * k, V: t.V})
	}
	return out.normalize()
}

// normalize merges duplicate variables, drops zero coefficients and
// sorts terms by variable id. Linear expressions in this codebase are
// tiny (join and comparison conditions: one to three terms), so the
// common cases avoid the map + sort.Slice closure entirely — normalize
// runs on every Plus/Minus/Times and was ~10% of generation time.
func (l Lin) normalize() Lin {
	switch len(l.Terms) {
	case 0:
		return Lin{Const: l.Const}
	case 1:
		if l.Terms[0].Coef == 0 {
			return Lin{Const: l.Const}
		}
		return Lin{Const: l.Const, Terms: []Term{l.Terms[0]}}
	}
	if len(l.Terms) <= 8 {
		// Insertion sort-merge into a small slice: O(n²) with n ≤ 8.
		terms := make([]Term, 0, len(l.Terms))
		for _, t := range l.Terms {
			pos := len(terms)
			dup := false
			for i, u := range terms {
				if u.V == t.V {
					terms[i].Coef += t.Coef
					dup = true
					break
				}
				if u.V > t.V {
					pos = i
					break
				}
			}
			if !dup {
				terms = append(terms, Term{})
				copy(terms[pos+1:], terms[pos:])
				terms[pos] = t
			}
		}
		out := Lin{Const: l.Const, Terms: terms[:0]}
		for _, t := range terms {
			if t.Coef != 0 {
				out.Terms = append(out.Terms, t)
			}
		}
		return out
	}
	sum := map[VarID]int64{}
	for _, t := range l.Terms {
		sum[t.V] += t.Coef
	}
	out := Lin{Const: l.Const}
	for v, c := range sum {
		if c != 0 {
			out.Terms = append(out.Terms, Term{Coef: c, V: v})
		}
	}
	sort.Slice(out.Terms, func(i, j int) bool { return out.Terms[i].V < out.Terms[j].V })
	return out
}

// Con is a constraint node.
type Con interface{ conNode() }

// Cmp compares two linear expressions.
type Cmp struct {
	Op   sqltypes.CmpOp
	L, R Lin
}

func (*Cmp) conNode() {}

// NewCmp builds a comparison constraint.
func NewCmp(op sqltypes.CmpOp, l, r Lin) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// Eq is shorthand for an equality constraint.
func Eq(l, r Lin) *Cmp { return NewCmp(sqltypes.OpEQ, l, r) }

// And is a conjunction.
type And struct{ Cs []Con }

func (*And) conNode() {}

// NewAnd builds a conjunction.
func NewAnd(cs ...Con) *And { return &And{Cs: cs} }

// Or is a disjunction.
type Or struct{ Cs []Con }

func (*Or) conNode() {}

// NewOr builds a disjunction.
func NewOr(cs ...Con) *Or { return &Or{Cs: cs} }

// Quant is a bounded quantifier with pre-instantiated bodies: FORALL is a
// conjunction of bodies, EXISTS a disjunction. In unfolded mode it is
// flattened away before search; in quantified mode it is kept opaque and
// re-expanded on every evaluation.
type Quant struct {
	All    bool
	Bodies []Con
}

func (*Quant) conNode() {}

// ForAll builds a universal quantifier over instantiated bodies.
func ForAll(bodies ...Con) *Quant { return &Quant{All: true, Bodies: bodies} }

// Exists builds an existential quantifier over instantiated bodies.
func Exists(bodies ...Con) *Quant { return &Quant{All: false, Bodies: bodies} }

// NotExists builds the paper's ¬∃ constraint: the negation of each body,
// conjoined, kept as a quantifier node.
func NotExists(bodies ...Con) *Quant {
	neg := make([]Con, len(bodies))
	for i, b := range bodies {
		neg[i] = Negate(b)
	}
	return &Quant{All: true, Bodies: neg}
}

// Implies builds a => b as Or(¬a, b); used for primary-key functional
// dependencies (the chase).
func Implies(a, b Con) Con { return NewOr(Negate(a), b) }

// Negate returns the negation-normal-form negation of a constraint.
func Negate(c Con) Con {
	switch n := c.(type) {
	case *Cmp:
		return &Cmp{Op: n.Op.Negate(), L: n.L, R: n.R}
	case *And:
		out := make([]Con, len(n.Cs))
		for i, x := range n.Cs {
			out[i] = Negate(x)
		}
		return &Or{Cs: out}
	case *Or:
		out := make([]Con, len(n.Cs))
		for i, x := range n.Cs {
			out[i] = Negate(x)
		}
		return &And{Cs: out}
	case *Quant:
		out := make([]Con, len(n.Bodies))
		for i, x := range n.Bodies {
			out[i] = Negate(x)
		}
		return &Quant{All: !n.All, Bodies: out}
	default:
		panic(fmt.Sprintf("solver: Negate on %T", c))
	}
}

// Options configure a solve.
type Options struct {
	// Unfold selects the fast path: quantifier expansion solved by the
	// bitset search kernel (kernel.go) with component decomposition,
	// MRV + degree variable ordering and least-constraining-value
	// ordering. False models CVC3 without unfolding (§VI-B): lazy
	// quantifier instantiation over the list kernel (search.go).
	Unfold bool
	// NodeLimit bounds search nodes (0 = defaultNodeLimit). Together
	// with the context SolveContext is given — its cancellation and its
	// deadline — it is the only thing that stops a search.
	NodeLimit int64
	// Label is a diagnostic name for the solve (the caller's goal
	// purpose). It appears in injected-fault messages and lets the
	// fault-injection hook target specific solves deterministically.
	Label string
	// Cache, when non-nil, memoizes solved components by canonical key
	// so identical sub-problems shared across kill goals (and across
	// datasets) are solved once. Unfolded mode only. Safe for
	// concurrent use; see ComponentCache.
	Cache *ComponentCache
	// Arena, when non-nil, recycles the kernel's per-solve allocations
	// (see Arena). The arena must not be shared by concurrent solves.
	Arena *Arena
}

// defaultNodeLimit is the search-node bound of a solve that sets no
// Options.NodeLimit.
const defaultNodeLimit = 50_000_000

// Errors distinguishing "no model exists" (an equivalent mutation, in
// X-Data terms) from resource exhaustion and cooperative cancellation.
var (
	ErrUnsat = errors.New("solver: unsatisfiable")
	// ErrLimit reports an exhausted node limit. The solver reads no
	// clock, so only a node limit raises it; the message still says
	// "or time" because core.Failure.Err records it verbatim and the
	// pinned generation digests hash that text.
	ErrLimit = errors.New("solver: node or time limit exceeded")
	// ErrCanceled reports that the solve observed context cancellation
	// (cooperatively, inside the search loop) and stopped early. The
	// caller distinguishes user cancellation from a per-goal deadline by
	// inspecting its own contexts.
	ErrCanceled = errors.New("solver: canceled")
)

// Model maps variables to values.
type Model []int64

// Stats reports the work a solve performed: an implementation-
// independent measure of the unfolding ablation (the paper uses CVC3
// wall time as a proxy for the same work).
type Stats struct {
	// Nodes is the total number of search nodes visited, summed over
	// instantiation restarts in quantified mode.
	Nodes int64
	// Restarts is the number of lazy-instantiation rounds beyond the
	// first solve (always 0 in unfolded mode).
	Restarts int64
	// ComponentCount is the number of connected components the
	// constraint graph decomposed into (0 in quantified mode).
	// Isolated variables count as singleton components.
	ComponentCount int64
	// ComponentCacheHits counts components answered from
	// Options.Cache instead of being searched.
	ComponentCacheHits int64
	// BasePropagationNodes is the propagation work the attached shared
	// base saved this solve: the fixed-point pruning performed once in
	// PrepareBase and reused here instead of being recomputed (0 when
	// no base is attached).
	BasePropagationNodes int64
}

// Solver accumulates variables and constraints.
type Solver struct {
	domains [][]int64
	names   []string
	cons    []Con
	last    Stats
	// base, when non-nil, is a shared pre-propagated constraint core
	// (see PrepareBase): the asserted cons are the goal's delta on top
	// of it. Only the bitset kernel consumes it.
	base *Base
}

// LastStats returns the work counters of the most recent Solve call.
func (s *Solver) LastStats() Stats { return s.last }

// New returns an empty solver.
func New() *Solver { return &Solver{} }

// NewShared returns a solver whose variables (domains and names) alias
// those of layout, without copying: the caller declares the variable
// space once — typically per dataset-layout key — and attaches it to
// many per-goal solvers. The solver never mutates domain slices in
// place, so the shared layout stays immutable. Asserting constraints
// on the returned solver does not affect layout.
func NewShared(layout *Solver) *Solver {
	return &Solver{domains: layout.domains, names: layout.names}
}

// AttachBase attaches a shared pre-propagated constraint core (see
// PrepareBase) built over the same variable layout. Constraints
// asserted on s are then treated as the goal-specific delta: the
// solve starts from the base's fixed-point domain store and its
// precompiled clauses instead of re-flattening, re-compiling and
// re-propagating the core. Requires unfolded mode (the bitset kernel);
// quantified mode refuses an attached base, so callers must assert the
// base constraints themselves when they intend to solve without
// unfolding.
func (s *Solver) AttachBase(b *Base) { s.base = b }

// NewVar declares a variable with the given (non-empty, deduplicated,
// order-preserved) candidate domain. The name is for diagnostics.
func (s *Solver) NewVar(name string, domain []int64) VarID {
	seen := make(map[int64]bool, len(domain))
	d := make([]int64, 0, len(domain))
	for _, v := range domain {
		if !seen[v] {
			seen[v] = true
			d = append(d, v)
		}
	}
	return s.NewVarUnique(name, d)
}

// NewVarUnique is NewVar for a domain the caller guarantees is already
// duplicate-free: it skips the deduplication pass (which dominates
// variable declaration when domains are large and, as in core's value
// pools, already unique). The solver keeps the slice; the caller must
// not mutate it afterwards.
func (s *Solver) NewVarUnique(name string, domain []int64) VarID {
	if len(domain) == 0 {
		domain = []int64{0}
	}
	s.domains = append(s.domains, domain)
	s.names = append(s.names, name)
	return VarID(len(s.domains) - 1)
}

// NumVars returns the number of declared variables.
func (s *Solver) NumVars() int { return len(s.domains) }

// ProblemSize returns the number of asserted constraints plus the total
// candidate-domain cardinality over all variables: a deterministic
// measure of problem size (wall time tracks it, noisily). Input-database
// constraints grow the domains rather than the constraint count, so
// both terms are needed for the §VI-C.3 growth shape.
func (s *Solver) ProblemSize() int64 {
	n := int64(len(s.cons))
	if s.base != nil {
		// The shared core's constraints are part of this problem even
		// though they are not re-asserted per goal.
		n += int64(s.base.ncons)
	}
	for _, d := range s.domains {
		n += int64(len(d))
	}
	return n
}

// Name returns a variable's diagnostic name.
func (s *Solver) Name(v VarID) string { return s.names[v] }

// Assert adds a constraint.
func (s *Solver) Assert(c Con) {
	if c != nil {
		s.cons = append(s.cons, c)
	}
}

// Solve searches for a model of all asserted constraints.
func (s *Solver) Solve(opts Options) (Model, error) {
	return s.SolveContext(context.Background(), opts)
}

// SolveContext is Solve with cooperative cancellation: the search checks
// ctx periodically (every ~1024 nodes in the unfolded DFS, and at every
// lazy-instantiation round in quantified mode) and returns ErrCanceled
// once ctx is done. Cancellation is prompt — bounded by one check
// interval — and leaves the solver reusable.
func (s *Solver) SolveContext(ctx context.Context, opts Options) (Model, error) {
	s.last = Stats{}
	if m, err, injected := injectFault(ctx, opts); injected {
		return m, err
	}
	if err := ctx.Err(); err != nil {
		return nil, ErrCanceled
	}
	if s.base != nil && !opts.Unfold {
		// Quantified mode would silently ignore the base's constraints
		// and return models violating them; refuse instead.
		return nil, fmt.Errorf("solver: attached base requires unfolded mode")
	}
	limit := opts.NodeLimit
	if limit == 0 {
		limit = defaultNodeLimit
	}
	done := ctx.Done()
	if opts.Unfold {
		return s.solveKernel(done, limit, opts)
	}
	return s.solveQuantified(done, limit)
}

// flatten expands Quant nodes into And/Or recursively. Subtrees without
// Quant nodes are returned as-is (constraint trees are immutable once
// asserted, so structural sharing is safe): in unfolded mode — the hot
// path, where core asserts Quant-free constraints — flatten is then a
// pointer-returning walk instead of a full tree copy.
func flatten(c Con) Con {
	switch n := c.(type) {
	case *Cmp:
		return n
	case *And:
		if out, changed := flattenSlice(n.Cs); changed {
			return &And{Cs: out}
		}
		return n
	case *Or:
		if out, changed := flattenSlice(n.Cs); changed {
			return &Or{Cs: out}
		}
		return n
	case *Quant:
		out := make([]Con, len(n.Bodies))
		for i, x := range n.Bodies {
			out[i] = flatten(x)
		}
		if n.All {
			return &And{Cs: out}
		}
		return &Or{Cs: out}
	default:
		panic(fmt.Sprintf("solver: flatten on %T", c))
	}
}

// flattenSlice flattens each child, copying the slice only if some child
// actually changed.
func flattenSlice(cs []Con) ([]Con, bool) {
	for i, x := range cs {
		fx := flatten(x)
		if fx == x {
			continue
		}
		out := make([]Con, len(cs))
		copy(out, cs[:i])
		out[i] = fx
		for j := i + 1; j < len(cs); j++ {
			out[j] = flatten(cs[j])
		}
		return out, true
	}
	return cs, false
}

// String renders a constraint for diagnostics.
func ConString(c Con, name func(VarID) string) string {
	switch n := c.(type) {
	case *Cmp:
		return linString(n.L, name) + " " + n.Op.String() + " " + linString(n.R, name)
	case *And:
		return naryString("AND", n.Cs, name)
	case *Or:
		return naryString("OR", n.Cs, name)
	case *Quant:
		kw := "EXISTS"
		if n.All {
			kw = "FORALL"
		}
		return kw + naryString("", n.Bodies, name)
	default:
		return fmt.Sprintf("%T", c)
	}
}

func naryString(op string, cs []Con, name func(VarID) string) string {
	out := "("
	for i, c := range cs {
		if i > 0 {
			out += " " + op + " "
		}
		out += ConString(c, name)
	}
	return out + ")"
}

func linString(l Lin, name func(VarID) string) string {
	out := ""
	for i, t := range l.Terms {
		if i > 0 {
			out += " + "
		}
		if t.Coef != 1 {
			out += fmt.Sprintf("%d*", t.Coef)
		}
		out += name(t.V)
	}
	if l.Const != 0 || len(l.Terms) == 0 {
		if out != "" {
			out += " + "
		}
		out += fmt.Sprintf("%d", l.Const)
	}
	return out
}
