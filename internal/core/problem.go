// Package core implements the paper's primary contribution: the X-Data
// dataset-generation algorithms (§V, Algorithms 1–4). Given a normalized
// query it emits, for each targeted mutant group, a constraint system
// over per-occurrence tuple variables — join/selection conditions,
// primary-key functional dependencies (the chase), foreign-key subset
// constraints with referenced-tuple repair, domain constraints, and the
// kill-specific NOT-EXISTS / comparison-variant / aggregation constraint
// sets — solves it with the constraint solver, and extracts a small
// schema-valid dataset from the model.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/sqltypes"
)

// maxSlotsPerRelation caps tuple-array sizes; the paper's CVC3 broke down
// near 9 tuples per relation (§VI-C.3), and generated datasets are meant
// to be small.
const maxSlotsPerRelation = 8

// slot is one tuple variable array entry for a base relation.
type slot struct {
	rel  *schema.Relation
	idx  int // index within the relation's slot array
	vars []solver.VarID
	// row is the slot's index among all slots in extraction order
	// (relations by name, then slot index), and cell the offset of its
	// first column in an extracted dataset's value buffer.
	row, cell int
}

// problem is one constraint system: the CVC3 input of the paper, built
// fresh per dataset.
type problem struct {
	g     *Generator
	s     *solver.Solver
	pl    *problemLayout
	slots map[string][]*slot // base relation name -> slots
	// occSlot maps (occurrence name, tuple-set index) to a slot. Non-
	// aggregation datasets use tuple set 0 only; killAggregates uses
	// sets 0, 1, 2 (Algorithm 4).
	occSlot map[occSet]*slot
	strs    *stringPool
	// nullPatches are cells overwritten with NULL at extraction time —
	// the §V-H nullable-foreign-key alternative, where a NULL foreign
	// key stands in for an impossible nullification of the referenced
	// attribute. The solver itself is NULL-free.
	nullPatches []nullPatch
	// skipFK suppresses the foreign-key constraint for specific
	// (slot, fk-index) pairs whose columns will be NULL-patched.
	skipFK map[*slot]map[int]bool
	// forceInput applies the §VI-A input-tuple constraints for this
	// problem. Threaded per problem (not via Generator options) so
	// concurrent kill goals never mutate shared state.
	forceInput bool
	// skipSubs suppresses the retained-subquery connective assertion for
	// specific q.Subs indices: the subquery kill goals build datasets
	// that deliberately violate their targeted block's connective.
	skipSubs map[int]bool
	// slab carves the nodes of the database constraints this problem
	// asserts.
	slab solver.Slab
	// fillerConds, when set by a goal's build function, replaces the
	// default HAVING group-filler assertion (assertQueryConds with no
	// skips) for each filler tuple set. Violating goals need it: their
	// datasets show rows only through the MUTANT query, so the fillers
	// that bulk the group past the HAVING filter must satisfy the
	// mutated condition, not the original one — asserting the original
	// on a filler contradicts the goal's not-exists constraints and
	// silently renders the goal UNSAT. (randql seed 10067: with
	// HAVING COUNT(*) <> 1, every violating comparison goal was dropped
	// and the <> mutant survived.)
	fillerConds func(set int) error
}

type nullPatch struct {
	sl  *slot
	pos int
}

// patchNull records that the slot's column will be NULL in the extracted
// dataset and disables every foreign key of the slot's relation that
// involves the column (a NULL foreign key is vacuously satisfied).
func (p *problem) patchNull(sl *slot, attr string) {
	pos := sl.rel.AttrPos(attr)
	p.nullPatches = append(p.nullPatches, nullPatch{sl: sl, pos: pos})
	for fi, fk := range sl.rel.ForeignKeys {
		for _, c := range fk.Columns {
			if c == attr {
				if p.skipFK == nil {
					p.skipFK = map[*slot]map[int]bool{}
				}
				if p.skipFK[sl] == nil {
					p.skipFK[sl] = map[int]bool{}
				}
				p.skipFK[sl][fi] = true
			}
		}
	}
}

type occSet struct {
	occ string
	set int
}

// stringPool encodes string values as integers with order preserved, so
// the solver's <, <= work lexicographically. pref lists the codes in
// preference order for value selection: query constants first, then
// friendly fresh names, then the low/high comparison sentinels.
type stringPool struct {
	vals []string
	code map[string]int64
	pref []int64
}

// size is the number of distinct string values in the pool (the width
// it contributes to string-typed candidate domains).
func (p *stringPool) size() int { return len(p.vals) }

func newStringPool(consts map[string]bool, fresh int) *stringPool {
	set := make(map[string]bool, len(consts)+fresh+2*(fresh/2+1))
	for s := range consts {
		set[s] = true
	}
	// Fresh names are str_a .. str_z, then str_az .. str_zz, and so on.
	for i := 0; i < fresh; i++ {
		set["str_"+string(rune('a'+i%26))+strings.Repeat("z", i/26)] = true
	}
	// Comparison-operator datasets need values strictly below and above
	// every constant; '!' sorts below and '~' above all ordinary text.
	for i := 0; i < fresh/2+1; i++ {
		letter := string(rune('a' + i%26))
		set["!low_"+letter] = true
		set["~high_"+letter] = true
	}
	// ... and values strictly BETWEEN adjacent constants, so goals like
	// c1 < v < c2 (a > variant of = c1 under a < c2 conjunct) stay
	// satisfiable. Appending '!' (below 'a') or 'm' to the lower constant
	// yields a between-value even when one constant prefixes the other.
	cs := make([]string, 0, len(consts))
	for s := range consts {
		cs = append(cs, s)
	}
	sort.Strings(cs)
	for i := 0; i+1 < len(cs); i++ {
		lo, hi := cs[i], cs[i+1]
		for _, cand := range []string{lo + "!", lo + "m", lo + "~"} {
			if lo < cand && cand < hi {
				set[cand] = true
				break
			}
		}
	}
	vals := make([]string, 0, len(set))
	for s := range set {
		vals = append(vals, s)
	}
	sort.Strings(vals)
	p := &stringPool{vals: vals, code: make(map[string]int64, len(vals))}
	for i, s := range vals {
		p.code[s] = int64(i)
	}
	rank := func(s string) int {
		switch {
		case consts[s]:
			return 0
		case strings.HasPrefix(s, "str_"):
			return 1
		default:
			return 2 // comparison sentinels
		}
	}
	for r := 0; r <= 2; r++ {
		for i, s := range vals {
			if rank(s) == r {
				p.pref = append(p.pref, int64(i))
			}
		}
	}
	return p
}

func (p *stringPool) decode(c int64) string {
	if c < 0 || int(c) >= len(p.vals) {
		return fmt.Sprintf("str?%d", c)
	}
	return p.vals[c]
}

// layoutKey identifies a variable layout: every problem with the same
// slot shape (tuple sets × repair capacity) declares the identical
// variable space, so it is declared once and shared.
type layoutKey struct {
	tupleSets  int
	needRepair bool
}

// problemLayout is the immutable, shareable part of a problem: the
// declared solver variable space, the slot arrays, the
// occurrence-to-slot mapping and the query-condition constraints over
// them. Built once per layoutKey by Generator.layoutForLocked; problems
// alias it via solver.NewShared and never mutate it (everything is
// written only during construction; the per-goal mutable state —
// skipFK, nullPatches, forceInput, asserted constraints — lives on the
// problem and its own solver).
type problemLayout struct {
	s       *solver.Solver
	slots   map[string][]*slot
	occSlot map[occSet]*slot
	// rels lists the populated relations sorted by name: the order of
	// the database constraints, the input-tuple constraints and the
	// extracted rows.
	rels []layoutRel
	// nslots and ncells count the slots and their columns over all
	// relations: the sizes of an extracted dataset's row and value
	// buffers.
	nslots, ncells int
	// conds[set] holds tuple set set's query-condition constraints.
	conds []queryConds
}

// layoutRel is one populated relation of a layout.
type layoutRel struct {
	rel   *schema.Relation
	table string // the dataset table name (lower-cased relation name)
	slots []*slot
}

// queryConds are one tuple set's query-condition constraints: the
// equality chain of every equivalence class and the constraint of every
// predicate, indexed like q.Classes and q.Preds, each with the error
// compiling it reported (nil on success). They are built once per
// layout and asserted by every goal that needs them; constraint trees
// are immutable once asserted, so goals share them.
type queryConds struct {
	classes  [][]solver.Con
	classErr []error
	preds    []solver.Con
	predErr  []error
}

// baseKey identifies a shared constraint core: the layout shape plus
// whether the §VI-A input-tuple constraints are included. Goals that
// suppress foreign keys (skipFK) never attach a core.
type baseKey struct {
	tupleSets  int
	needRepair bool
	forceInput bool
}

// newProblem allocates tuple slots and variables for a dataset, sharing
// the variable layout across all goals with the same shape (the
// per-goal solver aliases the layout's domains without copying — the
// variable declaration loop used to be ~25% of generation time).
//
// tupleSets is 1 for ordinary datasets, 3 for aggregation datasets.
// needRepair adds the paper's referenced-tuple repair capacity: for every
// foreign key R -> S, S receives one extra slot per R slot, so that a
// NOT-EXISTS nullification of S values can coexist with R's foreign keys
// (§V-B). Transitively referenced relations outside the query are always
// included so the dataset is a legal database instance.
func (g *Generator) newProblem(tupleSets int, needRepair bool) (*problem, error) {
	g.mu.Lock()
	pl, err := g.layoutForLocked(tupleSets, needRepair)
	g.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return g.problemOn(pl), nil
}

// problemOn returns an empty problem over layout pl.
func (g *Generator) problemOn(pl *problemLayout) *problem {
	return &problem{
		g:       g,
		s:       solver.NewShared(pl.s),
		pl:      pl,
		slots:   pl.slots,
		occSlot: pl.occSlot,
		strs:    g.strPool,
	}
}

// layoutForLocked returns (building and caching on first use) the
// shared layout for a problem shape. Caller holds g.mu.
func (g *Generator) layoutForLocked(tupleSets int, needRepair bool) (*problemLayout, error) {
	key := layoutKey{tupleSets: tupleSets, needRepair: needRepair}
	if pl, ok := g.layouts[key]; ok {
		return pl, nil
	}
	pl, err := g.buildLayout(tupleSets, needRepair)
	if err != nil {
		return nil, err
	}
	if g.layouts == nil {
		g.layouts = map[layoutKey]*problemLayout{}
	}
	g.layouts[key] = pl
	return pl, nil
}

// baseFor returns (building and caching on first use) the shared
// pre-propagated database-constraint core for a problem shape. built
// reports whether this call performed the build, so the caller can
// account the propagation work exactly once per distinct core. Builds
// are serialized under g.mu: concurrent goals needing the same core
// wait for one build instead of duplicating it, keeping the suite's
// BasePropagationNodes total deterministic.
func (g *Generator) baseFor(tupleSets int, needRepair, forceInput bool) (*solver.Base, bool, error) {
	key := baseKey{tupleSets: tupleSets, needRepair: needRepair, forceInput: forceInput}
	g.mu.Lock()
	defer g.mu.Unlock()
	if b, ok := g.bases[key]; ok {
		return b, false, nil
	}
	pl, err := g.layoutForLocked(tupleSets, needRepair)
	if err != nil {
		return nil, false, err
	}
	// The core is a throwaway problem over the shared layout holding
	// the exact database constraints assertDBConstraints would add per
	// goal (skipFK nil), run through the solver's front end.
	tmp := g.problemOn(pl)
	tmp.forceInput = forceInput
	tmp.assertDBConstraints()
	b := solver.PrepareBase(tmp.s)
	if g.bases == nil {
		g.bases = map[baseKey]*solver.Base{}
	}
	g.bases[key] = b
	return b, true, nil
}

// buildLayout performs the slot and variable allocation (the body of
// the former newProblem).
func (g *Generator) buildLayout(tupleSets int, needRepair bool) (*problemLayout, error) {
	p := &problemLayout{
		s:       solver.New(),
		slots:   map[string][]*slot{},
		occSlot: map[occSet]*slot{},
	}

	// Count base slots per relation. Retained-subquery occurrences get
	// one slot each (shared by every tuple set: the block is quantified
	// over the whole relation, the dedicated slot only guarantees a row
	// the witness goals can shape).
	counts := map[string]int{}
	for _, occ := range g.q.Occs {
		counts[occ.Rel.Name] += tupleSets
	}
	for _, sub := range g.q.Subs {
		for _, occ := range sub.Occs {
			counts[occ.Rel.Name]++
		}
	}

	// Transitive closure of referenced relations, referencing-first.
	if g.order == nil && g.orderErr == nil {
		g.order, g.orderErr = g.relationOrder()
	}
	order, err := g.order, g.orderErr
	if err != nil {
		return nil, err
	}
	for _, rel := range order {
		if counts[rel.Name] == 0 {
			counts[rel.Name] = 1 // referenced-only relation: one tuple
		}
	}
	if needRepair {
		// Referencing relations appear before referenced ones in order,
		// so a single pass accumulates repair capacity transitively.
		for _, rel := range order {
			for _, fk := range rel.ForeignKeys {
				counts[fk.RefTable] += counts[rel.Name]
			}
		}
	}

	// Base slots are a hard requirement: occurrence j of a base relation
	// is mapped to slots j*tupleSets .. j*tupleSets+tupleSets-1 below, so
	// the cap may trim repair capacity but never below occurrences ×
	// tupleSets (three occurrences of one relation in an aggregation
	// dataset already need 9 > maxSlotsPerRelation slots).
	baseSlots := map[string]int{}
	for _, occ := range g.q.Occs {
		baseSlots[occ.Rel.Name] += tupleSets
	}
	for _, sub := range g.q.Subs {
		for _, occ := range sub.Occs {
			baseSlots[occ.Rel.Name]++
		}
	}

	// Allocate slots and variables (referenced-first for readability).
	// Domains come duplicate-free and pre-rotated from the generator's
	// domain table (see attrDomain), shared by every layout, so the
	// variables skip the solver's dedup pass. Variables are unnamed:
	// names serve only the solver's own diagnostics.
	for i := len(order) - 1; i >= 0; i-- {
		rel := order[i]
		n := counts[rel.Name]
		limit := maxSlotsPerRelation
		if baseSlots[rel.Name] > limit {
			limit = baseSlots[rel.Name]
		}
		if n > limit {
			n = limit
		}
		slots := make([]*slot, n)
		slotArr := make([]slot, n)
		vars := make([]solver.VarID, n*len(rel.Attrs))
		for k := range slots {
			sl := &slotArr[k]
			*sl = slot{rel: rel, idx: k, vars: vars[k*len(rel.Attrs) : (k+1)*len(rel.Attrs) : (k+1)*len(rel.Attrs)]}
			for ai := range rel.Attrs {
				sl.vars[ai] = p.s.NewVarUnique("", g.attrDomain(rel, ai).rotated(k))
			}
			slots[k] = sl
		}
		p.slots[rel.Name] = slots
		p.rels = append(p.rels, layoutRel{rel: rel, table: strings.ToLower(rel.Name), slots: slots})
	}
	slices.SortFunc(p.rels, func(a, b layoutRel) int { return strings.Compare(a.rel.Name, b.rel.Name) })
	for _, lr := range p.rels {
		for _, sl := range lr.slots {
			sl.row, sl.cell = p.nslots, p.ncells
			p.nslots++
			p.ncells += len(sl.vars)
		}
	}

	// Map occurrences to their dedicated slots: occurrence j of a base
	// relation uses slots j*tupleSets .. j*tupleSets+tupleSets-1.
	occIdx := map[string]int{}
	for _, occ := range g.q.Occs {
		base := occIdx[occ.Rel.Name]
		occIdx[occ.Rel.Name] += tupleSets
		for set := 0; set < tupleSets; set++ {
			p.occSlot[occSet{occ.Name, set}] = p.slots[occ.Rel.Name][base+set]
		}
	}

	tmp := g.problemOn(p)
	p.conds = make([]queryConds, tupleSets)
	for set := range p.conds {
		qc := &p.conds[set]
		qc.classes = make([][]solver.Con, len(g.q.Classes))
		qc.classErr = make([]error, len(g.q.Classes))
		for ci, ec := range g.q.Classes {
			qc.classes[ci], qc.classErr[ci] = tmp.classCons(ec.Members, set)
		}
		qc.preds = make([]solver.Con, len(g.q.Preds))
		qc.predErr = make([]error, len(g.q.Preds))
		for pi, pr := range g.q.Preds {
			qc.preds[pi], qc.predErr[pi] = tmp.predCon(pr, pr.Op, nil, set)
		}
	}
	return p, nil
}

// relationOrder returns the query's base relations plus all transitively
// referenced relations, referencing-before-referenced (so FK repair
// accumulates in one pass). It rejects FK cycles.
func (g *Generator) relationOrder() ([]*schema.Relation, error) {
	var post []*schema.Relation
	state := map[string]int{}
	var visit func(name string) error
	visit = func(name string) error {
		switch state[name] {
		case 1:
			return fmt.Errorf("core: foreign-key cycle through %s", name)
		case 2:
			return nil
		}
		state[name] = 1
		rel := g.q.Schema.Relation(name)
		if rel == nil {
			return fmt.Errorf("core: unknown relation %s", name)
		}
		for _, fk := range rel.ForeignKeys {
			if err := visit(fk.RefTable); err != nil {
				return err
			}
		}
		state[name] = 2
		post = append(post, rel) // referenced relations first in post
		return nil
	}
	for _, occ := range g.q.Occs {
		if err := visit(occ.Rel.Name); err != nil {
			return nil, err
		}
	}
	for _, sub := range g.q.Subs {
		for _, occ := range sub.Occs {
			if err := visit(occ.Rel.Name); err != nil {
				return nil, err
			}
		}
	}
	// Reverse: referencing relations first.
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post, nil
}

// varOf returns the solver variable for an attribute of an occurrence in
// a given tuple set. Unknown occurrences or attributes — which indicate a
// malformed query tree rather than a programming bug here — are reported
// as errors with enough context to identify the offending reference, so
// one bad kill goal degrades gracefully instead of panicking the worker.
func (p *problem) varOf(a qtree.AttrRef, set int) (solver.VarID, error) {
	sl, ok := p.occSlot[occSet{a.Occ, set}]
	if !ok {
		return 0, fmt.Errorf("core: no slot for occurrence %s (tuple set %d) while compiling %s", a.Occ, set, a)
	}
	pos := sl.rel.AttrPos(a.Attr)
	if pos < 0 {
		return 0, fmt.Errorf("core: relation %s has no attribute %s (occurrence %s, tuple set %d)", sl.rel.Name, a.Attr, a.Occ, set)
	}
	return sl.vars[pos], nil
}

// linOf translates a scalar into a solver linear expression: the
// paper's cvcMap(). An attribute of an occurrence bound in bind resolves
// to that slot, every other attribute to its occurrence's slot in tuple
// set set; string constants are encoded through the pool; +, - and *
// recurse, and a product needs one constant side (assumption A4).
func (p *problem) linOf(s *qtree.Scalar, bind map[string]*slot, set int) (solver.Lin, error) {
	switch s.Kind {
	case qtree.SAttr:
		sl, ok := bind[s.Attr.Occ]
		if !ok {
			v, err := p.varOf(s.Attr, set)
			if err != nil {
				return solver.Lin{}, err
			}
			return solver.V(v), nil
		}
		pos := sl.rel.AttrPos(s.Attr.Attr)
		if pos < 0 {
			return solver.Lin{}, fmt.Errorf("core: relation %s has no attribute %s (occurrence %s)", sl.rel.Name, s.Attr.Attr, s.Attr.Occ)
		}
		return solver.V(sl.vars[pos]), nil
	case qtree.SConst:
		switch s.Const.Kind() {
		case sqltypes.KindInt:
			return solver.C(s.Const.Int()), nil
		case sqltypes.KindString:
			code, ok := p.strs.code[s.Const.Str()]
			if !ok {
				return solver.Lin{}, fmt.Errorf("core: string constant %q missing from pool", s.Const.Str())
			}
			return solver.C(code), nil
		default:
			return solver.Lin{}, fmt.Errorf("core: unsupported constant %s (assumption A4: integer/string values)", s.Const)
		}
	}
	l, err := p.linOf(s.L, bind, set)
	if err != nil {
		return solver.Lin{}, err
	}
	r, err := p.linOf(s.R, bind, set)
	if err != nil {
		return solver.Lin{}, err
	}
	switch s.Op {
	case '+':
		return l.Plus(r), nil
	case '-':
		return l.Minus(r), nil
	case '*':
		switch {
		case len(l.Terms) == 0:
			return r.Times(l.Const), nil
		case len(r.Terms) == 0:
			return l.Times(r.Const), nil
		}
		return solver.Lin{}, fmt.Errorf("core: non-linear product %s", s)
	}
	return solver.Lin{}, fmt.Errorf("core: %s is not linear (assumption A4)", s)
}

// predCon compiles a predicate under the binding (see linOf) with its
// comparison operator replaced by op: the §V-E variants pass another
// operator, every other caller pr.Op. A pattern predicate compiles to
// membership of its matched expression in the pool codes the pattern
// accepts; op does not apply to it.
func (p *problem) predCon(pr *qtree.Pred, op sqltypes.CmpOp, bind map[string]*slot, set int) (solver.Con, error) {
	l, err := p.linOf(pr.L, bind, set)
	if err != nil {
		return nil, err
	}
	if pr.Like != nil {
		return memberCon(l, p.g.likeSatCodes(pr.Like)), nil
	}
	r, err := p.linOf(pr.R, bind, set)
	if err != nil {
		return nil, err
	}
	return solver.NewCmp(op, l, r), nil
}

// classCons returns the equality chain for an equivalence class's members
// (generateEqConds of the paper), restricted to the given members.
func (p *problem) classCons(members []qtree.AttrRef, set int) ([]solver.Con, error) {
	var out []solver.Con
	for i := 0; i+1 < len(members); i++ {
		a, err := p.varOf(members[i], set)
		if err != nil {
			return nil, err
		}
		b, err := p.varOf(members[i+1], set)
		if err != nil {
			return nil, err
		}
		out = append(out, solver.Eq(solver.V(a), solver.V(b)))
	}
	return out, nil
}

// assertQueryConds asserts all equivalence classes and predicates for the
// given tuple set, except for classes in skipClass and predicate indices
// in skipPred (the specifically violated conditions of a kill dataset).
// The constraints come prebuilt from the layout.
func (p *problem) assertQueryConds(set int, skipClass map[*qtree.EquivClass]bool, skipPred map[int]bool) error {
	if set < 0 || set >= len(p.pl.conds) {
		return fmt.Errorf("core: no tuple set %d in a %d-set layout", set, len(p.pl.conds))
	}
	qc := &p.pl.conds[set]
	for ci, ec := range p.g.q.Classes {
		if skipClass[ec] {
			continue
		}
		if err := qc.classErr[ci]; err != nil {
			return err
		}
		for _, c := range qc.classes[ci] {
			p.s.Assert(c)
		}
	}
	for i := range p.g.q.Preds {
		if skipPred[i] {
			continue
		}
		if err := qc.predErr[i]; err != nil {
			return err
		}
		p.s.Assert(qc.preds[i])
	}
	return p.assertSubConds(set)
}

// assertDBConstraints asserts the schema constraints over all slots: the
// primary-key functional dependency (footnote 3: the chase — equal keys
// force equal tuples, so a relation may still collapse to one tuple), and
// foreign-key subset constraints as bounded FORALL/EXISTS quantifiers.
// This is genDBConstraints() of the paper. The trees are carved from the
// problem's slab in exactly the shape solver.ForAll, solver.Exists,
// solver.NewAnd and solver.Implies build.
func (p *problem) assertDBConstraints() {
	sl := &p.slab
	for _, lr := range p.pl.rels {
		slots, rel := lr.slots, lr.rel
		// Primary key: chase-style functional dependency, asserted as a
		// bounded universal quantifier over slot pairs (∀ i,j: equal
		// keys imply equal tuples), exactly as the paper frames it. The
		// implication is in solver.Implies's negation normal form:
		// Or(Or(key columns differ), And(all columns equal)).
		if len(rel.PrimaryKey) > 0 && len(slots) > 1 {
			keyPos := make([]int, len(rel.PrimaryKey))
			for i, c := range rel.PrimaryKey {
				keyPos[i] = rel.AttrPos(c)
			}
			bodies := sl.List(len(slots) * (len(slots) - 1) / 2)
			b := 0
			for i := 0; i < len(slots); i++ {
				for j := i + 1; j < len(slots); j++ {
					keyNe := sl.List(len(keyPos))
					for k, kp := range keyPos {
						keyNe[k] = sl.Cmp(sqltypes.OpNE, solver.V(slots[i].vars[kp]), solver.V(slots[j].vars[kp]))
					}
					allEq := sl.List(len(rel.Attrs))
					for ap := range rel.Attrs {
						allEq[ap] = sl.Cmp(sqltypes.OpEQ, solver.V(slots[i].vars[ap]), solver.V(slots[j].vars[ap]))
					}
					impl := sl.List(2)
					impl[0], impl[1] = sl.Or(keyNe), sl.And(allEq)
					bodies[b] = sl.Or(impl)
					b++
				}
			}
			p.s.Assert(sl.ForAll(bodies))
		}
		// Foreign keys: FORALL r-slot EXISTS s-slot: columns equal.
		for fi, fk := range rel.ForeignKeys {
			refSlots := p.slots[fk.RefTable]
			refRel := p.g.q.Schema.Relation(fk.RefTable)
			cols := make([]int, len(fk.Columns))
			refCols := make([]int, len(fk.Columns))
			for k, col := range fk.Columns {
				cols[k], refCols[k] = rel.AttrPos(col), refRel.AttrPos(fk.RefColumns[k])
			}
			bodies := sl.List(len(slots))
			nb := 0
			for _, rs := range slots {
				if p.skipFK[rs][fi] {
					continue // NULL-patched column: vacuously satisfied
				}
				disj := sl.List(len(refSlots))
				for si, ss := range refSlots {
					eqs := sl.List(len(cols))
					for k := range cols {
						eqs[k] = sl.Cmp(sqltypes.OpEQ, solver.V(rs.vars[cols[k]]), solver.V(ss.vars[refCols[k]]))
					}
					disj[si] = sl.And(eqs)
				}
				bodies[nb] = sl.Exists(disj)
				nb++
			}
			if nb > 0 {
				p.s.Assert(sl.ForAll(bodies[:nb]))
			}
		}
	}
	// Input-database tuple constraints (§VI-A): every generated tuple
	// must equal one of the input database's tuples.
	if p.forceInput && p.g.opts.InputDB != nil {
		p.assertInputTuples()
	}
}

func (p *problem) assertInputTuples() {
	sl := &p.slab
	for _, lr := range p.pl.rels {
		rows := p.g.opts.InputDB.Rows(lr.rel.Name)
		if len(rows) == 0 {
			continue
		}
		rel := lr.rel
		for _, s := range lr.slots {
			disj := sl.List(len(rows))
			nd := 0
			for _, row := range rows {
				eqs := sl.List(len(rel.Attrs))
				ok := true
				for ap := range rel.Attrs {
					code, cok := p.g.encodeValue(row[ap])
					if !cok {
						ok = false
						break
					}
					eqs[ap] = sl.Cmp(sqltypes.OpEQ, solver.V(s.vars[ap]), solver.C(code))
				}
				if ok {
					disj[nd] = sl.And(eqs)
					nd++
				}
			}
			if nd > 0 {
				p.s.Assert(sl.Exists(disj[:nd]))
			}
		}
	}
}

// notExistsValue asserts the paper's nullification constraint: no slot of
// base relation rel has attribute attr equal to the given expression —
// in solver.NotExists's form, a conjunction of disequalities.
func (p *problem) notExistsValue(rel *schema.Relation, attr string, val solver.Lin) error {
	pos := rel.AttrPos(attr)
	if pos < 0 {
		return fmt.Errorf("core: relation %s has no attribute %s (nullification target)", rel.Name, attr)
	}
	slots := p.slots[rel.Name]
	bodies := p.slab.List(len(slots))
	for i, sl := range slots {
		bodies[i] = p.slab.Cmp(sqltypes.OpNE, solver.V(sl.vars[pos]), val)
	}
	p.s.Assert(p.slab.ForAll(bodies))
	return nil
}

// notExistsPred asserts genNotExists(pred, occ) with the predicate's
// comparison operator replaced by op: no slot of occ's base relation
// satisfies it when bound to occ, the other occurrences keeping their
// slots of tuple set set. Quantifying over every tuple of the base
// relation, not only occ's own, keeps repeated occurrences of the
// relation from re-satisfying the predicate. Comparison and pattern
// predicates alike (op does not apply to a pattern).
func (p *problem) notExistsPred(pr *qtree.Pred, op sqltypes.CmpOp, occ string, set int) error {
	sl, ok := p.occSlot[occSet{occ, set}]
	if !ok {
		return fmt.Errorf("core: no slot for occurrence %s (tuple set %d) while quantifying %s", occ, set, pr)
	}
	bind := map[string]*slot{occ: nil}
	var bodies []solver.Con
	for _, cand := range p.slots[sl.rel.Name] {
		bind[occ] = cand
		c, err := p.predCon(pr, op, bind, set)
		if err != nil {
			return err
		}
		bodies = append(bodies, c)
	}
	p.s.Assert(solver.NotExists(bodies...))
	return nil
}

// solve invokes the constraint solver with the generator's options and
// the goal budget: the budget's node limit bounds the search (0 = the
// solver's default), the budget's unfold override replaces
// Options.Unfold (the quantified-mode fallback attempt), and the
// budget's context — the goal deadline under the caller's context —
// provides cooperative cancellation. label travels to the solver for
// fault injection and diagnostics.
func (p *problem) solve(gb *goalBudget, label string) (solver.Model, error) {
	opts := solver.Options{
		Unfold:    p.g.opts.Unfold,
		NodeLimit: gb.nodeLimit,
		Label:     label,
		Cache:     p.g.comp,
	}
	if gb.unfold != nil {
		opts.Unfold = *gb.unfold
	}
	// Check an arena out around the call: the solve runs entirely on
	// this goroutine (cancellation is cooperative), so the arena is free
	// for the next checkout as soon as SolveContext returns.
	ar := p.g.getArena()
	opts.Arena = ar
	m, err := p.s.SolveContext(gb.ctx, opts)
	p.g.putArena(ar)
	return m, err
}

// tupleSetsDiffer builds S1's "differ in at least one other attribute":
// a disjunction over every occurrence attribute outside the aggregated
// attribute and the group-by set, requiring tuple sets 0 and 1 to differ
// somewhere. Returns nil when there is no such attribute (then the chase
// decides, and S1 is likely inconsistent).
func (p *problem) tupleSetsDiffer(agg qtree.AttrRef, groupBy []qtree.AttrRef) (solver.Con, error) {
	excluded := map[qtree.AttrRef]bool{agg: true}
	for _, gbAttr := range groupBy {
		excluded[gbAttr] = true
	}
	var disj []solver.Con
	for _, occ := range p.g.q.Occs {
		for _, a := range occ.Rel.Attrs {
			ar := qtree.AttrRef{Occ: occ.Name, Attr: a.Name}
			if excluded[ar] {
				continue
			}
			v0, err := p.varOf(ar, 0)
			if err != nil {
				return nil, err
			}
			v1, err := p.varOf(ar, 1)
			if err != nil {
				return nil, err
			}
			disj = append(disj, solver.NewCmp(sqltypes.OpNE, solver.V(v0), solver.V(v1)))
		}
	}
	if len(disj) == 0 {
		return nil, nil
	}
	return solver.NewOr(disj...), nil
}

// assertGroupIsolation builds S3: the group-by values of the three tuple
// sets must not occur in any other tuple of the corresponding relations,
// so no stray tuples join into the group.
func (p *problem) assertGroupIsolation() error { return p.assertGroupIsolationN(3) }

// assertGroupIsolationN is assertGroupIsolation over the first n tuple
// sets (the HAVING group-size ladder uses 1..3).
func (p *problem) assertGroupIsolationN(n int) error {
	for _, gbAttr := range p.g.q.Agg.GroupBy {
		own := map[*slot]bool{}
		for set := 0; set < n; set++ {
			own[p.occSlot[occSet{gbAttr.Occ, set}]] = true
		}
		rel := p.g.q.Occ(gbAttr.Occ).Rel
		pos := rel.AttrPos(gbAttr.Attr)
		if pos < 0 {
			return fmt.Errorf("core: relation %s has no attribute %s (group-by)", rel.Name, gbAttr.Attr)
		}
		pv, err := p.varOf(gbAttr, 0)
		if err != nil {
			return err
		}
		pivot := solver.V(pv)
		var bodies []solver.Con
		for _, sl := range p.slots[rel.Name] {
			if own[sl] {
				continue
			}
			bodies = append(bodies, solver.Eq(solver.V(sl.vars[pos]), pivot))
		}
		if len(bodies) > 0 {
			p.s.Assert(solver.NotExists(bodies...))
		}
	}
	return nil
}

// extract turns a model into a dataset, de-duplicating rows that the
// chase made identical. Every slot's row is decoded into one value
// buffer and one row list, sliced per relation.
func (p *problem) extract(m solver.Model, purpose string) (*schema.Dataset, error) {
	pl := p.pl
	cells := make([]sqltypes.Value, pl.ncells)
	rows := make([]sqltypes.Row, pl.nslots)
	ds := &schema.Dataset{Purpose: purpose, Tables: make(map[string][]sqltypes.Row, len(pl.rels))}
	for _, lr := range pl.rels {
		for _, sl := range lr.slots {
			row := cells[sl.cell : sl.cell+len(sl.vars) : sl.cell+len(sl.vars)]
			for i, v := range sl.vars {
				row[i] = p.g.decodeValue(sl.rel.Attrs[i].Type, m[v])
			}
			rows[sl.row] = row
		}
		first, end := lr.slots[0].row, lr.slots[len(lr.slots)-1].row+1
		ds.Tables[lr.table] = rows[first:end:end]
	}
	for _, np := range p.nullPatches {
		cells[np.sl.cell+np.pos] = sqltypes.TypedNull(np.sl.rel.Attrs[np.pos].Type)
	}
	if err := p.g.q.Schema.DedupPrimaryKeys(ds); err != nil {
		return nil, fmt.Errorf("core: %s: %w", purpose, err)
	}
	if err := p.g.q.Schema.CheckDataset(ds); err != nil {
		return nil, fmt.Errorf("core: %s: generated dataset invalid: %w", purpose, err)
	}
	return ds, nil
}
