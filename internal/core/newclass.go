// Kill goals for the extended query classes: retained WHERE subqueries
// (NOT IN / NOT EXISTS connectives), HAVING aggregate comparisons, and
// LIKE pattern predicates.
//
// Retained subqueries are modeled by quantifying the block's conjuncts
// over every slot combination of the block relations (the dataset's
// actual rows), mirroring §V's NOT-EXISTS constraint style:
//
//   - every dataset asserts the query's own connective — NOT EXISTS
//     blocks admit no satisfying combination; NOT IN blocks admit no
//     satisfying combination whose select column equals the outer
//     expression (the weak form, so the outer row survives the filter);
//   - one goal per NOT IN block generates a dataset whose block is empty
//     of satisfying combinations entirely (killing the EXISTS and IN
//     connective mutants), and one generates a witness combination whose
//     select column differs from the outer expression (killing NOT
//     EXISTS, which flips on any satisfying combination).
//
// HAVING comparisons reuse the §V-E three-dataset argument: for each
// conjunct AGG(x) op c, datasets where the aggregate compares =, < and >
// against c jointly kill every operator variant. COUNT walks a
// group-size ladder, building a group of exactly c+sign rows; the other
// aggregates get the smallest group the COUNT conjuncts admit, a single
// tuple set when they admit one (the group's aggregate then equals the
// aggregated attribute, a plain solver variable).
//
// LIKE predicates are finite-domain: a pattern constrains a string
// variable to the pool codes whose decoded strings match. Each pattern
// mutation (wildcard flipped or deleted, qtree.LikeSpec.WildcardVariants
// — the list the mutation space draws on too) gets a dataset whose
// value lies in the symmetric difference of the two match sets, so
// original and mutant disagree on the row.
package core

import (
	"fmt"

	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// likeSatCodes returns the pool codes whose decoded strings satisfy the
// pattern predicate (matching for LIKE, non-matching for NOT LIKE). The
// query's own patterns come from likeCodes: notExistsPred compiles its
// predicate once per slot, and every layout once per tuple set.
func (g *Generator) likeSatCodes(like *qtree.LikeSpec) []int64 {
	if codes, ok := g.likeCodes[like]; ok {
		return codes
	}
	var out []int64
	for i, v := range g.strPool.vals {
		if sqltypes.MatchLike(v, like.Pattern) != like.Not {
			out = append(out, int64(i))
		}
	}
	return out
}

// conFalse is an always-false constraint (an empty membership set).
func conFalse() solver.Con {
	return solver.NewCmp(sqltypes.OpNE, solver.C(0), solver.C(0))
}

// memberCon constrains lin to one of the given codes.
func memberCon(lin solver.Lin, codes []int64) solver.Con {
	if len(codes) == 0 {
		return conFalse()
	}
	bodies := make([]solver.Con, len(codes))
	for i, c := range codes {
		bodies[i] = solver.Eq(lin, solver.C(c))
	}
	return solver.Exists(bodies...)
}

// subCombos enumerates every slot combination of the block's relations
// (one slot per block occurrence, drawn from the occurrence's base
// relation), as occurrence-name bindings.
func (p *problem) subCombos(s *qtree.SubQuery) []map[string]*slot {
	combos := []map[string]*slot{{}}
	for _, o := range s.Occs {
		slots := p.slots[o.Rel.Name]
		next := make([]map[string]*slot, 0, len(combos)*len(slots))
		for _, c := range combos {
			for _, sl := range slots {
				nc := make(map[string]*slot, len(c)+1)
				for k, v := range c {
					nc[k] = v
				}
				nc[o.Name] = sl
				next = append(next, nc)
			}
		}
		combos = next
	}
	return combos
}

// subBody builds the conjunction "this slot combination satisfies the
// block": every block conjunct holds and, when withOuter is set, the
// outer expression compares eqOp against the block's select column.
func (p *problem) subBody(s *qtree.SubQuery, bind map[string]*slot, set int, withOuter bool, eqOp sqltypes.CmpOp) (solver.Con, error) {
	var cons []solver.Con
	for _, pr := range s.Preds {
		c, err := p.predCon(pr, pr.Op, bind, set)
		if err != nil {
			return nil, err
		}
		cons = append(cons, c)
	}
	if withOuter {
		outer, err := p.linOf(s.Outer, nil, set)
		if err != nil {
			return nil, err
		}
		sl, ok := bind[s.Inner.Occ]
		if !ok {
			return nil, fmt.Errorf("core: subquery select column %s not bound", s.Inner)
		}
		pos := sl.rel.AttrPos(s.Inner.Attr)
		if pos < 0 {
			return nil, fmt.Errorf("core: relation %s has no attribute %s (subquery select column)", sl.rel.Name, s.Inner.Attr)
		}
		cons = append(cons, solver.NewCmp(eqOp, outer, solver.V(sl.vars[pos])))
	}
	return solver.NewAnd(cons...), nil
}

// subBodies builds subBody over every slot combination.
func (p *problem) subBodies(s *qtree.SubQuery, set int, withOuter bool, eqOp sqltypes.CmpOp) ([]solver.Con, error) {
	combos := p.subCombos(s)
	out := make([]solver.Con, 0, len(combos))
	for _, bind := range combos {
		c, err := p.subBody(s, bind, set, withOuter, eqOp)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// assertSubConds asserts, for the given tuple set, that the outer row
// satisfies every retained subquery connective — so the generated
// dataset's outer tuples survive the subquery filter. The NOT IN form is
// the weak one (no satisfying combination equals the outer expression);
// the block may still hold satisfying rows, which the per-sub kill goals
// control.
func (p *problem) assertSubConds(set int) error {
	for si, s := range p.g.q.Subs {
		if p.skipSubs[si] {
			continue
		}
		var bodies []solver.Con
		var err error
		switch s.Kind {
		case qtree.SubNotIn:
			bodies, err = p.subBodies(s, set, true, sqltypes.OpEQ)
			if err == nil && len(bodies) > 0 {
				p.s.Assert(solver.NotExists(bodies...))
			}
		case qtree.SubNotExists:
			bodies, err = p.subBodies(s, set, false, 0)
			if err == nil && len(bodies) > 0 {
				p.s.Assert(solver.NotExists(bodies...))
			}
		case qtree.SubIn:
			bodies, err = p.subBodies(s, set, true, sqltypes.OpEQ)
			if err == nil {
				if len(bodies) == 0 {
					p.s.Assert(conFalse())
				} else {
					p.s.Assert(solver.Exists(bodies...))
				}
			}
		case qtree.SubExists:
			bodies, err = p.subBodies(s, set, false, 0)
			if err == nil {
				if len(bodies) == 0 {
					p.s.Assert(conFalse())
				} else {
					p.s.Assert(solver.Exists(bodies...))
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// subqueryGoals enumerates the connective kill goals. NOT IN blocks need
// two dedicated datasets — a matching violation, and a non-matching
// witness — to separate all four connectives. NOT EXISTS blocks get the
// violation dataset only: it kills the EXISTS mutant even when the
// original dataset is unsatisfiable (a correlated block implied by the
// join conditions makes the original query empty on every database, but
// the EXISTS mutant then returns exactly the violation row).
func (g *Generator) subqueryGoals() []killGoal {
	var goals []killGoal
	for si, s := range g.q.Subs {
		si, s := si, s
		goals = append(goals, killGoal{
			purpose: func() string { return fmt.Sprintf("subquery violation %d (%s)", si, s.Kind) },
			run: func(g *Generator, gb *goalBudget, sub *Suite) error {
				return g.killSubViolate(gb, sub, si, s)
			},
		})
		if s.Kind != qtree.SubNotIn {
			continue
		}
		goals = append(goals, killGoal{
			purpose: func() string { return fmt.Sprintf("subquery witness %d (%s)", si, s.Kind) },
			run: func(g *Generator, gb *goalBudget, sub *Suite) error {
				return g.killSubWitness(gb, sub, si, s)
			},
		})
	}
	return goals
}

// killSubViolate generates a dataset whose block holds a satisfying
// combination — for NOT IN, one equal to the outer expression: the
// original connective drops the row, while its positive mutants (IN,
// EXISTS) keep it. (A dataset with an empty block would kill the same
// pair, but is unsatisfiable whenever the block has no predicates —
// every slot materializes as a row.)
func (g *Generator) killSubViolate(gb *goalBudget, suite *Suite, si int, s *qtree.SubQuery) error {
	purpose := fmt.Sprintf("kill subquery mutants: block %d (%s) holds a matching row", si, s.Kind)
	ds, err := g.buildDataset(gb, suite, purpose, 1, false, func(p *problem) error {
		p.skipSubs = map[int]bool{si: true}
		bodies, err := p.subBodies(s, 0, s.Kind == qtree.SubNotIn, sqltypes.OpEQ)
		if err != nil {
			return err
		}
		if len(bodies) == 0 {
			p.s.Assert(conFalse())
		} else {
			p.s.Assert(solver.Exists(bodies...))
		}
		// The violation row surfaces only through the positive mutants
		// (IN / EXISTS), so HAVING group fillers must pass the positive
		// connective as well — each filler row's block also holds a
		// matching combination (skipSubs already drops the original
		// connective for them).
		p.fillerConds = func(set int) error {
			fb, err := p.subBodies(s, set, s.Kind == qtree.SubNotIn, sqltypes.OpEQ)
			if err != nil {
				return err
			}
			if len(fb) > 0 {
				p.s.Assert(solver.Exists(fb...))
			}
			return p.assertQueryConds(set, nil, nil)
		}
		return p.assertQueryConds(0, nil, nil)
	})
	if err != nil {
		return err
	}
	suite.addIfGenerated(ds)
	return nil
}

// killSubWitness generates a dataset whose block holds a satisfying
// combination whose select column differs from the outer expression:
// the original row still passes NOT IN, but the NOT EXISTS mutant drops
// it. The witness needs FK-repair slot capacity: when a block relation
// references the outer relation (teaches.id -> instructor.id with the
// block selecting t.id against outer i.id), the base layout's single
// referenced tuple would force the witness column EQUAL to the outer
// expression, making the differing combination UNSAT and silently
// skipping the goal — the NOT EXISTS mutant then survives.
func (g *Generator) killSubWitness(gb *goalBudget, suite *Suite, si int, s *qtree.SubQuery) error {
	purpose := fmt.Sprintf("kill subquery mutants: block %d (%s) holds a non-matching witness", si, s.Kind)
	ds, err := g.buildDataset(gb, suite, purpose, 1, true, func(p *problem) error {
		bodies, err := p.subBodies(s, 0, true, sqltypes.OpNE)
		if err != nil {
			return err
		}
		if len(bodies) == 0 {
			p.s.Assert(conFalse())
		} else {
			p.s.Assert(solver.Exists(bodies...))
		}
		return p.assertQueryConds(0, nil, nil)
	})
	if err != nil {
		return err
	}
	suite.addIfGenerated(ds)
	return nil
}

// havingGoals enumerates one goal per (HAVING conjunct, comparison sign),
// the §V-E three-dataset argument lifted to aggregate comparisons.
func (g *Generator) havingGoals() []killGoal {
	if g.q.Agg == nil {
		return nil
	}
	var goals []killGoal
	for hi, h := range g.q.Agg.Having {
		for _, dop := range datasetOps {
			hi, h, dop := hi, h, dop
			goals = append(goals, killGoal{
				purpose: func() string {
					return fmt.Sprintf("having dataset %s %s %s", h.Call, dop.op, h.Rhs.SQLLiteral())
				},
				run: func(g *Generator, gb *goalBudget, sub *Suite) error {
					return g.killHavingVariant(gb, sub, hi, h, dop.op, dop.sign)
				},
			})
		}
	}
	return goals
}

// isCountCall reports whether the call aggregates row counts (the group
// size ladder) rather than a pinned attribute value.
func isCountCall(c qtree.AggCall) bool {
	return c.Func == sqlparser.AggCount
}

// killHavingVariant generates one comparison dataset for a HAVING
// conjunct: a single isolated group whose aggregate compares `op`
// against the conjunct's constant while every other conjunct holds, so
// the group's presence difference is attributable to the targeted one.
func (g *Generator) killHavingVariant(gb *goalBudget, suite *Suite, hi int, h qtree.HavingCond, op sqltypes.CmpOp, sign int) error {
	purpose := fmt.Sprintf("kill having mutants: group with %s %s %s", h.Call, op, h.Rhs.SQLLiteral())
	rhs, ok := g.encodeValue(h.Rhs)
	if !ok {
		suite.Skipped = append(suite.Skipped, Skip{Purpose: purpose, Reason: "HAVING constant outside the solver's value domain"})
		return nil
	}
	// Any other aggregate gets the smallest group the COUNT conjuncts
	// admit.
	n := g.neededHavingSets()
	if isCountCall(h.Call) {
		// The group's row count is the dataset's lever: build a group of
		// exactly rhs+sign rows.
		n = int(rhs) + sign
		if n < 1 || n > 3 {
			suite.Skipped = append(suite.Skipped, Skip{Purpose: purpose, Reason: fmt.Sprintf("group size %d out of reach (1..3)", n)})
			return nil
		}
	}
	ds, err := g.buildDatasetRaw(gb, suite, purpose, n, false, func(p *problem) error {
		for set := 0; set < n; set++ {
			if err := p.assertQueryConds(set, nil, nil); err != nil {
				return err
			}
		}
		return p.assertHavingHolds(n, hi, op)
	})
	if err != nil {
		return err
	}
	suite.addIfGenerated(ds)
	return nil
}

// neededHavingSets returns the smallest group size in 1..3 on which every
// statically-checkable (COUNT-family) HAVING conjunct can hold. When no
// size fits, 1 is returned and assertHavingFree renders the problem
// unsatisfiable — the goals skip, matching the group-size ladder's reach.
func (g *Generator) neededHavingSets() int {
	for n := 1; n <= 3; n++ {
		ok := true
		for _, h := range g.q.Agg.Having {
			if !isCountCall(h.Call) {
				continue
			}
			rhs, okv := g.encodeValue(h.Rhs)
			if !okv {
				ok = false
				break
			}
			holds := h.Op.HoldsSign(signOfInt(int64(n) - rhs))
			if h.Call.Distinct && !h.Call.Star {
				holds = holds || h.Op.HoldsSign(signOfInt(1-rhs))
			}
			if !holds {
				ok = false
				break
			}
		}
		if ok {
			return n
		}
	}
	return 1
}

// assertHavingHolds asserts that the n tuple sets form one group (shared
// group-by values, isolated from stray slots, pairwise-distinct rows
// where a COUNT depends on it) satisfying every HAVING conjunct. Goals
// pass target -1: no aggregated attribute collapses to a shared value, so
// goals that need those attributes free (aggregate mutations) stay
// satisfiable. A HAVING comparison goal passes the index of its conjunct,
// which then holds with op in place of its own operator; there a
// non-COUNT conjunct holds on a shared aggregated value on a one-row
// group, where that is exact. A DISTINCT SUM/AVG conjunct, which has no
// form over free values, holds on a shared aggregated value in every
// goal, targeted or not.
func (p *problem) assertHavingHolds(n, target int, op sqltypes.CmpOp) error {
	for _, gbAttr := range p.g.q.Agg.GroupBy {
		v0, err := p.varOf(gbAttr, 0)
		if err != nil {
			return err
		}
		for set := 1; set < n; set++ {
			vs, err := p.varOf(gbAttr, set)
			if err != nil {
				return err
			}
			p.s.Assert(solver.Eq(solver.V(v0), solver.V(vs)))
		}
	}
	if err := p.assertGroupIsolationN(n); err != nil {
		return err
	}
	for _, h := range p.g.q.Agg.Having {
		if isCountCall(h.Call) && (h.Call.Star || !h.Call.Distinct) {
			if err := p.assertSetsPairwiseDiffer(n); err != nil {
				return err
			}
			break
		}
	}
	for hj, h := range p.g.q.Agg.Having {
		if hj == target {
			h = h.WithOp(op)
		}
		distinctSum := h.Call.Distinct && (h.Call.Func == sqlparser.AggSum || h.Call.Func == sqlparser.AggAvg)
		var err error
		if distinctSum || (target >= 0 && !isCountCall(h.Call) && n == 1) {
			err = p.assertHavingShared(h, n)
		} else {
			err = p.assertHavingFree(h, n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// assertHavingShared asserts a non-COUNT HAVING conjunct on n tuple sets
// whose aggregated values are all equal: MIN, MAX, AVG and the DISTINCT
// sums are the shared value, SUM is n times it.
func (p *problem) assertHavingShared(h qtree.HavingCond, n int) error {
	rhs, ok := p.g.encodeValue(h.Rhs)
	if !ok {
		p.s.Assert(conFalse())
		return nil
	}
	if err := p.assertArgPairwise(h.Call.Arg, n, sqltypes.OpEQ); err != nil {
		return err
	}
	av, err := p.varOf(h.Call.Arg, 0)
	if err != nil {
		return err
	}
	val := solver.V(av)
	if h.Call.Func == sqlparser.AggSum && !h.Call.Distinct {
		val = val.Times(int64(n))
	}
	p.s.Assert(solver.NewCmp(h.Op, val, solver.C(rhs)))
	return nil
}

// assertHavingFree asserts one HAVING conjunct over a group of n tuple
// sets without forcing the aggregated attribute equal across sets, exact
// per tuple set. COUNT values are n (or 1/n for DISTINCT, whichever
// satisfies, through pairwise equal or distinct aggregated values, and
// 2 of 3 when neither does); SUM is the linear sum; MIN/MAX decompose
// into per-element bounds plus an attained witness; AVG uses
// truncation-safe scaled sums. DISTINCT SUM/AVG have no linear form and
// fail the goal.
func (p *problem) assertHavingFree(h qtree.HavingCond, n int) error {
	rhs, ok := p.g.encodeValue(h.Rhs)
	if !ok {
		p.s.Assert(conFalse())
		return nil
	}
	if isCountCall(h.Call) {
		if h.Call.Distinct && !h.Call.Star {
			switch {
			case h.Op.HoldsSign(signOfInt(int64(n) - rhs)):
				return p.assertArgPairwise(h.Call.Arg, n, sqltypes.OpNE)
			case h.Op.HoldsSign(signOfInt(1 - rhs)):
				return p.assertArgPairwise(h.Call.Arg, n, sqltypes.OpEQ)
			case n == 3 && h.Op.HoldsSign(signOfInt(2-rhs)):
				return p.assertTwoDistinctOfThree(h.Call.Arg)
			}
			p.s.Assert(conFalse())
			return nil
		}
		if !h.Op.HoldsSign(signOfInt(int64(n) - rhs)) {
			p.s.Assert(conFalse())
		}
		return nil
	}
	if h.Call.Distinct && (h.Call.Func == sqlparser.AggSum || h.Call.Func == sqlparser.AggAvg) {
		p.s.Assert(conFalse())
		return nil
	}
	args := make([]solver.Lin, n)
	for set := 0; set < n; set++ {
		av, err := p.varOf(h.Call.Arg, set)
		if err != nil {
			return err
		}
		args[set] = solver.V(av)
	}
	c := solver.C(rhs)
	each := func(op sqltypes.CmpOp) {
		for _, a := range args {
			p.s.Assert(solver.NewCmp(op, a, c))
		}
	}
	attained := func(op sqltypes.CmpOp) {
		cons := make([]solver.Con, n)
		for i, a := range args {
			cons[i] = solver.NewCmp(op, a, c)
		}
		p.s.Assert(solver.Exists(cons...))
	}
	switch h.Call.Func {
	case sqlparser.AggMin:
		switch h.Op {
		case sqltypes.OpGT, sqltypes.OpGE, sqltypes.OpNE:
			each(h.Op)
		case sqltypes.OpLT, sqltypes.OpLE:
			attained(h.Op)
		case sqltypes.OpEQ:
			each(sqltypes.OpGE)
			attained(sqltypes.OpEQ)
		}
	case sqlparser.AggMax:
		switch h.Op {
		case sqltypes.OpLT, sqltypes.OpLE, sqltypes.OpNE:
			each(h.Op)
		case sqltypes.OpGT, sqltypes.OpGE:
			attained(h.Op)
		case sqltypes.OpEQ:
			each(sqltypes.OpLE)
			attained(sqltypes.OpEQ)
		}
	case sqlparser.AggSum, sqlparser.AggAvg:
		sum := args[0]
		for _, a := range args[1:] {
			sum = sum.Plus(a)
		}
		scale := int64(1)
		if h.Call.Func == sqlparser.AggAvg {
			scale = int64(n)
		}
		switch h.Op {
		case sqltypes.OpEQ:
			p.s.Assert(solver.Eq(sum, solver.C(rhs*scale)))
		case sqltypes.OpGE:
			p.s.Assert(solver.NewCmp(sqltypes.OpGE, sum, solver.C(rhs*scale)))
		case sqltypes.OpGT:
			p.s.Assert(solver.NewCmp(sqltypes.OpGE, sum, solver.C((rhs+1)*scale)))
		case sqltypes.OpLE:
			p.s.Assert(solver.NewCmp(sqltypes.OpLE, sum, solver.C(rhs*scale)))
		case sqltypes.OpLT:
			p.s.Assert(solver.NewCmp(sqltypes.OpLE, sum, solver.C((rhs-1)*scale)))
		case sqltypes.OpNE:
			p.s.Assert(solver.Exists(
				solver.NewCmp(sqltypes.OpGE, sum, solver.C((rhs+1)*scale)),
				solver.NewCmp(sqltypes.OpLE, sum, solver.C((rhs-1)*scale))))
		}
	default:
		// Unknown aggregate: no sound free-form encoding.
		p.s.Assert(conFalse())
	}
	return nil
}

// assertTwoDistinctOfThree asserts that the aggregated attribute takes
// exactly two distinct values over tuple sets 0-2: one pair is equal and
// the third value differs. Algorithm 4's S1 and S2 build such a group.
func (p *problem) assertTwoDistinctOfThree(arg qtree.AttrRef) error {
	var v [3]solver.Lin
	for set := range v {
		av, err := p.varOf(arg, set)
		if err != nil {
			return err
		}
		v[set] = solver.V(av)
	}
	pair := func(i, j, k int) solver.Con {
		return solver.NewAnd(solver.Eq(v[i], v[j]), solver.NewCmp(sqltypes.OpNE, v[i], v[k]))
	}
	p.s.Assert(solver.NewOr(pair(0, 1, 2), pair(0, 2, 1), pair(1, 2, 0)))
	return nil
}

// assertArgPairwise asserts op between the aggregated attribute's
// variables of every tuple-set pair.
func (p *problem) assertArgPairwise(arg qtree.AttrRef, n int, op sqltypes.CmpOp) error {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			vi, err := p.varOf(arg, i)
			if err != nil {
				return err
			}
			vj, err := p.varOf(arg, j)
			if err != nil {
				return err
			}
			p.s.Assert(solver.NewCmp(op, solver.V(vi), solver.V(vj)))
		}
	}
	return nil
}

// assertSetsPairwiseDiffer asserts that every pair of the n tuple sets
// differs in at least one non-group-by attribute, so the group holds n
// distinct rows.
func (p *problem) assertSetsPairwiseDiffer(n int) error {
	excluded := map[qtree.AttrRef]bool{}
	for _, gbAttr := range p.g.q.Agg.GroupBy {
		excluded[gbAttr] = true
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var disj []solver.Con
			for _, occ := range p.g.q.Occs {
				for _, a := range occ.Rel.Attrs {
					ar := qtree.AttrRef{Occ: occ.Name, Attr: a.Name}
					if excluded[ar] {
						continue
					}
					vi, err := p.varOf(ar, i)
					if err != nil {
						return err
					}
					vj, err := p.varOf(ar, j)
					if err != nil {
						return err
					}
					disj = append(disj, solver.NewCmp(sqltypes.OpNE, solver.V(vi), solver.V(vj)))
				}
			}
			if len(disj) == 0 {
				p.s.Assert(conFalse())
				return nil
			}
			p.s.Assert(solver.NewOr(disj...))
		}
	}
	return nil
}

func signOfInt(d int64) int {
	switch {
	case d < 0:
		return -1
	case d > 0:
		return 1
	default:
		return 0
	}
}

// likeGoals enumerates, per outer LIKE predicate: one goal per pattern
// variant — a dataset whose matched value lies in the symmetric
// difference of the original and mutated match sets, so exactly one of
// the two predicates holds — plus one violation goal on which NO tuple
// of the base relation satisfies the predicate (the LIKE analogue of the
// §V-E violating comparison datasets). The negation mutant is killed by
// the original dataset (its row passes, the negation drops it); the
// violation dataset exposes join-type mutants whose padded side is
// guarded only by the pattern.
func (g *Generator) likeGoals() []killGoal {
	var goals []killGoal
	for pi, pr := range g.q.Preds {
		if pr.Like == nil {
			continue
		}
		for _, v := range pr.Like.WildcardVariants() {
			pi, pr, v := pi, pr, v
			goals = append(goals, killGoal{
				purpose: func() string {
					return fmt.Sprintf("like variant %s vs %s on %s", quoteLike(pr.Like.Pattern), quoteLike(v.Pattern), pr.L)
				},
				run: func(g *Generator, gb *goalBudget, sub *Suite) error {
					return g.killLikeVariant(gb, sub, pi, pr, v)
				},
			})
		}
		pi, pr := pi, pr
		goals = append(goals, killGoal{
			purpose: func() string { return fmt.Sprintf("like violation %s on %s", quoteLike(pr.Like.Pattern), pr.L) },
			run: func(g *Generator, gb *goalBudget, sub *Suite) error {
				return g.killLikeViolation(gb, sub, pi, pr)
			},
		})
	}
	return goals
}

func quoteLike(pat string) string {
	return sqltypes.NewString(pat).SQLLiteral()
}

// seedLikeWitnesses expands a LIKE pattern's wildcards a few ways
// ('%' -> "", "z", "az"; '_' -> "a") and records the resulting strings,
// so the string pool contains concrete members (and near-misses) of the
// pattern's match set. Capped to keep the pool small.
func seedLikeWitnesses(strSet map[string]bool, pat string) {
	const cap = 16
	exps := []string{""}
	for j := 0; j < len(pat); j++ {
		var opts []string
		switch pat[j] {
		case '%':
			opts = []string{"", "z", "az"}
		case '_':
			opts = []string{"a"}
		default:
			opts = []string{string(pat[j])}
		}
		var next []string
		for _, e := range exps {
			for _, o := range opts {
				next = append(next, e+o)
				if len(next) >= cap {
					break
				}
			}
			if len(next) >= cap {
				break
			}
		}
		exps = next
	}
	for _, e := range exps {
		strSet[e] = true
	}
}

// killLikeVariant generates a dataset distinguishing a pattern variant:
// the matched expression takes a pool value on which original and
// variant patterns disagree, the targeted predicate is left free (the
// disagreement decides it), and everything else holds.
func (g *Generator) killLikeVariant(gb *goalBudget, suite *Suite, pi int, pr *qtree.Pred, v qtree.LikeVariant) error {
	purpose := fmt.Sprintf("kill like mutants: value distinguishing %s from %s on %s", quoteLike(pr.Like.Pattern), quoteLike(v.Pattern), pr.L)
	ds, err := g.buildDataset(gb, suite, purpose, 1, false, func(p *problem) error {
		orig := map[int64]bool{}
		for _, c := range p.g.likeSatCodes(pr.Like) {
			orig[c] = true
		}
		var diff []int64
		mutated := &qtree.LikeSpec{Not: pr.Like.Not, Pattern: v.Pattern}
		mutCodes := map[int64]bool{}
		for _, c := range p.g.likeSatCodes(mutated) {
			mutCodes[c] = true
		}
		for i := range p.strs.vals {
			c := int64(i)
			if orig[c] != mutCodes[c] {
				diff = append(diff, c)
			}
		}
		l, err := p.linOf(pr.L, nil, 0)
		if err != nil {
			return err
		}
		p.s.Assert(memberCon(l, diff))
		// The disagreement value decides which of original and mutant
		// shows the row; HAVING group fillers must land on the same side,
		// so pin their matched expression to tuple set 0's value.
		p.fillerConds = func(set int) error {
			ls, err := p.linOf(pr.L, nil, set)
			if err != nil {
				return err
			}
			p.s.Assert(solver.Eq(ls, l))
			return p.assertQueryConds(set, nil, map[int]bool{pi: true})
		}
		return p.assertQueryConds(0, nil, map[int]bool{pi: true})
	})
	if err != nil {
		return err
	}
	suite.addIfGenerated(ds)
	return nil
}

// killLikeViolation generates the dataset on which NO tuple of the
// pattern predicate's base relation satisfies it. Selections are applied
// at the leaves of the join tree, so this empties the occurrence's scan:
// any OUTER-join mutant above it pads the other side into the result
// while the original (inner) join returns nothing. Unsatisfiable when
// the pattern admits every pool value (e.g. '%'), in which case the goal
// is skipped — such a predicate cannot be violated and the corresponding
// mutants are equivalent along this axis.
func (g *Generator) killLikeViolation(gb *goalBudget, suite *Suite, pi int, pr *qtree.Pred) error {
	purpose := fmt.Sprintf("kill like mutants: no tuple of %s satisfies %s", pr.Occs[0], pr)
	ds, err := g.padFallback(func(padSafe bool) (*schema.Dataset, error) {
		return g.buildDataset(gb, suite, purpose, 1, true, func(p *problem) error {
			if err := p.notExistsPred(pr, pr.Op, pr.Occs[0], 0); err != nil {
				return err
			}
			if padSafe {
				if err := p.assertSubsEmptyForPadding(map[string]bool{pr.Occs[0]: true}, 0); err != nil {
					return err
				}
			}
			// notExistsPred already quantifies over every tuple of the base
			// relation, so HAVING group fillers only skip the targeted
			// predicate: all rows fail the pattern and surface through the
			// NOT-flip mutant together.
			p.fillerConds = func(set int) error {
				return p.assertQueryConds(set, nil, map[int]bool{pi: true})
			}
			return p.assertQueryConds(0, nil, map[int]bool{pi: true})
		})
	})
	if err != nil {
		return err
	}
	suite.addIfGenerated(ds)
	return nil
}

// subBlockCorrRefs returns the outer occurrences referenced by the
// block's own conjuncts (correlation predicates). The Outer comparison
// expression is deliberately excluded: NULL NOT IN S is decided by S
// alone, so a NULL outer expression does not empty the block the way a
// NULL-referencing correlation conjunct does.
func subBlockCorrRefs(s *qtree.SubQuery) map[string]bool {
	inner := s.OccSet()
	var attrs []qtree.AttrRef
	for _, pr := range s.Preds {
		attrs = pr.L.Attrs(attrs)
		if pr.R != nil {
			attrs = pr.R.Attrs(attrs)
		}
	}
	out := map[string]bool{}
	for _, a := range attrs {
		if !inner[a.Occ] {
			out[a.Occ] = true
		}
	}
	return out
}

// assertSubsEmptyForPadding makes NULL-padded join rows pass the
// retained NOT IN connectives. Subquery connectives are evaluated above
// the join, so a row padded with NULLs on the given occurrences yields
// NULL NOT IN S — UNKNOWN (row filtered) unless the qualifying set S is
// empty. A block correlated to a padded occurrence is safe as-is: its
// correlation conjunct evaluates to UNKNOWN on the padded row and
// empties S. Every other NOT IN block is asserted to hold no qualifying
// row at all. Unsatisfiable for conjunct-free uncorrelated blocks (in
// the slot model every relation has tuples, all of which qualify);
// callers retry without the assertion and accept the weaker dataset.
// NOT EXISTS blocks need nothing: the set-0 assertion of the connective
// already empties their qualifying set for the set-0 binding, and
// padded-occurrence correlation only shrinks it further.
func (p *problem) assertSubsEmptyForPadding(padded map[string]bool, set int) error {
	for si, s := range p.g.q.Subs {
		if p.skipSubs[si] || s.Kind != qtree.SubNotIn {
			continue
		}
		safe := false
		for occ := range subBlockCorrRefs(s) {
			if padded[occ] {
				safe = true
			}
		}
		if safe {
			continue
		}
		bodies, err := p.subBodies(s, set, false, 0)
		if err != nil {
			return err
		}
		p.s.Assert(solver.NotExists(bodies...))
	}
	return nil
}

// padFallback runs a goal build twice when the query retains NOT IN
// blocks: first with assertSubsEmptyForPadding (datasets whose padded
// rows survive the post-join connectives), then — if that is
// unsatisfiable — without it. Queries without NOT IN blocks build once.
func (g *Generator) padFallback(build func(padSafe bool) (*schema.Dataset, error)) (*schema.Dataset, error) {
	hasNotIn := false
	for _, s := range g.q.Subs {
		if s.Kind == qtree.SubNotIn {
			hasNotIn = true
		}
	}
	if !hasNotIn {
		return build(false)
	}
	ds, err := build(true)
	if err != nil || ds != nil {
		return ds, err
	}
	return build(false)
}
