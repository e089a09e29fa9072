package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/sqltypes"
)

// generateOriginal produces a dataset on which the original query has a
// non-empty result (generateDataSetForOriginalQuery of Algorithm 1): all
// equivalence classes and predicates are satisfied by the occurrence
// tuples. This dataset also kills any mutant whose result is empty on
// every legal database.
func (g *Generator) generateOriginal(gb *goalBudget, suite *Suite) (*schema.Dataset, error) {
	return g.buildDataset(gb, suite, "satisfies the original query (non-empty result)", 1, false, func(p *problem) error {
		return p.assertQueryConds(0, nil, nil)
	})
}

// equivalenceClassGoals enumerates Algorithm 2: for every element e of
// every equivalence class, one goal jointly nullifies e together with all
// class members that are foreign keys referencing e (directly or
// transitively), while the remaining members P join with each other. If
// P is empty the targeted mutants are equivalent and no dataset is
// generated. Each class is rendered once, for all of its goals.
func (g *Generator) equivalenceClassGoals() []killGoal {
	var goals []killGoal
	for _, ec := range g.q.Classes {
		ecs := ec.String()
		for _, e := range ec.Members {
			ec, e := ec, e
			goals = append(goals, killGoal{
				purpose: func() string { return "nullify " + e.String() + " on class " + ecs },
				run: func(g *Generator, gb *goalBudget, sub *Suite) error {
					return g.killClassMember(gb, sub, ec, ecs, e)
				},
			})
		}
	}
	return goals
}

// killClassMember solves one Algorithm 2 nullification goal; ecs is the
// rendered class.
func (g *Generator) killClassMember(gb *goalBudget, suite *Suite, ec *qtree.EquivClass, ecs string, e qtree.AttrRef) error {
	S, P := g.splitClassByFK(ec, e)
	purpose := "kill join-type mutants: nullify " + attrList(S) + " on class " + ecs
	if len(P) == 0 {
		// §V-H relaxation of A2: when a referencing foreign-key
		// column is nullable, a NULL foreign key provides the
		// unmatched tuple that nullifying the referenced
		// attribute cannot.
		done, err := g.nullableFKFallback(gb, suite, ec, ecs, e, S)
		if err != nil {
			return err
		}
		if !done {
			suite.Skipped = append(suite.Skipped, Skip{
				Purpose: purpose,
				Reason:  "every class member is (or references) the nullified key: equivalent mutants",
			})
		}
		return nil
	}
	padded := map[string]bool{}
	for _, m := range S {
		padded[m.Occ] = true
	}
	ds, err := g.padFallback(func(padSafe bool) (*schema.Dataset, error) {
		return g.buildDataset(gb, suite, purpose, 1, true, func(p *problem) error {
			// P members join with each other...
			cons, err := p.classCons(P, 0)
			if err != nil {
				return err
			}
			for _, c := range cons {
				p.s.Assert(c)
			}
			// ...but no tuple of any S relation matches them.
			pv, err := p.varOf(P[0], 0)
			if err != nil {
				return err
			}
			pivot := solver.V(pv)
			for _, ra := range dedupeRelAttrs(g.q, S) {
				if err := p.notExistsValue(ra.rel, ra.attr, pivot); err != nil {
					return err
				}
			}
			// Rows padded with NULLs on the unmatched side must clear the
			// post-join NOT IN connectives, or the join-type mutants this
			// goal targets filter them right back out.
			if padSafe {
				if err := p.assertSubsEmptyForPadding(padded, 0); err != nil {
					return err
				}
			}
			// All other classes and all predicates hold, so the
			// difference propagates to the root.
			skip := map[*qtree.EquivClass]bool{ec: true}
			return p.assertQueryConds(0, skip, nil)
		})
	})
	if err != nil {
		return err
	}
	suite.addIfGenerated(ds)
	return nil
}

// nullableFKFallback implements the §V-H alternative when nullifying a
// referenced attribute is impossible (P = ∅): pick a referencing class
// member f whose foreign-key column is nullable (and not part of its
// primary key) and build a dataset where f's occurrence carries NULL in
// that column — an f-tuple with no join partner, killing the same
// join-type mutants the ordinary nullification would. Reports whether a
// dataset was generated.
func (g *Generator) nullableFKFallback(gb *goalBudget, suite *Suite, ec *qtree.EquivClass, ecs string, e qtree.AttrRef, S []qtree.AttrRef) (bool, error) {
	var f qtree.AttrRef
	found := false
	for _, m := range S {
		if m == e {
			continue
		}
		rel := g.q.Occ(m.Occ).Rel
		attr := rel.Attr(m.Attr)
		if attr != nil && !attr.NotNull && !rel.IsPrimaryKeyCol(m.Attr) {
			f = m
			found = true
			break
		}
	}
	if !found {
		return false, nil
	}
	// Members sharing f's base attribute are NULL-patched together; the
	// remaining members must still join among themselves so the
	// difference propagates.
	fRel := g.q.Occ(f.Occ).Rel
	var nullMembers, rest []qtree.AttrRef
	for _, m := range ec.Members {
		mRel := g.q.Occ(m.Occ).Rel
		if mRel.Name == fRel.Name && m.Attr == f.Attr {
			nullMembers = append(nullMembers, m)
		} else {
			rest = append(rest, m)
		}
	}
	purpose := "kill join-type mutants: NULL foreign key " + f.String() + " on class " + ecs + " (§V-H, nullable FK)"
	ds, err := g.buildDataset(gb, suite, purpose, 1, true, func(p *problem) error {
		cons, err := p.classCons(rest, 0)
		if err != nil {
			return err
		}
		for _, c := range cons {
			p.s.Assert(c)
		}
		for _, m := range nullMembers {
			sl, ok := p.occSlot[occSet{m.Occ, 0}]
			if !ok {
				return fmt.Errorf("core: no slot for occurrence %s (set 0)", m.Occ)
			}
			p.patchNull(sl, m.Attr)
		}
		// No other tuple of f's relation may join in f's place.
		if len(rest) > 0 {
			rv, err := p.varOf(rest[0], 0)
			if err != nil {
				return err
			}
			if err := p.notExistsValue(fRel, f.Attr, solver.V(rv)); err != nil {
				return err
			}
		}
		skip := map[*qtree.EquivClass]bool{ec: true}
		return p.assertQueryConds(0, skip, nil)
	})
	if err != nil {
		return false, err
	}
	suite.addIfGenerated(ds)
	return ds != nil, nil
}

// splitClassByFK computes Algorithm 2's S and P sets: S is the element e
// plus every class member whose base attribute references e's base
// attribute in the foreign-key closure; P is the rest.
func (g *Generator) splitClassByFK(ec *qtree.EquivClass, e qtree.AttrRef) (S, P []qtree.AttrRef) {
	eRel := g.q.Occ(e.Occ).Rel
	target := schema.ColRef{Table: eRel.Name, Column: e.Attr}
	referencers := g.referencersOf(target)
	for _, m := range ec.Members {
		mRel := g.q.Occ(m.Occ).Rel
		if m == e || slices.Contains(referencers, schema.ColRef{Table: mRel.Name, Column: m.Attr}) ||
			(mRel.Name == eRel.Name && m.Attr == e.Attr) {
			// Same base attribute as e (another occurrence of the same
			// relation) is necessarily nullified together with e.
			S = append(S, m)
		} else {
			P = append(P, m)
		}
	}
	return S, P
}

type relAttr struct {
	rel  *schema.Relation
	attr string
}

// dedupeRelAttrs maps class members to distinct (base relation,
// attribute) pairs: nullification quantifies over all tuples of the base
// relation, so repeated occurrences collapse.
func dedupeRelAttrs(q *qtree.Query, members []qtree.AttrRef) []relAttr {
	out := make([]relAttr, 0, len(members))
	for _, m := range members {
		ra := relAttr{rel: q.Occ(m.Occ).Rel, attr: m.Attr}
		if !slices.ContainsFunc(out, func(o relAttr) bool { return o.rel.Name == ra.rel.Name && o.attr == ra.attr }) {
			out = append(out, ra)
		}
	}
	return out
}

// attrList renders attribute references as a class does: "{a, b}".
func attrList(as []qtree.AttrRef) string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, a := range as {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(schema.QuoteIdent(a.Occ))
		sb.WriteByte('.')
		sb.WriteString(schema.QuoteIdent(a.Attr))
	}
	sb.WriteByte('}')
	return sb.String()
}

// referencersOf returns the columns referencing target in the schema's
// foreign-key closure (Algorithm 2's S set, nullified jointly with
// target). The closure is computed once per generator.
func (g *Generator) referencersOf(target schema.ColRef) []schema.ColRef {
	if !g.fkDone {
		g.fkClosure = g.q.Schema.FKClosure()
		g.fkDone = true
	}
	var out []schema.ColRef
	for _, e := range g.fkClosure {
		if e.To == target {
			out = append(out, e.From)
		}
	}
	return out
}

// otherPredicateGoals enumerates Algorithm 3 for non-equi join
// conditions: for each cross-occurrence predicate p and each relation r
// participating in it, one goal generates a dataset where no tuple of r
// satisfies p against the other relations' tuples, while everything else
// holds. (Selections are handled by the comparison goals, whose
// violating datasets carry the same NOT-EXISTS constraint — see
// Example 2.)
func (g *Generator) otherPredicateGoals() []killGoal {
	var goals []killGoal
	for i, pr := range g.q.Preds {
		if len(pr.Occs) < 2 || pr.Like != nil {
			continue
		}
		for _, occ := range pr.Occs {
			pi, pr, occ := i, pr, occ
			goals = append(goals, killGoal{
				purpose: func() string { return fmt.Sprintf("nullify %s on predicate %s", occ, pr) },
				run: func(g *Generator, gb *goalBudget, sub *Suite) error {
					return g.killPredOccurrence(gb, sub, pi, pr, occ)
				},
			})
		}
	}
	return goals
}

// killPredOccurrence solves one Algorithm 3 goal: no tuple of occ's base
// relation satisfies predicate pi against the other relations' tuples.
func (g *Generator) killPredOccurrence(gb *goalBudget, suite *Suite, pi int, pr *qtree.Pred, occ string) error {
	purpose := fmt.Sprintf("kill join-type mutants: nullify %s on predicate %s", occ, pr)
	ds, err := g.padFallback(func(padSafe bool) (*schema.Dataset, error) {
		return g.buildDataset(gb, suite, purpose, 1, true, func(p *problem) error {
			if err := p.notExistsPred(pr, pr.Op, occ, 0); err != nil {
				return err
			}
			if padSafe {
				if err := p.assertSubsEmptyForPadding(map[string]bool{occ: true}, 0); err != nil {
					return err
				}
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

// datasetOps are the three comparison datasets of §V-E: as shown in [14],
// datasets satisfying L = R, L < R and L > R jointly kill every mutant of
// every comparison operator.
var datasetOps = []struct {
	op   sqltypes.CmpOp
	sign int
}{
	{sqltypes.OpEQ, 0},
	{sqltypes.OpLT, -1},
	{sqltypes.OpGT, 1},
}

// comparisonOperatorGoals enumerates §V-E, generalized from "A.x op val"
// to any predicate conjunct: for each predicate, three goals replace it
// by =, < and >. Datasets that violate the original operator
// additionally assert, for single-occurrence predicates, that NO tuple of
// the relation satisfies the original predicate — the Example 2
// requirement that makes join mutants killable when foreign keys prevent
// nullifying the referenced side.
func (g *Generator) comparisonOperatorGoals() []killGoal {
	var goals []killGoal
	for i, pr := range g.q.Preds {
		if pr.Like != nil {
			continue // pattern predicates: see likeGoals
		}
		for _, dop := range datasetOps {
			pi, pr, dop := i, pr, dop
			goals = append(goals, killGoal{
				purpose: func() string { return fmt.Sprintf("comparison dataset (%s) %s (%s)", pr.L, dop.op, pr.R) },
				run: func(g *Generator, gb *goalBudget, sub *Suite) error {
					return g.killComparisonVariant(gb, sub, pi, pr, dop.op, dop.sign)
				},
			})
		}
	}
	return goals
}

// killComparisonVariant solves one §V-E goal: a dataset on which
// predicate pi's comparison holds with the given operator variant.
func (g *Generator) killComparisonVariant(gb *goalBudget, suite *Suite, pi int, pr *qtree.Pred, op sqltypes.CmpOp, sign int) error {
	purpose := fmt.Sprintf("kill comparison mutants: dataset with (%s) %s (%s)", pr.L, op, pr.R)
	violating := !pr.Op.HoldsSign(sign)
	// Single-occurrence predicates quantify the variant (or its
	// violation) over EVERY tuple of the base relation below, which can
	// require distinct foreign-key targets per tuple — so they always
	// need the referenced-tuple repair capacity, not just the violating
	// variants.
	needRepair := violating || len(pr.Occs) == 1
	ds, err := g.padFallback(func(padSafe bool) (*schema.Dataset, error) {
		return g.buildDataset(gb, suite, purpose, 1, needRepair, func(p *problem) error {
			c, err := p.predCon(pr, op, nil, 0)
			if err != nil {
				return err
			}
			p.s.Assert(c)
			if violating {
				// This dataset shows rows only through mutants that accept
				// the variant, so any HAVING group fillers must satisfy the
				// variant too (the original predicate holds on no tuple).
				p.fillerConds = func(set int) error {
					fc, err := p.predCon(pr, op, nil, set)
					if err != nil {
						return err
					}
					p.s.Assert(fc)
					return p.assertQueryConds(set, nil, map[int]bool{pi: true})
				}
			}
			if len(pr.Occs) == 1 {
				if violating {
					if err := p.notExistsPred(pr, pr.Op, pr.Occs[0], 0); err != nil {
						return err
					}
					// A violated selection empties the occurrence's scan;
					// padded rows must also clear the post-join NOT IN
					// connectives to expose outer-join mutants.
					if padSafe {
						if err := p.assertSubsEmptyForPadding(map[string]bool{pr.Occs[0]: true}, 0); err != nil {
							return err
						}
					}
				} else {
					// §V-E soundness under repeated relations: this dataset
					// kills exactly the operator variants that are false at
					// sign, and that argument needs their mutants to select
					// NO tuple — so no tuple of the base relation (in
					// particular, none feeding another occurrence of the
					// same relation) may satisfy the complement of the
					// variant. Found by the randql completeness soak: with a
					// free sibling-occurrence tuple, the '>' dataset for
					// "e <> 'u'" let the '<' mutant match that tuple and
					// produce an identical grouped result.
					if err := p.notExistsPred(pr, op.Negate(), pr.Occs[0], 0); err != nil {
						return err
					}
				}
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

// aggRelaxations lists Algorithm 4's constraint-set combinations in
// decreasing strength; the first satisfiable one wins (lines 11–13:
// inconsistent sets are dropped). S4 is the paper's §V-F extension:
// extra constraints ensuring COUNT/COUNT(DISTINCT) differ from the other
// aggregation results and distinct values do not cancel — realized as
// "every aggregated value is at least 4", which separates all eight
// operators pairwise whenever S1/S2 hold (sums exceed counts, averages
// of unequal values are strict, and no pair sums to zero). Each base
// combination is tried with S4 before falling back without it.
var aggRelaxations = [][4]bool{ // {S1, S2, S3, S4}
	{true, true, true, true},
	{true, true, true, false},
	{true, true, false, true},
	{true, true, false, false},
	{false, true, true, true},
	{false, true, true, false},
	{true, false, true, true},
	{true, false, true, false},
	{false, true, false, true},
	{false, true, false, false},
	{true, false, false, true},
	{true, false, false, false},
	{false, false, true, true},
	{false, false, true, false},
	{false, false, false, true},
	{false, false, false, false},
}

// aggDroppedSuffix[i] names the constraint sets aggRelaxations[i] drops,
// as a purpose suffix: "" or " (dropped S1,S3)".
var aggDroppedSuffix = func() []string {
	out := make([]string, len(aggRelaxations))
	for i, relax := range aggRelaxations {
		var dropped []string
		for k, on := range relax {
			if !on {
				dropped = append(dropped, fmt.Sprintf("S%d", k+1))
			}
		}
		if len(dropped) > 0 {
			out[i] = " (dropped " + strings.Join(dropped, ",") + ")"
		}
	}
	return out
}()

// aggregateGoals enumerates Algorithm 4: for each mutatable aggregate
// call, a dataset with three tuple sets in the same group — two sharing a
// non-zero aggregated value but differing elsewhere (distinguishing
// DISTINCT variants and COUNT), and a third with a different aggregated
// value (distinguishing MIN/MAX/SUM/AVG) — whose group does not occur in
// any other tuple. Each goal runs the full relaxation ladder internally
// (the ladder is inherently sequential: the first satisfiable set wins).
func (g *Generator) aggregateGoals() []killGoal {
	if g.q.Agg == nil {
		return nil
	}
	var goals []killGoal
	for _, call := range g.q.Agg.Calls {
		if call.Star {
			continue // COUNT(*) has no aggregated attribute to mutate
		}
		call := call
		goals = append(goals, killGoal{
			purpose: func() string { return fmt.Sprintf("aggregate mutations of %s", call) },
			run: func(g *Generator, gb *goalBudget, sub *Suite) error {
				return g.killAggregateCall(gb, sub, call)
			},
		})
	}
	return goals
}

// killAggregateCall solves one Algorithm 4 goal, walking the relaxation
// ladder until a constraint set is satisfiable.
func (g *Generator) killAggregateCall(gb *goalBudget, suite *Suite, call qtree.AggCall) error {
	numeric := g.q.AttrType(call.Arg).Numeric()
	generated := false
	base := "kill aggregation mutants of " + call.String()
	for ri, relax := range aggRelaxations {
		purpose := base + aggDroppedSuffix[ri]
		cc := call
		ds, err := g.buildDataset(gb, suite, purpose, 3, true, func(p *problem) error {
			// S0: every tuple set satisfies the query; group-by
			// values agree across the three sets.
			for set := 0; set < 3; set++ {
				if err := p.assertQueryConds(set, nil, nil); err != nil {
					return err
				}
			}
			for _, gbAttr := range g.q.Agg.GroupBy {
				v0, err := p.varOf(gbAttr, 0)
				if err != nil {
					return err
				}
				v1, err := p.varOf(gbAttr, 1)
				if err != nil {
					return err
				}
				v2, err := p.varOf(gbAttr, 2)
				if err != nil {
					return err
				}
				p.s.Assert(solver.Eq(solver.V(v0), solver.V(v1)))
				p.s.Assert(solver.Eq(solver.V(v1), solver.V(v2)))
			}
			av0, err := p.varOf(cc.Arg, 0)
			if err != nil {
				return err
			}
			av1, err := p.varOf(cc.Arg, 1)
			if err != nil {
				return err
			}
			av2, err := p.varOf(cc.Arg, 2)
			if err != nil {
				return err
			}
			a0, a1, a2 := solver.V(av0), solver.V(av1), solver.V(av2)
			if relax[0] { // S1
				p.s.Assert(solver.Eq(a0, a1))
				if numeric {
					p.s.Assert(solver.NewCmp(sqltypes.OpNE, a0, solver.C(0)))
				}
				diff, err := p.tupleSetsDiffer(cc.Arg, g.q.Agg.GroupBy)
				if err != nil {
					return err
				}
				if diff == nil {
					// No attribute outside G and A exists, so "differ
					// in at least one other attribute" is infeasible:
					// S1 must be dropped by the relaxation ladder.
					diff = solver.NewCmp(sqltypes.OpNE, solver.C(0), solver.C(0))
				}
				p.s.Assert(diff)
			}
			if relax[1] { // S2
				p.s.Assert(solver.NewCmp(sqltypes.OpNE, a2, a0))
			}
			if relax[2] { // S3
				if err := p.assertGroupIsolation(); err != nil {
					return err
				}
			}
			if relax[3] && numeric { // S4 (§V-F extension)
				for set := 0; set < 3; set++ {
					av, err := p.varOf(cc.Arg, set)
					if err != nil {
						return err
					}
					p.s.Assert(solver.NewCmp(sqltypes.OpGE,
						solver.V(av), solver.C(4)))
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if ds != nil {
			ds.Purpose = purpose
			suite.Datasets = append(suite.Datasets, ds)
			generated = true
			break
		}
	}
	if !generated {
		suite.Skipped = append(suite.Skipped, Skip{
			Purpose: base,
			Reason:  "no relaxation of S1-S3 is satisfiable",
		})
	}
	return nil
}
