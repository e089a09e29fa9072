package mutation

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/qtree"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// Kind classifies mutants.
type Kind string

// Mutant kinds, matching the paper's three mutation classes.
const (
	KindJoinType   Kind = "join-type"
	KindComparison Kind = "comparison"
	KindAggregate  Kind = "aggregate"
	KindSubquery   Kind = "subquery"
	KindHaving     Kind = "having"
	KindLike       Kind = "like"
)

// Mutant is a single syntactic mutation of the query, executable as an
// engine.Plan.
type Mutant struct {
	Key  string // canonical identity, for de-duplication
	Kind Kind
	Desc string
	Plan *engine.Plan

	sig atomic.Pointer[string] // memoized planSignature of Plan
}

// planSig returns planSignature(m.Plan), computed once per mutant. The
// plan never changes after construction, so the signature is memoized:
// kill-matrix evaluation re-signs the whole space on every call (the
// minimization loop evaluates the same mutants dozens of times), and
// canonicalization is the dominant cost of dedup.
func (m *Mutant) planSig() string {
	if p := m.sig.Load(); p != nil {
		return *p
	}
	s := planSignature(m.Plan)
	m.sig.Store(&s)
	return s
}

// Options configure mutant-space generation.
type Options struct {
	// IncludeFullOuter includes mutations to full outer join. The
	// paper's Table I experiments "ignore the mutation to full outer
	// join"; set true to include them.
	IncludeFullOuter bool
	// AllJoinOrders enumerates every equivalent join order for pure
	// inner-join queries (the paper's space). When false — or when the
	// query already contains outer joins, whose order is fixed by the
	// query text — only the written tree is mutated.
	AllJoinOrders bool
}

// DefaultOptions matches the paper's experimental setup.
func DefaultOptions() Options {
	return Options{IncludeFullOuter: false, AllJoinOrders: true}
}

// Space generates the de-duplicated mutant space for a query.
func Space(q *qtree.Query, opts Options) ([]*Mutant, error) {
	var out []*Mutant
	jm, err := JoinTypeMutants(q, opts)
	if err != nil {
		return nil, err
	}
	out = append(out, jm...)
	out = append(out, ComparisonMutants(q)...)
	out = append(out, AggregateMutants(q)...)
	out = append(out, SubqueryMutants(q)...)
	out = append(out, HavingMutants(q)...)
	out = append(out, LikeMutants(q)...)
	return out, nil
}

// JoinTypeMutants generates all single join-type mutations. For pure
// inner-join queries with AllJoinOrders, every cross-product-free join
// order is considered and mutants are de-duplicated by canonical form;
// for queries with outer joins the written tree's nodes are mutated to
// each other join type.
func JoinTypeMutants(q *qtree.Query, opts Options) ([]*Mutant, error) {
	if q.Root == nil || q.Root.IsLeaf() {
		return nil, nil
	}
	basePlan := engine.NewPlan(q)
	seen := map[string]bool{Canon(q.Root): true}
	var out []*Mutant

	// Each candidate's key is computed on the unmutated tree, so only
	// new mutants are cloned.
	addTreeMutants := func(tree *qtree.Node) {
		for ni, n := range tree.Nodes(nil) {
			for _, jt := range sqlparser.AllJoinTypes {
				if jt == n.Type || (jt == sqlparser.FullOuterJoin && !opts.IncludeFullOuter) {
					continue
				}
				key := canon(tree, n, jt)
				if seen[key] {
					continue
				}
				seen[key] = true
				mt := tree.Clone()
				mt.Nodes(nil)[ni].Type = jt
				out = append(out, &Mutant{
					Key:  key,
					Kind: KindJoinType,
					Desc: jt.Symbol() + " at [" + strings.Join(sortedNames(n.Left), ",") + "]|[" +
						strings.Join(sortedNames(n.Right), ",") + "] in " + mt.String(),
					Plan: basePlan.WithTree(mt),
				})
			}
		}
	}

	if q.AllInner() && opts.AllJoinOrders {
		trees, err := EnumerateTrees(q)
		if err != nil {
			return nil, err
		}
		// Every all-inner tree is equivalent to the original; record
		// each so de-duplication can skip inner-only mutants.
		for _, t := range trees {
			seen[Canon(t)] = true
		}
		for _, t := range trees {
			addTreeMutants(t)
		}
	} else {
		addTreeMutants(q.Root)
	}
	return out, nil
}

// ComparisonMutants generates the comparison-operator mutation space:
// each predicate conjunct's operator replaced by each of the other five
// operators (§II). Equi-join conjuncts represented by equivalence classes
// are join conditions, covered by the join-type space, and are not
// comparison-mutated.
func ComparisonMutants(q *qtree.Query) []*Mutant {
	basePlan := engine.NewPlan(q)
	var out []*Mutant
	for i, p := range q.Preds {
		if p.Like != nil {
			// Pattern predicates carry no comparison operator; their
			// space is LikeMutants.
			continue
		}
		for _, op := range sqltypes.AllCmpOps {
			if op == p.Op {
				continue
			}
			mp := p.WithOp(op)
			out = append(out, &Mutant{
				Key:  fmt.Sprintf("cmp:%d:%s", i, op),
				Kind: KindComparison,
				Desc: fmt.Sprintf("%s -> %s", p, mp),
				Plan: basePlan.WithPredReplaced(i, mp),
			})
		}
	}
	return out
}

// aggVariants is the paper's eight-operator aggregation space: MAX, MIN,
// SUM, AVG, COUNT, SUM(DISTINCT), AVG(DISTINCT), COUNT(DISTINCT).
var aggVariants = []struct {
	f sqlparser.AggFunc
	d bool
}{
	{sqlparser.AggMax, false},
	{sqlparser.AggMin, false},
	{sqlparser.AggSum, false},
	{sqlparser.AggAvg, false},
	{sqlparser.AggCount, false},
	{sqlparser.AggSum, true},
	{sqlparser.AggAvg, true},
	{sqlparser.AggCount, true},
}

// AggregateMutants generates the aggregation-operator mutation space:
// each aggregate call replaced by each of the other seven operators.
// COUNT(*) calls are not mutated (there is no aggregated attribute to
// carry over); numeric-only operators are skipped for non-numeric
// arguments.
func AggregateMutants(q *qtree.Query) []*Mutant {
	if q.Agg == nil {
		return nil
	}
	basePlan := engine.NewPlan(q)
	var out []*Mutant
	for i, call := range q.Agg.Calls {
		if call.Star {
			continue
		}
		numeric := q.AttrType(call.Arg).Numeric()
		for _, v := range aggVariants {
			if v.f == call.Func && v.d == call.Distinct {
				continue
			}
			if !numeric {
				switch v.f {
				case sqlparser.AggSum, sqlparser.AggAvg:
					continue
				}
			}
			mc := call.Mutate(v.f, v.d)
			out = append(out, &Mutant{
				Key:  fmt.Sprintf("agg:%d:%s", i, mc),
				Kind: KindAggregate,
				Desc: fmt.Sprintf("%s -> %s", call, mc),
				Plan: basePlan.WithAggReplaced(i, mc),
			})
		}
	}
	return out
}

// allSubKinds is the subquery-connective mutation space.
var allSubKinds = []qtree.SubKind{qtree.SubIn, qtree.SubNotIn, qtree.SubExists, qtree.SubNotExists}

// SubqueryMutants generates the subquery-connective mutation space: each
// retained WHERE subquery's connective replaced by each of the other
// three (IN, NOT IN, EXISTS, NOT EXISTS). The IN forms need an outer
// comparison expression, so an EXISTS block without one only mutates to
// its negation.
func SubqueryMutants(q *qtree.Query) []*Mutant {
	if len(q.Subs) == 0 {
		return nil
	}
	basePlan := engine.NewPlan(q)
	var out []*Mutant
	for i, s := range q.Subs {
		for _, k := range allSubKinds {
			if k == s.Kind {
				continue
			}
			if k.HasOuter() && s.Outer == nil {
				continue
			}
			ms := s.WithKind(k)
			out = append(out, &Mutant{
				Key:  fmt.Sprintf("sub:%d:%s", i, k),
				Kind: KindSubquery,
				Desc: fmt.Sprintf("%s -> %s", s.Kind, k),
				Plan: basePlan.WithSubReplaced(i, ms),
			})
		}
	}
	return out
}

// HavingMutants generates the HAVING-comparison mutation space: each
// HAVING conjunct's operator replaced by each of the other five.
func HavingMutants(q *qtree.Query) []*Mutant {
	if q.Agg == nil || len(q.Agg.Having) == 0 {
		return nil
	}
	basePlan := engine.NewPlan(q)
	var out []*Mutant
	for i, h := range q.Agg.Having {
		for _, op := range sqltypes.AllCmpOps {
			if op == h.Op {
				continue
			}
			mh := h.WithOp(op)
			out = append(out, &Mutant{
				Key:  fmt.Sprintf("hav:%d:%s", i, op),
				Kind: KindHaving,
				Desc: fmt.Sprintf("%s -> %s", h, mh),
				Plan: basePlan.WithHavingReplaced(i, mh),
			})
		}
	}
	return out
}

// likeVariant is one mutation of a pattern predicate: negation flipped
// or the pattern altered at one wildcard.
type likeVariant struct {
	tag string
	not bool
	pat string
}

// likeVariants enumerates the mutations of one LIKE predicate: the
// negation flip, each wildcard flipped between % and _, and each
// wildcard deleted.
func likeVariants(not bool, pat string) []likeVariant {
	out := []likeVariant{{tag: "neg", not: !not, pat: pat}}
	for j := 0; j < len(pat); j++ {
		switch pat[j] {
		case '%':
			out = append(out, likeVariant{tag: fmt.Sprintf("flip%d", j), not: not, pat: pat[:j] + "_" + pat[j+1:]})
			out = append(out, likeVariant{tag: fmt.Sprintf("del%d", j), not: not, pat: pat[:j] + pat[j+1:]})
		case '_':
			out = append(out, likeVariant{tag: fmt.Sprintf("flip%d", j), not: not, pat: pat[:j] + "%" + pat[j+1:]})
			out = append(out, likeVariant{tag: fmt.Sprintf("del%d", j), not: not, pat: pat[:j] + pat[j+1:]})
		}
	}
	return out
}

// LikeMutants generates the pattern-predicate mutation space: for each
// LIKE / NOT LIKE conjunct — in the outer WHERE or inside a retained
// subquery block — the negation flipped, each wildcard flipped between
// % and _, and each wildcard deleted.
func LikeMutants(q *qtree.Query) []*Mutant {
	basePlan := engine.NewPlan(q)
	var out []*Mutant
	for i, p := range q.Preds {
		if p.Like == nil {
			continue
		}
		for _, v := range likeVariants(p.Like.Not, p.Like.Pattern) {
			mp := p.WithLike(v.not, v.pat)
			out = append(out, &Mutant{
				Key:  fmt.Sprintf("like:%d:%s", i, v.tag),
				Kind: KindLike,
				Desc: fmt.Sprintf("%s -> %s", p, mp),
				Plan: basePlan.WithPredReplaced(i, mp),
			})
		}
	}
	for si, s := range q.Subs {
		for j, p := range s.Preds {
			if p.Like == nil {
				continue
			}
			for _, v := range likeVariants(p.Like.Not, p.Like.Pattern) {
				mp := p.WithLike(v.not, v.pat)
				ms := s.WithKind(s.Kind) // shallow copy
				ms.Preds = make([]*qtree.Pred, len(s.Preds))
				copy(ms.Preds, s.Preds)
				ms.Preds[j] = mp
				out = append(out, &Mutant{
					Key:  fmt.Sprintf("like:s%d.%d:%s", si, j, v.tag),
					Kind: KindLike,
					Desc: fmt.Sprintf("%s -> %s (in %s block)", p, mp, s.Kind),
					Plan: basePlan.WithSubReplaced(si, ms),
				})
			}
		}
	}
	return out
}
