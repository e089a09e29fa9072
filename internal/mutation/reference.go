package mutation

import (
	"fmt"
	"maps"

	"repro/internal/qtree"
	"repro/internal/refeval"
	"repro/internal/schema"
)

// ReferenceKills computes the kill matrix of mutants against datasets on
// refeval, the naive reference evaluator that shares no code with the
// engine: killed[m][d] is true when the multisets of refeval.Eval (the
// original query) and refeval.EvalPlan (mutant m) differ on dataset d.
// It is the oracle every compiled kill matrix is checked against, in
// tests and in the untimed agreement pass of xbench -table killmatrix;
// it dedups and caches nothing, so it is far slower than Evaluate.
func ReferenceKills(q *qtree.Query, mutants []*Mutant, datasets []*schema.Dataset) ([][]bool, error) {
	killed := make([][]bool, len(mutants))
	for mi := range killed {
		killed[mi] = make([]bool, len(datasets))
	}
	for di, ds := range datasets {
		want, err := refeval.Eval(q, ds)
		if err != nil {
			return nil, fmt.Errorf("mutation: refeval original on dataset %d: %w", di, err)
		}
		wantMS := want.Multiset()
		for mi, m := range mutants {
			p := m.Plan
			got, err := refeval.EvalPlan(p.Query, p.Tree, p.Preds, p.Subs, p.Aggs, p.Having, ds)
			if err != nil {
				return nil, fmt.Errorf("mutation: refeval mutant %q on dataset %d: %w", m.Desc, di, err)
			}
			killed[mi][di] = !maps.Equal(wantMS, got.Multiset())
		}
	}
	return killed, nil
}

// FirstDisagreement returns the first (mutant, dataset) cell where the
// report's kill bit differs from killed, or ok=false when every cell
// agrees.
func (r *Report) FirstDisagreement(killed [][]bool) (mi, di int, ok bool) {
	for mi := range r.Killed {
		for di := range r.Killed[mi] {
			if r.Killed[mi][di] != killed[mi][di] {
				return mi, di, true
			}
		}
	}
	return 0, 0, false
}
