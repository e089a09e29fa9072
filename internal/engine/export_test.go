package engine

import (
	"repro/internal/qtree"
	"repro/internal/sqlparser"
)

// Hooks for the white-box tests in compile_test.go. Those tests build
// their inputs with the mutation package, which imports engine, so they
// live in package engine_test and reach the compiler through here.

// NodeInfo is one compiled node, flattened for comparison.
type NodeInfo struct {
	Node        any // the compiled node itself, for identity checks
	Left, Right any // its children; nil at a leaf
	Occ         *qtree.Occurrence
	Type        sqlparser.JoinType
	Op, Sub     int32
	Pairs       [][2]int
	Preds       []*qtree.Pred // selections at a leaf, join predicates at a join
}

// CompiledInfo is a compiled plan: its nodes in pre-order and its
// projection id.
type CompiledInfo struct {
	Nodes  []NodeInfo
	ProjID int32
}

// CompileShared compiles plans through the memos of one CompilePlans
// call, in order, and returns what each compile built. The plans' own
// compiled state is left untouched.
func CompileShared(plans []*Plan) ([]CompiledInfo, []error) {
	memos := memoSet{}
	infos := make([]CompiledInfo, len(plans))
	errs := make([]error, len(plans))
	for i, p := range plans {
		var cp *compiledPlan
		cp, errs[i] = memos.compile(p)
		if cp != nil {
			infos[i] = info(p, cp)
		}
	}
	return infos, errs
}

// CompilePrivate compiles p as a lazy compile does, through a private
// memo, leaving the plan's own compiled state untouched.
func CompilePrivate(p *Plan) (CompiledInfo, error) {
	cp, err := p.doCompile(newCompileMemo(p))
	if cp == nil {
		return CompiledInfo{}, err
	}
	return info(p, cp), err
}

// Compiled reports whether p's compile has run. Callers must not race
// it with a compile.
func Compiled(p *Plan) bool { return p.comp != nil || p.compErr != nil }

func info(p *Plan, cp *compiledPlan) CompiledInfo {
	return CompiledInfo{Nodes: flatten(p.Tree, cp.root, nil), ProjID: cp.projID}
}

func flatten(n *qtree.Node, c *cnode, out []NodeInfo) []NodeInfo {
	ni := NodeInfo{Node: c, Op: c.opID, Sub: c.subID}
	if c.leaf {
		ni.Occ = n.Occ
		for i := range c.sels {
			ni.Preds = append(ni.Preds, c.sels[i].src)
		}
		return append(out, ni)
	}
	ni.Left, ni.Right, ni.Type = c.left, c.right, c.jt
	for _, pr := range c.pairs {
		ni.Pairs = append(ni.Pairs, [2]int{pr.l, pr.r})
	}
	for i := range c.preds {
		ni.Preds = append(ni.Preds, c.preds[i].src)
	}
	out = append(out, ni)
	out = flatten(n.Left, c.left, out)
	return flatten(n.Right, c.right, out)
}
