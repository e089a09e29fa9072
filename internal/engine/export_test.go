package engine

import (
	"repro/internal/qtree"
	"repro/internal/sqlparser"
)

// Hooks for the white-box tests in compile_test.go and
// cache_family_test.go. Those tests build their inputs with the
// mutation package, which imports engine, so they live in package
// engine_test and reach the compiler and the cache through here.

// NodeInfo is one compiled node, flattened for comparison.
type NodeInfo struct {
	Node        any // the compiled node itself, for identity checks
	Left, Right any // its children; nil at a leaf
	Occ         *qtree.Occurrence
	Type        sqlparser.JoinType
	Op          int32
	// Slot is the node's subtree slot within its compile family;
	// LeftSlot and RightSlot are its children's (-1 at a leaf).
	Slot, LeftSlot, RightSlot int32
	Off                       []int32 // column layout by occurrence position
	Pairs                     [][2]int
	Preds                     []*qtree.Pred // selections at a leaf, join predicates at a join
	// PredCols lists the compiled column index of every attribute
	// reference in Preds, in order.
	PredCols []int
}

// CompiledInfo is a compiled plan: its nodes in pre-order, its
// projection id, and its resolved output indices (group-by, aggregate
// and HAVING arguments, then every projection coalesce list).
type CompiledInfo struct {
	Nodes  []NodeInfo
	ProjID int32
	Cols   []int
}

// CompileShared compiles plans as one family, as CompilePlans does, and
// returns what each compile built. The plans' own compiled state is
// left untouched.
func CompileShared(plans []*Plan) ([]CompiledInfo, []error) {
	s := newMemoSet(len(plans))
	infos := make([]CompiledInfo, len(plans))
	errs := make([]error, len(plans))
	for i, p := range plans {
		var cp *compiledPlan
		cp, errs[i] = s.compile(p)
		if cp != nil {
			infos[i] = info(p, cp)
		}
	}
	s.seal()
	return infos, errs
}

// CompilePrivate compiles p as a lazy compile does, as a family of its
// own, leaving the plan's own compiled state untouched.
func CompilePrivate(p *Plan) (CompiledInfo, error) {
	s := newMemoSet(1)
	cp, err := s.compile(p)
	s.seal()
	if cp == nil {
		return CompiledInfo{}, err
	}
	return info(p, cp), err
}

// Compiled reports whether p's compile has run. Callers must not race
// it with a compile.
func Compiled(p *Plan) bool { return p.comp != nil || p.compErr != nil }

// FamilySlots returns the number of distinct subtrees in the compile
// family of p, compiling p lazily if nothing has compiled it yet.
func FamilySlots(p *Plan) (int, error) {
	cp, err := p.compile()
	if err != nil {
		return 0, err
	}
	return cp.fam.slots, nil
}

// SubIndexLen returns the length of the cache's subtree index.
func SubIndexLen(sc *SharedCache) int { return len(sc.subs) }

// CacheBlocks returns how many batch blocks, index-slab chunks and
// value-slab chunks the cache has allocated.
func CacheBlocks(sc *SharedCache) (batches, ints, cells int) {
	return len(sc.batches.blocks), len(sc.ints.chunks), len(sc.cells.chunks)
}

func info(p *Plan, cp *compiledPlan) CompiledInfo {
	ci := CompiledInfo{Nodes: flatten(p.Tree, cp.root, nil), ProjID: cp.projID}
	ci.Cols = append(ci.Cols, cp.groupIdx...)
	ci.Cols = append(ci.Cols, cp.aggIdx...)
	ci.Cols = append(ci.Cols, cp.havingIdx...)
	for _, idx := range cp.projIdx {
		ci.Cols = append(ci.Cols, idx...)
	}
	return ci
}

func flatten(n *qtree.Node, c *cnode, out []NodeInfo) []NodeInfo {
	ni := NodeInfo{Node: c, Op: c.opID, Slot: c.slot, LeftSlot: -1, RightSlot: -1, Off: c.off}
	if c.leaf {
		ni.Occ = n.Occ
		for i := range c.sels {
			ni.Preds = append(ni.Preds, c.sels[i].src)
			ni.PredCols = c.sels[i].appendCols(ni.PredCols)
		}
		return append(out, ni)
	}
	ni.Left, ni.Right, ni.Type = c.left, c.right, c.jt
	ni.LeftSlot, ni.RightSlot = c.left.slot, c.right.slot
	for _, pr := range c.pairs {
		ni.Pairs = append(ni.Pairs, [2]int{pr.l, pr.r})
	}
	for i := range c.preds {
		ni.Preds = append(ni.Preds, c.preds[i].src)
		ni.PredCols = c.preds[i].appendCols(ni.PredCols)
	}
	out = append(out, ni)
	out = flatten(n.Left, c.left, out)
	return flatten(n.Right, c.right, out)
}

func (p *cpred) appendCols(dst []int) []int {
	return p.r.appendCols(p.l.appendCols(dst))
}

func (s *cscalar) appendCols(dst []int) []int {
	switch s.kind {
	case qtree.SAttr:
		return append(dst, s.col)
	case qtree.SArith:
		return s.r.appendCols(s.l.appendCols(dst))
	}
	return dst
}
