package engine

import (
	"sync/atomic"

	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// ExecStats counts what the executor did. All fields are atomic so one
// stats block can keep totals across concurrent requests (the daemon's
// /statsz engine counters); the nil *ExecStats is valid everywhere and
// counts nothing.
type ExecStats struct {
	CompiledRuns     atomic.Int64 // plan executions
	CompiledBatches  atomic.Int64 // batches actually built (cache hits excluded)
	SmallJoins       atomic.Int64 // join nodes with equi-pairs
	NestedLoopJoins  atomic.Int64 // join nodes without equi-pairs
	FamilyPrefixHits atomic.Int64 // node batches served from a SharedCache
	ResultMemoHits   atomic.Int64 // whole results or verdicts served from a SharedCache
}

func (s *ExecStats) addCompiledRun() {
	if s != nil {
		s.CompiledRuns.Add(1)
	}
}

// ExecCounts is a plain snapshot of ExecStats, for reports and JSON.
type ExecCounts struct {
	CompiledRuns int64 `json:"compiled_runs"`
	// InterpretedRuns is always zero: the row interpreter it counted is
	// gone.
	//
	// Deprecated: kept only because the perfbench module sums it, and
	// that module changes only together with the benchmark.
	InterpretedRuns int64 `json:"interpreted_runs"`
	CompiledBatches int64 `json:"compiled_batches"`
	// HashJoins is always zero: every equi-join runs the direct pair
	// loop and counts in SmallJoins.
	//
	// Deprecated: kept only because the perfbench module sums it, and
	// that module changes only together with the benchmark.
	HashJoins        int64 `json:"hash_joins"`
	SmallJoins       int64 `json:"small_joins"`
	NestedLoopJoins  int64 `json:"nested_loop_joins"`
	FamilyPrefixHits int64 `json:"family_prefix_hits"`
	ResultMemoHits   int64 `json:"result_memo_hits"`
}

// Counts snapshots the stats. Safe on nil.
func (s *ExecStats) Counts() ExecCounts {
	if s == nil {
		return ExecCounts{}
	}
	return ExecCounts{
		CompiledRuns:     s.CompiledRuns.Load(),
		CompiledBatches:  s.CompiledBatches.Load(),
		SmallJoins:       s.SmallJoins.Load(),
		NestedLoopJoins:  s.NestedLoopJoins.Load(),
		FamilyPrefixHits: s.FamilyPrefixHits.Load(),
		ResultMemoHits:   s.ResultMemoHits.Load(),
	}
}

// Add folds a snapshot into the live counters, for totals kept across
// evaluations (the service's /statsz). Safe on nil.
func (s *ExecStats) Add(c ExecCounts) {
	if s == nil {
		return
	}
	s.CompiledRuns.Add(c.CompiledRuns)
	s.CompiledBatches.Add(c.CompiledBatches)
	s.SmallJoins.Add(c.SmallJoins)
	s.NestedLoopJoins.Add(c.NestedLoopJoins)
	s.FamilyPrefixHits.Add(c.FamilyPrefixHits)
	s.ResultMemoHits.Add(c.ResultMemoHits)
}

// Add folds another snapshot into this one, every field included.
func (c *ExecCounts) Add(o ExecCounts) {
	c.CompiledRuns += o.CompiledRuns
	c.InterpretedRuns += o.InterpretedRuns
	c.CompiledBatches += o.CompiledBatches
	c.HashJoins += o.HashJoins
	c.SmallJoins += o.SmallJoins
	c.NestedLoopJoins += o.NestedLoopJoins
	c.FamilyPrefixHits += o.FamilyPrefixHits
	c.ResultMemoHits += o.ResultMemoHits
}

// SharedCache memoizes node batches and whole-result verdicts across the
// plans of one mutant family evaluated against one dataset.
//
// Nodes are keyed by (local operation, child batch identities) rather
// than by full subtree signature. Every distinct batch the cache has
// seen carries a small content id, and two batches get the same id
// exactly when they are observably identical (same unified children and
// same index vectors, hash-consing). This buys two kinds of sharing:
//
//   - prefix sharing: a mutant's off-path subtrees compile to the same
//     local ops over the same children as the original's, so every
//     lookup hits — the classic family-prefix reuse;
//   - confluence sharing: when a mutated node happens to produce the
//     very same rows as the original on this dataset (the defining
//     property of a mutant that survives the dataset), its batch
//     unifies with the original's, every ancestor lookup hits, and the
//     whole-result memo serves the original's Result (or a recorded
//     verdict) without projecting or comparing anything.
//
// A cache is valid for a single dataset and must be confined to one
// goroutine at a time; the kill-matrix evaluator partitions its workers
// by dataset, so each cache has exactly one owner, and so has every
// batch it hands out.
type SharedCache struct {
	leaves map[string]*batch // base table scans by relation name
	// subs resolves whole-subtree slots to evaluations. Slots number
	// the distinct subtrees of one compile family densely, so the index
	// is a flat slice of the family's size — the hottest lookup in the
	// executor (one per plan node per run) costs an array load instead
	// of a map probe. fam is the family the index is bound to.
	subs  []*nodeVal
	fam   *family
	nodes index[nodeKey, *nodeVal]
	// ids maps a content hash to the unified batches with that hash,
	// chained through batch.same.
	ids     index[contentKey, *batch]
	results index[resKey, resEntry]
	nextID  int32
	// Everything a run carves out lives exactly as long as the cache's
	// current contents: node values and batches come from block arenas,
	// index vectors and materialized value matrices from slabs. Reset
	// rewinds all four and hands the same storage out again, so a
	// worker that resets one cache per dataset stops allocating once it
	// has seen its largest family and dataset.
	vals    arena[nodeVal]
	batches arena[batch]
	ints    slab[int32]
	cells   slab[sqltypes.Value]
	// Scratch reused by consecutive builds: the index vectors a join or
	// selection collects before keeping a copy in the slab, the
	// right-match bitmap of an outer join, and the row hashes of a
	// streamed verdict.
	scr     [2][]int32
	matched []bool
	hashes  []uint64
}

const slabBlock = 64

// arena is a block allocator whose slots are reused after a reset.
// Blocks sit behind pointers, so a slot's address stays valid as blocks
// are added; a reused slot keeps its old contents, and each caller
// re-initializes what it reads.
type arena[T any] struct {
	blocks []*[slabBlock]T
	n      int // slots handed out since the last reset
}

func (a *arena[T]) next() *T {
	bi := a.n / slabBlock
	if bi == len(a.blocks) {
		a.blocks = append(a.blocks, new([slabBlock]T))
	}
	v := &a.blocks[bi][a.n%slabBlock]
	a.n++
	return v
}

// slab hands out slices carved from chunks that are reused after a
// reset: the same sequence of requests gets the same storage back. The
// first chunk holds 64 elements and each later one twice its
// predecessor, up to 4096; a longer request gets a chunk of its own
// length. A carved slice keeps the chunk's old contents; callers
// overwrite every element.
type slab[T any] struct {
	chunks [][]T
	ci     int // chunk being carved
	off    int // elements carved from chunks[ci]
}

func (s *slab[T]) alloc(n int) []T {
	for ; s.ci < len(s.chunks); s.ci, s.off = s.ci+1, 0 {
		if c := s.chunks[s.ci]; s.off+n <= len(c) {
			s.off += n
			return c[s.off-n : s.off : s.off]
		}
	}
	size := 64
	if k := len(s.chunks); k > 0 {
		size = min(2*len(s.chunks[k-1]), 4096)
	}
	c := make([]T, max(n, size))
	s.chunks = append(s.chunks, c)
	s.off = n
	return c[:n:n]
}

func (s *slab[T]) reset() { s.ci, s.off = 0, 0 }

// nodeKey identifies one node evaluation: the compile-time-interned
// local operation (relation + selections for leaves; join type, pairs
// and predicates for joins) applied to the identified child batches.
// The key is exact — op ids and content ids are canonical, so no
// hash-collision handling is needed.
type nodeKey struct {
	op   int32 // interned local op signature (see intern)
	l, r int32 // child batch content ids (0 for leaves)
}

type nodeVal struct {
	b    *batch
	pval any   // value of the panic that aborted the build, if any
	hits int32 // serves since built; drives the materialization policy
}

// resKey identifies a whole plan execution: the compile-time-interned
// projection/aggregation applied to the identified root batch.
type resKey struct {
	proj int32
	root int32
}

// resEntry is the whole-result memo's record of one execution: the
// Result a Run built, or the verdict a DiffersFrom reached against want.
type resEntry struct {
	res     *Result
	want    *Result
	differs bool
}

// NewSharedCache returns an empty cache, pre-sized for a typical mutant
// family's worth of distinct nodes.
func NewSharedCache() *SharedCache {
	return NewSharedCacheSized(0)
}

// NewSharedCacheSized returns an empty cache pre-sized for roughly n
// distinct node evaluations. Callers that know the family size (the
// kill-matrix evaluator dedups plans before running) pass it here so
// the cache's indexes rarely grow mid-evaluation; n <= 0 selects the
// defaults. The subtree index is sized by the first plan's family.
func NewSharedCacheSized(n int) *SharedCache {
	if n < 128 {
		n = 128
	}
	return &SharedCache{
		leaves:  make(map[string]*batch, 8),
		nodes:   newIndex[nodeKey, *nodeVal](n),
		ids:     newIndex[contentKey, *batch](n),
		results: newIndex[resKey, resEntry](n / 2),
	}
}

// bind points the subtree index at family f. Slots are numbered per
// family, so a plan from another family than the last one run (plans
// compiled lazily, one family each) clears the index first; the level
// keys stay valid, since op ids are process-wide.
func (sc *SharedCache) bind(f *family) {
	if sc.fam == f {
		return
	}
	sc.fam = f
	clear(sc.subs[:cap(sc.subs)])
	if f.slots <= cap(sc.subs) {
		sc.subs = sc.subs[:f.slots]
	} else {
		sc.subs = make([]*nodeVal, f.slots)
	}
}

// Reset empties the cache for reuse with a different dataset. It keeps
// the indexes' storage, the subtree index and its family binding, the
// value and batch blocks and the index-vector and matrix slabs, and
// hands their storage out again; so a worker that resets one cache per
// dataset stops allocating once it has seen its largest family and
// dataset. Reset must only be called between evaluations, never while a
// batch served from the cache is still in use: a reused slot or slab
// chunk is overwritten. Results are never carved from the cache, so a
// Result a run returned stays valid.
func (sc *SharedCache) Reset() {
	clear(sc.leaves)
	clear(sc.subs)
	sc.nodes.reset()
	sc.ids.reset()
	sc.results.reset()
	sc.nextID = 0
	sc.vals.n, sc.batches.n = 0, 0
	sc.ints.reset()
	sc.cells.reset()
}

// newBatch carves a zeroed batch out of the cache's blocks; a nil cache
// (the cache-less build path) heap-allocates.
func (sc *SharedCache) newBatch() *batch {
	if sc == nil {
		return &batch{}
	}
	b := sc.batches.next()
	*b = batch{}
	return b
}

func (sc *SharedCache) newVal() *nodeVal {
	v := sc.vals.next()
	*v = nodeVal{}
	return v
}

// scratch returns the cache's reusable index vector i (0 or 1),
// emptied, for a join or selection to collect into; without a cache, a
// fresh vector with room for n entries. The caller hands the grown
// vector back through keepScratch.
func (sc *SharedCache) scratch(i, n int) []int32 {
	if sc == nil {
		return make([]int32, 0, n)
	}
	return sc.scr[i][:0]
}

// keepScratch stores the grown scratch vector i for the next build.
func (sc *SharedCache) keepScratch(i int, v []int32) {
	if sc != nil {
		sc.scr[i] = v
	}
}

// keepInts returns a copy of v carved from the index slab; without a
// cache, v itself.
func (sc *SharedCache) keepInts(v []int32) []int32 {
	if sc == nil {
		return v
	}
	out := sc.ints.alloc(len(v))
	copy(out, v)
	return out
}

// matchedScratch returns a cleared right-match bitmap of n entries.
func (sc *SharedCache) matchedScratch(n int) []bool {
	if sc == nil {
		return make([]bool, n)
	}
	if cap(sc.matched) < n {
		sc.matched = make([]bool, n)
	}
	m := sc.matched[:n]
	clear(m)
	return m
}

// hashScratch returns an empty row-hash vector with room for n hashes.
func (sc *SharedCache) hashScratch(n int) []uint64 {
	if sc == nil {
		return make([]uint64, 0, n)
	}
	if cap(sc.hashes) < n {
		sc.hashes = make([]uint64, 0, n)
	}
	return sc.hashes[:0]
}

// unify assigns b a content id, returning an existing batch instead if
// the cache has already seen one with identical content. Content
// identity is structural: same kind, same (already unified, therefore
// pointer-comparable) children, same index vectors. Value storage is
// never touched.
func (sc *SharedCache) unify(b *batch) *batch {
	if b.id != 0 {
		// Already unified (e.g. a selection that kept every row returns
		// its input batch unchanged).
		return b
	}
	h := contentKey(b.contentHash())
	head, _ := sc.ids.get(h)
	for b0 := head; b0 != nil; b0 = b0.same {
		if b0.contentEqual(b) {
			return b0
		}
	}
	sc.nextID++
	b.id = sc.nextID
	b.same = head
	sc.ids.put(h, b)
	return b
}

// serve is the shared hit path: re-panic recorded build failures (see
// nodeFor), count the reuse, and flatten demonstrably hot batches.
func (v *nodeVal) serve(env *execEnv) *batch {
	if v.pval != nil {
		panic(v.pval)
	}
	env.prefixHits++
	v.hits++
	if v.hits == 2 {
		// Second reuse: the batch is demonstrably hot, so flatten its
		// virtual indirection once; later consumers read plain vectors
		// instead of walking the batch chain. Batches served once or
		// twice never pay for it.
		v.b.materialize(env.cache)
	}
	return v.b
}

// nodeFor returns the memoized evaluation of node c over the given
// child batches, building and unifying it on first use. A build that
// panics (attribute-resolution failures panic lazily, when a row first
// reaches them) records the panic value and re-panics it for every
// later consumer of the same node: those plans would fail identically
// had they built it themselves.
func (sc *SharedCache) nodeFor(c *cnode, env *execEnv, lb, rb *batch) (*nodeVal, bool) {
	var k nodeKey
	if c.leaf {
		k = nodeKey{op: c.opID}
	} else {
		k = nodeKey{op: c.opID, l: lb.id, r: rb.id}
	}
	if v, ok := sc.nodes.get(k); ok {
		return v, true
	}
	v := sc.newVal()
	sc.nodes.put(k, v)
	defer func() {
		if r := recover(); r != nil {
			v.pval = r
			panic(r)
		}
	}()
	var b *batch
	if c.leaf {
		b = c.buildLeafB(env)
	} else {
		b = c.joinB(env, lb, rb)
	}
	v.b = sc.unify(b)
	return v, false
}

// execEnv carries the per-run execution context.
// Counters accumulate as plain ints and are folded into the shared
// atomic stats once per run (see flush), not once per node.
type execEnv struct {
	ds    *schema.Dataset
	cache *SharedCache // nil: no cross-plan sharing
	stats *ExecStats   // nil: no counting

	batches     int64
	smallJoins  int64
	nestedLoops int64
	prefixHits  int64
	resultHits  int64
}

// flush folds the run's counters into the shared stats block.
func (env *execEnv) flush() {
	s := env.stats
	if s == nil {
		return
	}
	if env.batches > 0 {
		s.CompiledBatches.Add(env.batches)
	}
	if env.smallJoins > 0 {
		s.SmallJoins.Add(env.smallJoins)
	}
	if env.nestedLoops > 0 {
		s.NestedLoopJoins.Add(env.nestedLoops)
	}
	if env.prefixHits > 0 {
		s.FamilyPrefixHits.Add(env.prefixHits)
	}
	if env.resultHits > 0 {
		s.ResultMemoHits.Add(env.resultHits)
	}
}

// runB produces the node's batch, consulting the shared cache when one
// is installed. An already-evaluated subtree resolves in a single
// lookup by its family slot; otherwise children resolve
// bottom-up first, so their content ids are known before this node's
// level key is formed: a plan whose node differs from an
// already-evaluated family member's still reuses every cached child,
// and a mutated node whose output re-converges with the original's
// turns all its ancestors — and the final projected result — into
// cache hits.
func (c *cnode) runB(env *execEnv) *batch {
	sc := env.cache
	if sc == nil {
		return c.buildB(env)
	}
	if v := sc.subs[c.slot]; v != nil {
		return v.serve(env)
	}
	var lb, rb *batch
	if !c.leaf {
		lb = c.left.runB(env)
		rb = c.right.runB(env)
	}
	v, hit := sc.nodeFor(c, env, lb, rb)
	sc.subs[c.slot] = v
	if hit {
		return v.serve(env)
	}
	return v.b
}

// buildB is the cache-less path: build the whole subtree directly.
func (c *cnode) buildB(env *execEnv) *batch {
	if c.leaf {
		return c.buildLeafB(env)
	}
	lb := c.left.buildB(env)
	rb := c.right.buildB(env)
	return c.joinB(env, lb, rb)
}

// leafBaseB returns the unfiltered scan batch of the leaf's relation.
// Under a cache there is exactly one such batch per relation, so two
// leaves over the same table — even with different selections — share
// it, and selections that keep every row unify to the same content id.
func (c *cnode) leafBaseB(env *execEnv) *batch {
	if sc := env.cache; sc != nil {
		if b, ok := sc.leaves[c.relName]; ok {
			return b
		}
		ct := env.ds.ColumnarTable(c.relName, c.width)
		b := sc.newBatch()
		b.n, b.kind, b.cols = ct.NRows, bLeaf, ct.Cols
		sc.nextID++
		b.id = sc.nextID
		env.batches++
		sc.leaves[c.relName] = b
		return b
	}
	ct := env.ds.ColumnarTable(c.relName, c.width)
	env.batches++
	return &batch{n: ct.NRows, kind: bLeaf, cols: ct.Cols}
}

// buildLeafB scans the dataset's memoized columnar view and applies the
// leaf selections. The view's column storage is shared zero-copy; a
// selective leaf adds only an index vector over it.
func (c *cnode) buildLeafB(env *execEnv) *batch {
	src := c.leafBaseB(env)
	if len(c.sels) == 0 {
		return src
	}
	sc := env.cache
	idx := sc.scratch(0, src.n)
	for i := 0; i < src.n; i++ {
		keep := true
		for si := range c.sels {
			if c.sels[si].evalB(src, i) != sqltypes.True {
				keep = false
				break
			}
		}
		if keep {
			idx = append(idx, int32(i))
		}
	}
	sc.keepScratch(0, idx)
	if len(idx) == src.n {
		return src
	}
	env.batches++
	b := sc.newBatch()
	b.n = len(idx)
	b.kind = bFilter
	b.src = src
	b.idx = sc.keepInts(idx)
	return b
}

// joinB joins two child batches into a virtual pair batch: each left
// row in order with its matching right rows in right-row order (or its
// NULL padding), then the unmatched right rows of a right or full outer
// join. A pair matches when every equi-pair compares True and every
// non-equi predicate evaluates True, so a NULL join key matches nothing,
// as three-valued equality requires.
func (c *cnode) joinB(env *execEnv, lb, rb *batch) *batch {
	lw := c.left.width
	ok := func(li, ri int32) bool {
		for _, pr := range c.pairs {
			if sqltypes.TriCompare(sqltypes.OpEQ, lb.value(pr.l, int(li)), rb.value(pr.r, int(ri))) != sqltypes.True {
				return false
			}
		}
		for i := range c.preds {
			if c.preds[i].evalPair(lb, rb, lw, li, ri) != sqltypes.True {
				return false
			}
		}
		return true
	}
	leftPad := c.jt == sqlparser.LeftOuterJoin || c.jt == sqlparser.FullOuterJoin
	rightPad := c.jt == sqlparser.RightOuterJoin || c.jt == sqlparser.FullOuterJoin

	// The pairs collect in the cache's scratch vectors, and the finished
	// vectors are copied into its index slab: a warm cache builds a join
	// without allocating, however many pairs match.
	sc := env.cache
	lidx, ridx := sc.scratch(0, lb.n), sc.scratch(1, lb.n)
	var rightMatched []bool
	if rightPad {
		rightMatched = sc.matchedScratch(rb.n)
	}
	if len(c.pairs) > 0 {
		env.smallJoins++
	} else {
		env.nestedLoops++
	}
	for li := 0; li < lb.n; li++ {
		found := false
		for ri := 0; ri < rb.n; ri++ {
			if ok(int32(li), int32(ri)) {
				found = true
				if rightMatched != nil {
					rightMatched[ri] = true
				}
				lidx = append(lidx, int32(li))
				ridx = append(ridx, int32(ri))
			}
		}
		if !found && leftPad {
			lidx = append(lidx, int32(li))
			ridx = append(ridx, -1)
		}
	}
	if rightPad {
		for ri := 0; ri < rb.n; ri++ {
			if !rightMatched[ri] {
				lidx = append(lidx, -1)
				ridx = append(ridx, int32(ri))
			}
		}
	}
	sc.keepScratch(0, lidx)
	sc.keepScratch(1, ridx)
	env.batches++
	b := sc.newBatch()
	b.n = len(lidx)
	b.kind = bJoin
	b.left = lb
	b.right = rb
	b.lw = lw
	b.lidx = sc.keepInts(lidx)
	b.ridx = sc.keepInts(ridx)
	return b
}
