package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/sqlparser"
)

// gradingWarmup is how many of the lightest grading items warm up the
// process before the timed window.
const gradingWarmup = 12

// equivalenceSample is how many surviving mutants the untimed pass after
// the grading window re-checks with mutation.EquivalenceChecker.
const equivalenceSample = 16

// libraryRun is the state shared by the two library workloads: the
// closed loop, per-item goldens and the per-layer accumulators.
type libraryRun struct {
	b     *bench
	rid   int32
	items []*cell

	digest map[string]uint64 // output fingerprint at first sighting
	work   map[string]work
	exec   map[string]engine.ExecCounts

	// per-layer accumulators over traced requests
	n                             int
	stats                         core.Stats
	datasets, skipped, incomplete int
	mutants, cells, killed        int
	execSum                       engine.ExecCounts
	survivors                     []survivor
	poolMutants                   [2]int // references, variants
}

type survivor struct {
	item string
	q    *qtree.Query
	m    *mutation.Mutant
}

func newLibraryRun(b *bench) *libraryRun {
	return &libraryRun{b: b, digest: map[string]uint64{}, work: map[string]work{}, exec: map[string]engine.ExecCounts{}}
}

// parsed is a request's inputs after the sqlparser and qtree layers.
type parsed struct {
	sch   *schema.Schema
	q     *qtree.Query
	input *schema.Dataset
}

func (r *libraryRun) parse(c *cell, root int32) (parsed, error) {
	tr := r.b.tr
	var p parsed
	var err error
	sp := tr.begin(cParseSchema, root, r.rid)
	p.sch, err = sqlparser.ParseSchema(c.ddl)
	tr.end(sp)
	if err != nil {
		return p, fmt.Errorf("%s: ddl: %w", c.name, err)
	}
	sp = tr.begin(cParseQuery, root, r.rid)
	stmt, err := sqlparser.ParseQuery(c.sql)
	tr.end(sp)
	if err != nil {
		return p, fmt.Errorf("%s: query: %w", c.name, err)
	}
	if c.inserts != "" {
		sp = tr.begin(cParseInserts, root, r.rid)
		p.input, err = sqlparser.ParseInserts(p.sch, c.inserts)
		tr.end(sp)
		if err != nil {
			return p, fmt.Errorf("%s: input database: %w", c.name, err)
		}
	}
	sp = tr.begin(cBuild, root, r.rid)
	p.q, err = qtree.Build(p.sch, stmt)
	tr.end(sp)
	if err != nil {
		return p, fmt.Errorf("%s: query: %w", c.name, err)
	}
	p.q.SQL = c.sql
	return p, nil
}

func (r *libraryRun) generate(p parsed, root int32) (*core.Suite, error) {
	opts := core.DefaultOptions()
	if p.input != nil {
		opts.InputDB = p.input
		opts.ForceInputTuples = true
	}
	sp := r.b.tr.begin(cGenerate, root, r.rid)
	suite, err := core.NewGenerator(p.q, opts).Generate()
	r.b.tr.end(sp)
	if err == nil {
		r.b.tr.derive(cSolve, sp, suite.Stats.SolveTime)
	}
	return suite, err
}

// closedLoop runs whole passes over the items, one request at a time, in
// a fresh seeded order per pass, until the window has lasted the
// configured seconds. Whole passes keep the request mix identical
// between runs. A traced run alternates traced and untraced passes, so
// the tracing overhead is measured on the same mix. serve performs one
// request and returns its output checker, which runs outside the
// request's latency.
func (r *libraryRun) closedLoop(serve func(c *cell, root int32) (verify func() bool, err error)) []sample {
	b := r.b
	rng := rand.New(rand.NewSource(b.cfg.seed))
	var samples []sample
	marks := []usage{snapshot()}
	from := marks[0]
	prevEnd := from.at
	mem := startMemSampler()
	for pass := 0; ; pass++ {
		elapsed := time.Since(from.at).Seconds()
		if pass > 0 && elapsed >= b.cfg.seconds && (!b.cfg.trace || pass >= 2) {
			break
		}
		// Blocks hold whole passes, so each block has the same mix.
		if time.Since(marks[len(marks)-1].at) >= blockLength {
			marks = append(marks, snapshot())
		}
		b.tr.on = b.cfg.trace && pass%2 == 0
		for _, i := range rng.Perm(len(r.items)) {
			c := r.items[i]
			r.rid++
			t0 := time.Now()
			root := b.tr.begin(cRequest, -1, r.rid)
			verify, err := serve(c, root)
			b.tr.end(root)
			t1 := time.Now()
			ok := err == nil
			if err != nil {
				b.fail("%v", err)
			} else {
				ok = verify()
			}
			b.attempted++
			if !ok {
				b.failed++
			}
			samples = append(samples, sample{
				ms:     float64(t1.Sub(t0)) / 1e6,
				lateMS: float64(t0.Sub(prevEnd)) / 1e6,
				ok:     ok,
				traced: b.tr.on,
				item:   i,
				block:  len(marks) - 1,
			})
			prevEnd = t1 // the next request is due now; checking delays it
		}
	}
	b.tr.on = false
	marks = append(marks, snapshot())
	mem.finish()
	if b.cfg.trace {
		b.runtimeLayer(samples, from, marks[len(marks)-1])
	} else {
		b.endToEnd(samples, marks, mem)
	}
	return samples
}

// verifyCommon checks what every library request must satisfy: a
// complete suite with the pinned dataset count whose datasets are legal
// instances of the schema, and solver work identical to the item's first
// sighting.
func (r *libraryRun) verifyCommon(c *cell, p parsed, suite *core.Suite) bool {
	b := r.b
	ok := b.check(len(suite.Incomplete) == 0, "%s: %d kill goals incomplete", c.name, len(suite.Incomplete))
	if c.datasets > 0 {
		ok = b.check(len(suite.Datasets) == c.datasets, "%s: %d datasets, want %d", c.name, len(suite.Datasets), c.datasets) && ok
	}
	for _, ds := range suite.All() {
		if err := p.sch.CheckDataset(ds); err != nil {
			ok = b.check(false, "%s: dataset %q: %v", c.name, ds.Purpose, err) && ok
		} else {
			b.checks++
		}
	}
	w := work{suite.Stats.SolverNodes, suite.Stats.ComponentCount, suite.Stats.ComponentCacheHits, suite.Stats.BasePropagationNodes}
	if prev, seen := r.work[c.name]; !seen {
		r.work[c.name] = w
	} else if prev != w {
		ok = b.semantic("%s: solver work %+v, first sighting %+v", c.name, w, prev) && ok
	} else {
		b.checks++
	}
	return ok
}

// sameDigest checks an output fingerprint against the item's first one.
func (r *libraryRun) sameDigest(c *cell, d uint64) bool {
	if prev, seen := r.digest[c.name]; seen {
		return r.b.check(prev == d, "%s: output differs from its first sighting", c.name)
	}
	r.digest[c.name] = d
	return true
}

// checkTablePass checks the summed solver work of the 20 Table I/II
// cells against the pinned pass totals.
func (r *libraryRun) checkTablePass() {
	var sum work
	n := 0
	for _, c := range r.items {
		if w, ok := r.work[c.name]; ok && c.table && !c.variant {
			sum.nodes += w.nodes
			sum.components += w.components
			sum.cacheHits += w.cacheHits
			sum.baseNodes += w.baseNodes
			n++
		}
	}
	if n != len(pinnedCells) {
		r.b.fail("only %d of %d Table I/II cells ran", n, len(pinnedCells))
		return
	}
	if sum != tablePassWork {
		r.b.semantic("Table I/II pass solver work %+v, pinned %+v", sum, tablePassWork)
		return
	}
	r.b.checks++
	r.b.note("work counters per Table I/II pass: %d nodes, %d components, %d component-cache hits, %d base-propagation nodes (pinned)",
		sum.nodes, sum.components, sum.cacheHits, sum.baseNodes)
}

// accumulate adds a traced request's generation statistics.
func (r *libraryRun) accumulate(suite *core.Suite) {
	if !r.b.tr.on {
		return
	}
	r.n++
	st := suite.Stats
	r.stats.TotalTime += st.TotalTime
	r.stats.SolveTime += st.SolveTime
	r.stats.SolverNodes += st.SolverNodes
	r.stats.ComponentCount += st.ComponentCount
	r.stats.ComponentCacheHits += st.ComponentCacheHits
	r.stats.BasePropagationNodes += st.BasePropagationNodes
	r.stats.SolverProblemSize += st.SolverProblemSize
	r.datasets += len(suite.Datasets)
	r.skipped += len(suite.Skipped)
	r.incomplete += len(suite.Incomplete)
}

// coreLayer sets the core and solver per-layer metrics (per request).
func (r *libraryRun) coreLayer() {
	b := r.b
	n := float64(max(r.n, 1))
	b.set("sqlparser.parse_ms", "ms", callMS(b.tr, cParseSchema, cParseQuery, cParseInserts)/n)
	b.set("qtree.build_ms", "ms", callMS(b.tr, cBuild)/n)
	b.set("core.generate_ms", "ms", callMS(b.tr, cGenerate)/n)
	b.set("core.nonsolve_ms", "ms", float64(r.stats.TotalTime-r.stats.SolveTime)/1e6/n)
	b.set("core.goals", "count", float64(r.datasets+r.skipped+r.incomplete)/n)
	b.set("core.datasets", "count", float64(r.datasets)/n)
	b.set("core.skipped", "count", float64(r.skipped)/n)
	b.set("core.incomplete", "count", float64(r.incomplete)/n)
	b.set("solver.solve_ms", "ms", float64(r.stats.SolveTime)/1e6/n)
	b.set("solver.nodes", "count", float64(r.stats.SolverNodes)/n)
	b.set("solver.components", "count", float64(r.stats.ComponentCount)/n)
	b.set("solver.component_cache_hit_ratio", "fraction", float64(r.stats.ComponentCacheHits)/float64(max(r.stats.ComponentCount, 1)))
	b.set("solver.base_propagation_nodes", "count", float64(r.stats.BasePropagationNodes)/n)
	b.set("solver.problem_size", "count", float64(r.stats.SolverProblemSize)/n)
	b.set("schema.render_ms", "ms", callMS(b.tr, cSQLInserts)/n)
}

// callMS sums the durations of the given calls' spans in milliseconds.
func callMS(t *tracer, cs ...call) float64 {
	var want [len(calls)]bool
	for _, c := range cs {
		want[c] = true
	}
	var d int64
	for _, s := range t.spans {
		if want[s.call] {
			d += s.end - s.start
		}
	}
	return float64(d) / 1e6
}

// runPaperGenerate is the paper_generate workload: the 20 Table I/II
// cells and the two §VI-C.3 input-database cells, each request parsing
// DDL and SQL text, generating the suite with library defaults and
// rendering every dataset as INSERT statements.
func runPaperGenerate(b *bench) error {
	r := newLibraryRun(b)
	serve := func(c *cell, root int32) (func() bool, error) {
		p, err := r.parse(c, root)
		if err != nil {
			return nil, err
		}
		suite, err := r.generate(p, root)
		if err != nil {
			return nil, fmt.Errorf("%s: generate: %w", c.name, err)
		}
		sp := b.tr.begin(cSQLInserts, root, r.rid)
		h := fnv.New64a()
		for _, ds := range suite.All() {
			h.Write([]byte(ds.SQLInserts(p.sch)))
		}
		b.tr.end(sp)
		r.accumulate(suite)
		return func() bool {
			ok := r.verifyCommon(c, p, suite)
			return r.sameDigest(c, h.Sum64()) && ok
		}, nil
	}
	_, err := b.setupRepeated(func() (func(), error) {
		cells, err := paperCells()
		if err != nil {
			return nil, err
		}
		r.items = cells
		// Warm-up: one untimed pass over every cell.
		for _, c := range cells {
			verify, err := serve(c, -1)
			if err != nil {
				return nil, err
			}
			if !verify() {
				b.failed++
			}
		}
		return func() {}, nil
	})
	if err != nil {
		return err
	}
	r.checkTablePass()
	b.note("corpus: %d cells (20 Table I/II + %d input-DB), closed loop, 1 client, library default options", len(r.items), len(inputDBSizes))
	samples := r.closedLoop(serve)
	if b.cfg.trace {
		r.coreLayer()
		b.traceLayer(samples, true)
		b.zeroLayers()
	}
	return nil
}

// runGradingAnalyze is the grading_analyze workload: reference queries
// and student variants, each request parsing the text, generating the
// suite, building the mutant space and evaluating the kill matrix with
// the library's default evaluation options.
func runGradingAnalyze(b *bench) error {
	r := newLibraryRun(b)
	serve := func(c *cell, root int32) (func() bool, error) {
		p, err := r.parse(c, root)
		if err != nil {
			return nil, err
		}
		suite, err := r.generate(p, root)
		if err != nil {
			return nil, fmt.Errorf("%s: generate: %w", c.name, err)
		}
		sp := b.tr.begin(cSpace, root, r.rid)
		space, err := mutation.Space(p.q, mutation.DefaultOptions())
		b.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: mutation space: %w", c.name, err)
		}
		sp = b.tr.begin(cEvaluate, root, r.rid)
		rep, err := mutation.EvaluateOpts(p.q, space, suite.All(), mutation.EvalOptions{})
		b.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: kill matrix: %w", c.name, err)
		}
		r.accumulate(suite)
		if b.tr.on {
			r.mutants += len(space)
			r.cells += len(space) * len(rep.Datasets)
			r.killed += rep.KilledCount()
			r.execSum = addExec(r.execSum, rep.Exec)
		}
		return func() bool { return r.verifyGrading(c, p, suite, rep) }, nil
	}
	var unparsed int
	_, err := b.setupRepeated(func() (func(), error) {
		pool, skipped, err := gradingPool(corpusSeed)
		if err != nil {
			return nil, err
		}
		r.items, unparsed = pool, skipped
		// Warm-up: the lightest items, untimed.
		for _, c := range lightest(pool, gradingWarmup) {
			verify, err := serve(c, -1)
			if err != nil {
				return nil, err
			}
			if !verify() {
				b.failed++
			}
		}
		return func() {}, nil
	})
	if err != nil {
		return err
	}
	variants := 0
	for _, c := range r.items {
		if c.variant {
			variants++
		}
	}
	b.note("corpus: %d references + %d variants (%d renderings skipped: no re-parse), closed loop, 1 client, xdata.Analyze defaults",
		len(r.items)-variants, variants, unparsed)
	samples := r.closedLoop(serve)
	b.note("mutant spaces: %d over the references, %d over the variants", r.poolMutants[0], r.poolMutants[1])
	r.checkTablePass()
	r.checkEquivalence()
	if b.cfg.trace {
		r.coreLayer()
		n := float64(max(r.n, 1))
		b.set("mutation.space_ms", "ms", callMS(b.tr, cSpace)/n)
		b.set("mutation.evaluate_ms", "ms", callMS(b.tr, cEvaluate)/n)
		b.set("mutation.mutants", "count", float64(r.mutants)/n)
		b.set("mutation.matrix_cells", "count", float64(r.cells)/n)
		b.set("mutation.killed_ratio", "fraction", float64(r.killed)/float64(max(r.mutants, 1)))
		e := r.execSum
		b.set("engine.compiled_runs", "count", float64(e.CompiledRuns)/n)
		b.set("engine.batches", "count", float64(e.CompiledBatches)/n)
		b.set("engine.prefix_hit_ratio", "fraction", float64(e.FamilyPrefixHits)/float64(max(e.FamilyPrefixHits+e.CompiledBatches, 1)))
		b.set("engine.result_memo_hits", "count", float64(e.ResultMemoHits)/n)
		b.set("engine.hash_joins", "count", float64(e.HashJoins)/n)
		b.set("engine.small_joins", "count", float64(e.SmallJoins)/n)
		b.set("engine.nested_loop_joins", "count", float64(e.NestedLoopJoins)/n)
		b.traceLayer(samples, true)
		b.zeroLayers()
	}
	return nil
}

// lightest returns the first n items whose pinned mutant space has at
// most 30 mutants (variants pin none), skipping the heavy references.
func lightest(pool []*cell, n int) []*cell {
	var out []*cell
	for _, c := range pool {
		if len(out) == n {
			break
		}
		if c.mutants <= 30 {
			out = append(out, c)
		}
	}
	return out
}

func (r *libraryRun) verifyGrading(c *cell, p parsed, suite *core.Suite, rep *mutation.Report) bool {
	b := r.b
	ok := r.verifyCommon(c, p, suite)
	killed := rep.KilledCount()
	if c.mutants > 0 {
		ok = b.check(killed == c.killed && len(rep.Mutants) == c.mutants,
			"%s: killed %d/%d, want %d/%d", c.name, killed, len(rep.Mutants), c.killed, c.mutants) && ok
	}
	h := fnv.New64a()
	var buf [1]byte
	for _, row := range rep.Killed {
		for _, k := range row {
			buf[0] = 0
			if k {
				buf[0] = 1
			}
			h.Write(buf[:])
		}
		buf[0] = 2
		h.Write(buf[:])
	}
	ok = r.sameDigest(c, h.Sum64()) && ok
	if prev, seen := r.exec[c.name]; !seen {
		r.exec[c.name] = rep.Exec
		if c.variant {
			r.poolMutants[1] += len(rep.Mutants)
		} else {
			r.poolMutants[0] += len(rep.Mutants)
		}
		if surv := rep.Survivors(); len(surv) > 0 {
			r.survivors = append(r.survivors, survivor{item: c.name, q: p.q, m: rep.Mutants[surv[len(surv)/2]]})
		}
	} else if prev != rep.Exec {
		ok = b.semantic("%s: engine work %+v, first sighting %+v", c.name, rep.Exec, prev) && ok
	} else {
		b.checks++
	}
	return ok
}

// checkEquivalence is the untimed pass after the window: a seeded sample
// of surviving mutants must be equivalent to their query (the paper's
// completeness guarantee), per randomized testing.
func (r *libraryRun) checkEquivalence() {
	rng := rand.New(rand.NewSource(r.b.cfg.seed))
	chk := mutation.NewEquivalenceChecker(r.b.cfg.seed)
	n := 0
	for _, i := range rng.Perm(len(r.survivors)) {
		if n == equivalenceSample {
			break
		}
		s := r.survivors[i]
		equiv, _, err := chk.Check(s.q, s.m)
		if err != nil {
			r.b.fail("%s: equivalence check: %v", s.item, err)
			r.b.failed++
			continue
		}
		if !r.b.check(equiv, "%s: surviving mutant %q is not equivalent", s.item, s.m.Desc) {
			r.b.failed++
		}
		n++
	}
	r.b.note("equivalence pass (untimed): %d sampled survivors checked", n)
}

func addExec(a, b engine.ExecCounts) engine.ExecCounts {
	a.CompiledRuns += b.CompiledRuns
	a.InterpretedRuns += b.InterpretedRuns
	a.CompiledBatches += b.CompiledBatches
	a.HashJoins += b.HashJoins
	a.SmallJoins += b.SmallJoins
	a.NestedLoopJoins += b.NestedLoopJoins
	a.FamilyPrefixHits += b.FamilyPrefixHits
	a.ResultMemoHits += b.ResultMemoHits
	return a
}
