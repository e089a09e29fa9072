package randql

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/core"
	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/testutil"
	"repro/internal/university"
)

// cellWork is the deterministic generation work of one cell.
type cellWork struct {
	nodes, components, cacheHits, baseNodes int64
	datasets                                int
}

// generationCellWork pins each paper generation cell's work counters and
// the sha256 prefix of its digest (genDigestSuite). The 20 Table I/II
// rows sum to 841 nodes, 1082 components, 59 component-cache hits and
// 149 base-propagation nodes. The values were captured before the
// per-Generate state, map-free extraction, lazy purposes, incremental
// value ordering and allocation-free rendering existed.
var generationCellWork = []struct {
	name   string
	work   cellWork
	digest string
}{
	{"Q1/fk0", cellWork{6, 18, 0, 0, 2}, "e3a8b75fcf8c1895"},
	{"Q1/fk1", cellWork{11, 9, 0, 3, 1}, "a0ce23aa9cee8682"},
	{"Q2/fk0", cellWork{6, 45, 2, 0, 4}, "b7407de181d89f1d"},
	{"Q2/fk1", cellWork{26, 27, 1, 3, 3}, "4622037c0c56c598"},
	{"Q2/fk2", cellWork{20, 15, 3, 6, 2}, "3388312b9be9fc28"},
	{"Q3/fk0", cellWork{12, 77, 2, 0, 6}, "2717093d49915c7d"},
	{"Q3/fk1", cellWork{32, 51, 3, 3, 5}, "e4d53b60bae37975"},
	{"Q3/fk3", cellWork{74, 20, 2, 12, 3}, "af82f6ca7bc7b992"},
	{"Q4/fk0", cellWork{12, 112, 3, 0, 7}, "34e01a405f85b23f"},
	{"Q4/fk4", cellWork{104, 38, 3, 17, 4}, "0df27674ef78b176"},
	{"Q5/fk0", cellWork{12, 160, 5, 0, 9}, "b490aa65bce6a125"},
	{"Q5/fk4", cellWork{110, 64, 7, 17, 6}, "799280eee202705c"},
	{"Q6/fk0", cellWork{12, 216, 7, 0, 11}, "2e34af0877b89a51"},
	{"Q6/fk6", cellWork{188, 48, 12, 28, 6}, "65a4ebd6c6a0864b"},
	{"Q7/fk0", cellWork{0, 15, 0, 0, 3}, "062ca0984d202a0e"},
	{"Q8/fk0", cellWork{10, 5, 0, 3, 1}, "827d05e4ef6ed3f4"},
	{"Q9/fk1", cellWork{39, 10, 0, 24, 2}, "5be96acdc1dff500"},
	{"Q10/fk1", cellWork{52, 45, 1, 3, 6}, "368e60747c8f4530"},
	{"Q11/fk1", cellWork{52, 62, 4, 3, 9}, "2496dff943cbdb17"},
	{"Q12/fk1", cellWork{63, 45, 4, 27, 7}, "df0de672bfd5cae4"},
	{"Q4/fk0/input5", cellWork{23, 8, 0, 10, 7}, "1b5425b6e299a2ad"},
	{"Q4/fk0/input9", cellWork{23, 8, 0, 10, 7}, "ca192496e5c6ff8b"},
}

// generationRandqlDigest pins the digest of randql default-grammar seeds
// 30001–30200 generated under genDigestNodeLimit at Parallelism 1.
const generationRandqlDigest = "220377c57010c7b269f2131ca6d242d6170926561eab269256d0a23476450808"

// genDigestNodeLimit is the randql window's per-goal node budget. A
// node budget, unlike a timeout, keeps every counter deterministic; at
// Parallelism 1 no other goal can pay a shared component's nodes, so
// which goals exhaust the budget is deterministic too.
const genDigestNodeLimit = 2000

// generateCellText runs one generation request from its text, as a
// paper_generate request does: parse the DDL, query and input database,
// generate with library defaults at the given parallelism, and return
// the suite with the parsed schema.
func generateCellText(c university.Cell, par int) (*core.Suite, *schema.Schema, error) {
	sch, err := sqlparser.ParseSchema(c.DDL)
	if err != nil {
		return nil, nil, err
	}
	q, err := qtree.BuildSQL(sch, c.SQL)
	if err != nil {
		return nil, nil, err
	}
	opts := core.DefaultOptions()
	opts.Parallelism = par
	if c.Inserts != "" {
		in, err := sqlparser.ParseInserts(sch, c.Inserts)
		if err != nil {
			return nil, nil, err
		}
		opts.InputDB = in
		opts.ForceInputTuples = true
	}
	suite, err := core.NewGenerator(q, opts).Generate()
	return suite, sch, err
}

// genDigestSuite writes one generation into h: the error text, every
// dataset's INSERT text with its purpose line, every skip, every
// Incomplete entry without its wall time, and every integer Stats
// counter.
func genDigestSuite(h hash.Hash, name string, sch *schema.Schema, suite *core.Suite, err error) {
	fmt.Fprintf(h, "%s\n", name)
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
	}
	if suite == nil {
		return
	}
	for _, ds := range suite.All() {
		h.Write([]byte(ds.SQLInserts(sch)))
	}
	for _, s := range suite.Skipped {
		fmt.Fprintf(h, "skip %s\x00%s\n", s.Purpose, s.Reason)
	}
	for _, f := range suite.Incomplete {
		fmt.Fprintf(h, "incomplete %s\x00%s\x00%d\x00%d\x00%v\n", f.Purpose, f.Reason, f.Attempts, f.Nodes, f.Err)
	}
	st := suite.Stats
	fmt.Fprintf(h, "stats %d %d %d %d %d %d %d %d %d %d %d %d\n",
		st.SolverCalls, st.SatCount, st.UnsatCount, st.SolverNodes, st.SolverRestarts, st.SolverProblemSize,
		st.LimitCount, st.RetryCount, st.PanicCount, st.ComponentCount, st.ComponentCacheHits, st.BasePropagationNodes)
}

// TestGenerationDigest pins the generation layer end to end: the suite
// bytes, skips, incomplete goals and work counters of the 22 paper
// generation cells at Parallelism 1 and 2, and of randql default-grammar
// seeds 30001–30200 under a node-only goal budget. A change to goal
// construction, solving, extraction or rendering that alters any output
// byte or any counter fails here, naming the cell and the counter.
func TestGenerationDigest(t *testing.T) {
	cells := university.GenerationCells()
	if len(cells) != len(generationCellWork) {
		t.Fatalf("%d generation cells, %d pinned rows", len(cells), len(generationCellWork))
	}
	var table cellWork
	for ci, c := range cells {
		want := generationCellWork[ci]
		if want.name != c.Name {
			t.Fatalf("cell %d is %s, pinned row is %s", ci, c.Name, want.name)
		}
		for _, par := range []int{1, 2} {
			suite, sch, err := generateCellText(c, par)
			if err != nil {
				t.Fatalf("%s, Parallelism %d: %v", c.Name, par, err)
			}
			h := sha256.New()
			genDigestSuite(h, c.Name, sch, suite, nil)
			st := suite.Stats
			got := cellWork{st.SolverNodes, st.ComponentCount, st.ComponentCacheHits, st.BasePropagationNodes, len(suite.Datasets)}
			digest := hex.EncodeToString(h.Sum(nil))[:16]
			t.Logf("%s, Parallelism %d: %+v digest %s", c.Name, par, got, digest)
			for _, f := range []struct {
				name      string
				got, want int64
			}{
				{"nodes", got.nodes, want.work.nodes},
				{"components", got.components, want.work.components},
				{"component-cache hits", got.cacheHits, want.work.cacheHits},
				{"base-propagation nodes", got.baseNodes, want.work.baseNodes},
				{"datasets", int64(got.datasets), int64(want.work.datasets)},
			} {
				if f.got != f.want {
					t.Errorf("%s, Parallelism %d: %s %d, want %d", c.Name, par, f.name, f.got, f.want)
				}
			}
			if digest != want.digest {
				t.Errorf("%s, Parallelism %d: digest %s, want %s", c.Name, par, digest, want.digest)
			}
		}
		if c.Inserts == "" {
			w := want.work
			table.nodes += w.nodes
			table.components += w.components
			table.cacheHits += w.cacheHits
			table.baseNodes += w.baseNodes
		}
	}
	if table.nodes != 841 || table.components != 1082 || table.cacheHits != 59 || table.baseNodes != 149 {
		t.Errorf("pinned Table I/II rows sum to %d/%d/%d/%d, want 841/1082/59/149",
			table.nodes, table.components, table.cacheHits, table.baseNodes)
	}

	if testutil.RaceEnabled {
		t.Log("randql window skipped under -race; a non-race CI step runs it")
		return
	}
	h := sha256.New()
	for seed := int64(30001); seed <= 30200; seed++ {
		c, err := NewCase(seed, DefaultConfig())
		if err != nil {
			t.Fatalf("NewCase(%d): %v", seed, err)
		}
		opts := core.DefaultOptions()
		opts.Parallelism = 1
		opts.GoalNodeLimit = genDigestNodeLimit
		suite, err := core.NewGenerator(c.Query, opts).Generate()
		genDigestSuite(h, fmt.Sprintf("seed %d", seed), c.Schema, suite, err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generationRandqlDigest {
		t.Errorf("randql seeds 30001-30200: digest %s, want %s", got, generationRandqlDigest)
	}
}
