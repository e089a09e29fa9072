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
// 30001–30200 generated under genDigestNodeLimit.
const generationRandqlDigest = "220377c57010c7b269f2131ca6d242d6170926561eab269256d0a23476450808"

// genDigestNodeLimit is the randql window's per-goal node budget. A
// node budget, unlike a timeout, keeps every counter deterministic, and
// so is which goals exhaust it: goals solve in enumeration order, so the
// goal that pays a shared component's nodes is always the same one.
const genDigestNodeLimit = 2000

// generateCellText runs one generation request from its text, as a
// paper_generate request does: parse the DDL, query and input database,
// generate with library defaults (in quantified mode when unfold is
// false), and return the suite with the parsed schema.
func generateCellText(c university.Cell, unfold bool) (*core.Suite, *schema.Schema, error) {
	sch, err := sqlparser.ParseSchema(c.DDL)
	if err != nil {
		return nil, nil, err
	}
	q, err := qtree.BuildSQL(sch, c.SQL)
	if err != nil {
		return nil, nil, err
	}
	opts := core.DefaultOptions()
	opts.Unfold = unfold
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
// generation cells, and of randql default-grammar seeds 30001–30200
// under a node-only goal budget. A change to goal construction,
// solving, extraction or rendering that alters any output byte or any
// counter fails here, naming the cell and the counter.
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
		suite, sch, err := generateCellText(c, true)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		h := sha256.New()
		genDigestSuite(h, c.Name, sch, suite, nil)
		st := suite.Stats
		got := cellWork{st.SolverNodes, st.ComponentCount, st.ComponentCacheHits, st.BasePropagationNodes, len(suite.Datasets)}
		digest := hex.EncodeToString(h.Sum(nil))[:16]
		t.Logf("%s: %+v digest %s", c.Name, got, digest)
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
				t.Errorf("%s: %s %d, want %d", c.Name, f.name, f.got, f.want)
			}
		}
		if digest != want.digest {
			t.Errorf("%s: digest %s, want %s", c.Name, digest, want.digest)
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
		opts.GoalNodeLimit = genDigestNodeLimit
		suite, err := core.NewGenerator(c.Query, opts).Generate()
		genDigestSuite(h, fmt.Sprintf("seed %d", seed), c.Schema, suite, err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generationRandqlDigest {
		t.Errorf("randql seeds 30001-30200: digest %s, want %s", got, generationRandqlDigest)
	}
}

// quantifiedCellWork pins each Table I/II cell in quantified mode
// (Options.Unfold off, the §VI-B "w/o unfolding" column): search nodes,
// lazy-instantiation restarts, datasets and the sha256 prefix of the
// cell's digest (genDigestSuite). The rows sum to 3,843 nodes and 81
// restarts (Table I 3,216 and 69, Table II 627 and 12). Quantified mode
// solves its ground fragment with the list kernel, so these rows hold
// that kernel's decisions to the models it found when they were
// captured.
var quantifiedCellWork = []struct {
	name            string
	nodes, restarts int64
	datasets        int
	digest          string
}{
	{"Q1/fk0", 39, 2, 2, "a2da9091697e7c36"},
	{"Q1/fk1", 31, 1, 1, "21be896c6a3a24e9"},
	{"Q2/fk0", 98, 4, 4, "490f9a1dd4f13d95"},
	{"Q2/fk1", 100, 3, 3, "d9b2ee177158d09c"},
	{"Q2/fk2", 86, 2, 2, "adbc555a3ac78b7c"},
	{"Q3/fk0", 168, 6, 6, "5b237e0a7080be21"},
	{"Q3/fk1", 182, 5, 5, "9791d34215bc66b7"},
	{"Q3/fk3", 174, 3, 3, "6fab424df9fc9127"},
	{"Q4/fk0", 239, 7, 7, "c21c64b2c8a5685c"},
	{"Q4/fk4", 279, 4, 4, "77bbea5608d726dd"},
	{"Q5/fk0", 341, 9, 9, "3ec672d98bc4200a"},
	{"Q5/fk4", 437, 6, 6, "31c6f90726ddc7a1"},
	{"Q6/fk0", 459, 11, 11, "ec98eae5f7564898"},
	{"Q6/fk6", 583, 6, 6, "8765b96e2748c8c9"},
	{"Q7/fk0", 20, 0, 3, "9694f5b1904eb48a"},
	{"Q8/fk0", 15, 0, 1, "cbf541be01644dd1"},
	{"Q9/fk1", 59, 1, 2, "f5fbc464c8d907a8"},
	{"Q10/fk1", 156, 4, 6, "aeccb5aa7cabab2c"},
	{"Q11/fk1", 198, 4, 9, "df7eb185158a63bc"},
	{"Q12/fk1", 179, 3, 7, "3cc31ba262bc0904"},
}

// TestQuantifiedGenerationDigest pins quantified-mode generation on the
// 20 Table I/II cells: the suite bytes, skips,
// incomplete goals and every work counter, as TestGenerationDigest pins
// the unfolded default.
func TestQuantifiedGenerationDigest(t *testing.T) {
	var cells []university.Cell
	for _, c := range university.GenerationCells() {
		if c.Inserts == "" {
			cells = append(cells, c)
		}
	}
	if len(cells) != len(quantifiedCellWork) {
		t.Fatalf("%d Table I/II cells, %d pinned rows", len(cells), len(quantifiedCellWork))
	}
	var nodes, restarts int64
	for ci, c := range cells {
		want := quantifiedCellWork[ci]
		if want.name != c.Name {
			t.Fatalf("cell %d is %s, pinned row is %s", ci, c.Name, want.name)
		}
		suite, sch, err := generateCellText(c, false)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		h := sha256.New()
		genDigestSuite(h, c.Name, sch, suite, nil)
		st := suite.Stats
		digest := hex.EncodeToString(h.Sum(nil))[:16]
		t.Logf("%s: {%q, %d, %d, %d, %q},", c.Name, c.Name, st.SolverNodes, st.SolverRestarts, len(suite.Datasets), digest)
		if st.SolverNodes != want.nodes || st.SolverRestarts != want.restarts || len(suite.Datasets) != want.datasets {
			t.Errorf("%s: nodes %d, restarts %d, datasets %d; want %d, %d, %d",
				c.Name, st.SolverNodes, st.SolverRestarts, len(suite.Datasets), want.nodes, want.restarts, want.datasets)
		}
		if digest != want.digest {
			t.Errorf("%s: digest %s, want %s", c.Name, digest, want.digest)
		}
		nodes += want.nodes
		restarts += want.restarts
	}
	if nodes != 3843 || restarts != 81 {
		t.Errorf("pinned rows sum to %d nodes and %d restarts, want 3843 and 81", nodes, restarts)
	}
}
