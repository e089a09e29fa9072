package randql

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/core"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/testutil"
	"repro/internal/university"
)

// killMatrixDigests pins the digest of every mutant space and kill
// matrix over digestCorpus, per mutation option set. The values were
// captured before the kill-matrix verdict path, the per-cache value and
// index slabs and the path-copied join-type mutants existed, and before
// evaluation moved onto the calling goroutine.
var killMatrixDigests = map[string]string{
	"default":    "6e7bb7b8d3f72e66d722ae32b3e6814e2ab6e6e71d6b667de6ba61a6e5f9f4cf",
	"full-outer": "96f21706ca9ed6ecbd4997d59079425ebd984851d8458cea5c5d0c66caeb3034",
}

// matrixWork is the deterministic kill-matrix work of one cell, in the
// order of matrixWorkFields.
type matrixWork [9]int64

// matrixWorkFields names matrixWork's entries: the mutant space, the
// suite (original included), the killed mutants, then the live engine
// counters.
var matrixWorkFields = [...]string{"mutants", "datasets", "killed", "compiled runs", "batches",
	"small joins", "nested-loop joins", "family prefix hits", "result-memo hits"}

// killMatrixCellWork pins each Table I/II cell's kill matrix under the
// default mutation options. The rows sum to the university kill-matrix
// totals BENCH_6.json recorded: 10,634 mutants, 117 datasets, 3,451
// killed, 97,759 compiled runs, 114,587 batches, 113,947 small joins,
// no nested-loop join, 405,452 family prefix hits and 52,888 result-memo
// hits.
var killMatrixCellWork = []struct {
	name string
	work matrixWork
}{
	{"Q1/fk0", matrixWork{2, 3, 2, 9, 15, 9, 0, 12, 2}},
	{"Q1/fk1", matrixWork{2, 2, 1, 6, 10, 6, 0, 8, 3}},
	{"Q2/fk0", matrixWork{8, 5, 6, 45, 81, 66, 0, 114, 15}},
	{"Q2/fk1", matrixWork{8, 4, 4, 36, 65, 53, 0, 91, 14}},
	{"Q2/fk2", matrixWork{8, 3, 2, 27, 49, 40, 0, 68, 13}},
	{"Q3/fk0", matrixWork{30, 7, 18, 217, 344, 316, 0, 713, 94}},
	{"Q3/fk1", matrixWork{30, 6, 13, 186, 304, 280, 0, 602, 81}},
	{"Q3/fk3", matrixWork{30, 4, 6, 124, 202, 186, 0, 402, 59}},
	{"Q4/fk0", matrixWork{184, 8, 80, 1480, 1927, 1887, 0, 5489, 738}},
	{"Q4/fk4", matrixWork{184, 5, 48, 925, 1349, 1324, 0, 3286, 396}},
	{"Q5/fk0", matrixWork{790, 10, 333, 7910, 8994, 8934, 0, 31896, 4395}},
	{"Q5/fk4", matrixWork{790, 7, 217, 5537, 7505, 7463, 0, 21118, 2563}},
	{"Q6/fk0", matrixWork{4248, 12, 1770, 50988, 53802, 53718, 0, 220074, 30016}},
	{"Q6/fk6", matrixWork{4248, 7, 888, 29743, 39283, 39234, 0, 120478, 14261}},
	{"Q7/fk0", matrixWork{5, 4, 5, 24, 16, 0, 0, 0, 16}},
	{"Q8/fk0", matrixWork{7, 2, 7, 16, 2, 0, 0, 14, 0}},
	{"Q9/fk1", matrixWork{9, 3, 8, 30, 15, 9, 0, 33, 4}},
	{"Q10/fk1", matrixWork{13, 7, 11, 98, 171, 121, 0, 271, 46}},
	{"Q11/fk1", matrixWork{18, 10, 16, 190, 290, 186, 0, 474, 110}},
	{"Q12/fk1", matrixWork{20, 8, 16, 168, 163, 115, 0, 309, 62}},
}

// digestCase is one (query, datasets) input of the digest corpus.
type digestCase struct {
	name     string
	q        *qtree.Query
	datasets []*schema.Dataset
}

// digestCorpus builds the digest's inputs: every Table I/II query at
// every foreign-key count with its generated suite, then randql seeds
// 30001–30200 of the default grammar with six random datasets each.
func digestCorpus(t *testing.T) []digestCase {
	t.Helper()
	var out []digestCase
	for _, set := range [][]university.BenchQuery{university.TableIQueries(), university.TableIIQueries()} {
		for _, bq := range set {
			for _, fk := range bq.FKCounts {
				q, err := qtree.BuildSQL(university.Schema(fk), bq.SQL)
				if err != nil {
					t.Fatalf("%s: %v", bq.Name, err)
				}
				suite, err := core.NewGenerator(q, core.DefaultOptions()).Generate()
				if err != nil {
					t.Fatalf("%s fk %d: %v", bq.Name, fk, err)
				}
				out = append(out, digestCase{fmt.Sprintf("%s/fk%d", bq.Name, fk), q, suite.All()})
			}
		}
	}
	for seed := int64(30001); seed <= 30200; seed++ {
		c, err := NewCase(seed, DefaultConfig())
		if err != nil {
			t.Fatalf("NewCase(%d): %v", seed, err)
		}
		dc := digestCase{name: fmt.Sprintf("seed %d", seed), q: c.Query}
		for d := 0; d < 6; d++ {
			ds, err := c.NextDataset()
			if err != nil {
				t.Fatalf("seed %d dataset %d: %v", seed, d, err)
			}
			dc.datasets = append(dc.datasets, ds)
		}
		out = append(out, dc)
	}
	return out
}

// TestKillMatrixDigest pins the kill-matrix layer end to end. For both
// mutation option sets (the paper's, and full outer joins included), it
// hashes every mutant's Key, Kind, Desc and tree string, every kill
// bit, and the engine's work counters over the digest corpus, and
// requires the pinned sha256. A change to the executor or the mutant
// space that alters any answer or any counter fails here. Under the
// paper's options each Table I/II cell must also match its
// killMatrixCellWork row, so a failure names the cell and the counter,
// and, outside -race, its matrix must match refeval's
// (mutation.ReferenceKills) in every one of its 97,642 cells.
func TestKillMatrixDigest(t *testing.T) {
	corpus := digestCorpus(t)
	var sum matrixWork
	for ci, row := range killMatrixCellWork {
		if corpus[ci].name != row.name {
			t.Fatalf("corpus case %d is %s, pinned row is %s", ci, corpus[ci].name, row.name)
		}
		for i, v := range row.work {
			sum[i] += v
		}
	}
	if want := (matrixWork{10634, 117, 3451, 97759, 114587, 113947, 0, 405452, 52888}); sum != want {
		t.Errorf("pinned Table I/II rows sum to %v, want %v", sum, want)
	}

	full := mutation.DefaultOptions()
	full.IncludeFullOuter = true
	var tableReps []*mutation.Report // the Table I/II cells, paper's options
	for _, set := range []struct {
		name string
		opts mutation.Options
	}{{"default", mutation.DefaultOptions()}, {"full-outer", full}} {
		h := sha256.New()
		mutants, cells := 0, 0
		for ci, c := range corpus {
			ms, err := mutation.Space(c.q, set.opts)
			if err != nil {
				// Cross products are outside the space; the error text
				// is part of the pinned answer.
				fmt.Fprintf(h, "%s: space: %v\n", c.name, err)
				continue
			}
			rep, err := mutation.Evaluate(c.q, ms, c.datasets)
			if err != nil {
				t.Fatalf("%s %s: %v", set.name, c.name, err)
			}
			digestReport(h, c.name, rep)
			mutants += len(ms)
			cells += len(ms) * len(c.datasets)
			if set.name == "default" && ci < len(killMatrixCellWork) {
				e := rep.Exec
				got := matrixWork{int64(len(ms)), int64(len(c.datasets)), int64(rep.KilledCount()), e.CompiledRuns,
					e.CompiledBatches, e.SmallJoins, e.NestedLoopJoins, e.FamilyPrefixHits, e.ResultMemoHits}
				for i, field := range matrixWorkFields {
					if want := killMatrixCellWork[ci].work[i]; got[i] != want {
						t.Errorf("%s: %s %d, want %d", c.name, field, got[i], want)
					}
				}
				tableReps = append(tableReps, rep)
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		t.Logf("%s: %d cases, %d mutants, %d cells, sha256 %s", set.name, len(corpus), mutants, cells, got)
		if want := killMatrixDigests[set.name]; got != want {
			t.Errorf("%s: digest %s, want %s", set.name, got, want)
		}
	}

	if testutil.RaceEnabled {
		t.Log("refeval leg skipped under -race; a non-race CI step runs it")
		return
	}
	cells := 0
	for ci, rep := range tableReps {
		c := corpus[ci]
		ref, err := mutation.ReferenceKills(c.q, rep.Mutants, c.datasets)
		if err != nil {
			t.Fatalf("%s: refeval: %v", c.name, err)
		}
		if mi, di, bad := rep.FirstDisagreement(ref); bad {
			t.Errorf("%s: mutant %d %q, dataset %d: compiled killed=%v, refeval killed=%v",
				c.name, mi, rep.Mutants[mi].Desc, di, rep.Killed[mi][di], ref[mi][di])
		}
		cells += len(rep.Mutants) * len(c.datasets)
	}
	t.Logf("refeval leg: %d matrix cells of %d Table I/II cells compared", cells, len(tableReps))
}

// digestReport writes one evaluation into h: the mutants in order, each
// with its kill bits, then the work counters. The deprecated,
// always-zero counters are left out.
func digestReport(h hash.Hash, name string, rep *mutation.Report) {
	fmt.Fprintf(h, "%s: %d mutants, %d datasets\n", name, len(rep.Mutants), len(rep.Datasets))
	for mi, m := range rep.Mutants {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00", m.Key, m.Kind, m.Desc, m.Plan.Tree)
		bits := make([]byte, len(rep.Killed[mi]))
		for di, k := range rep.Killed[mi] {
			bits[di] = '0'
			if k {
				bits[di] = '1'
			}
		}
		h.Write(bits)
		h.Write([]byte{'\n'})
	}
	e := rep.Exec
	fmt.Fprintf(h, "exec %d %d %d %d %d %d\n", e.CompiledRuns, e.CompiledBatches, e.SmallJoins,
		e.NestedLoopJoins, e.FamilyPrefixHits, e.ResultMemoHits)
}
