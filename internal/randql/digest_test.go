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
	"repro/internal/university"
)

// killMatrixDigests pins the digest of every mutant space and kill
// matrix over digestCorpus, per mutation option set. The values were
// captured before the kill-matrix verdict path, the per-cache value and
// index slabs and the path-copied join-type mutants existed; they hold
// at every evaluation worker count.
var killMatrixDigests = map[string]string{
	"default":    "6e7bb7b8d3f72e66d722ae32b3e6814e2ab6e6e71d6b667de6ba61a6e5f9f4cf",
	"full-outer": "96f21706ca9ed6ecbd4997d59079425ebd984851d8458cea5c5d0c66caeb3034",
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
				opts := core.DefaultOptions()
				opts.Parallelism = 1
				suite, err := core.NewGenerator(q, opts).Generate()
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
// mutation option sets (the paper's, and full outer joins included) and
// at Parallelism 1 and 2, it hashes every mutant's Key, Kind, Desc and
// tree string, every kill bit, and the engine's work counters over the
// digest corpus, and requires the pinned sha256. A change to the
// executor or the mutant space that alters any answer or any counter
// fails here.
func TestKillMatrixDigest(t *testing.T) {
	corpus := digestCorpus(t)
	full := mutation.DefaultOptions()
	full.IncludeFullOuter = true
	for _, set := range []struct {
		name string
		opts mutation.Options
	}{{"default", mutation.DefaultOptions()}, {"full-outer", full}} {
		for _, par := range []int{1, 2} {
			h := sha256.New()
			mutants, cells := 0, 0
			for _, c := range corpus {
				ms, err := mutation.Space(c.q, set.opts)
				if err != nil {
					// Cross products are outside the space; the error text
					// is part of the pinned answer.
					fmt.Fprintf(h, "%s: space: %v\n", c.name, err)
					continue
				}
				rep, err := mutation.EvaluateOpts(c.q, ms, c.datasets, mutation.EvalOptions{Parallelism: par})
				if err != nil {
					t.Fatalf("%s %s: %v", set.name, c.name, err)
				}
				digestReport(h, c.name, rep)
				mutants += len(ms)
				cells += len(ms) * len(c.datasets)
			}
			got := hex.EncodeToString(h.Sum(nil))
			t.Logf("%s, Parallelism %d: %d cases, %d mutants, %d cells, sha256 %s", set.name, par, len(corpus), mutants, cells, got)
			if want := killMatrixDigests[set.name]; got != want {
				t.Errorf("%s, Parallelism %d: digest %s, want %s", set.name, par, got, want)
			}
		}
	}
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
