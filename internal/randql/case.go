package randql

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/qtree"
	"repro/internal/schema"
)

// Case is one random (schema, query, datasets) triple, fully determined
// by (Seed, Cfg): a single math/rand stream seeded with Seed generates
// the schema, then the query, then each dataset in NextDataset order.
// Two Cases with equal seed and config are byte-for-byte identical,
// including every dataset, no matter which harness created them.
type Case struct {
	Seed   int64
	Cfg    Config
	Schema *schema.Schema
	SQL    string
	Query  *qtree.Query
	// rerun, when set, is the command that replays this case alone. A
	// test harness that derives its case seeds from a base seed sets it,
	// since only it knows the derivation; Repro prints it, or else the
	// cmd/randql command that prints the case.
	rerun string

	rng       *rand.Rand
	nDatasets int
}

// NewCase derives the schema and query for seed. Errors are internal
// generator bugs (the query grammar retries until the builder accepts),
// never bad luck.
func NewCase(seed int64, cfg Config) (*Case, error) {
	rng := rand.New(rand.NewSource(seed))
	sch, err := randomSchema(rng, cfg)
	if err != nil {
		return nil, err
	}
	sql, q, err := randomQuery(rng, cfg, sch)
	if err != nil {
		return nil, err
	}
	return &Case{Seed: seed, Cfg: cfg, Schema: sch, SQL: sql, Query: q, rng: rng}, nil
}

// NextDataset draws the next random dataset from the case's stream. The
// i-th call returns the same dataset for every run with this seed.
func (c *Case) NextDataset() (*schema.Dataset, error) {
	c.nDatasets++
	return randomDataset(c.rng, c.Cfg, c.Schema, fmt.Sprintf("seed %d dataset %d", c.Seed, c.nDatasets))
}

// Repro renders a self-contained reproducer for a failure on this case:
// runnable DDL, the query SQL, the offending dataset as INSERT
// statements, and the one-command re-run line. Every harness failure
// message embeds this so a CI artifact alone is enough to replay the
// case locally.
func (c *Case) Repro(ds *schema.Dataset) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "-- randql reproducer: seed %d\n", c.Seed)
	rerun := c.rerun
	if rerun == "" {
		rerun = c.showCommand()
	}
	fmt.Fprintf(&sb, "-- rerun: %s\n", rerun)
	sb.WriteString(c.Schema.String())
	if !strings.HasSuffix(sb.String(), "\n") {
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "-- query\n%s;\n", c.SQL)
	if ds != nil {
		fmt.Fprintf(&sb, "-- dataset (%s)\n%s", ds.Purpose, ds.SQLInserts(c.Schema))
	}
	return sb.String()
}

// showCommand is the cmd/randql command printing this case.
func (c *Case) showCommand() string {
	preset, flags, ok := grammarFlags(c.Cfg)
	if !ok {
		return fmt.Sprintf("go run ./cmd/randql -seed %d (custom grammar: no preset matches)", c.Seed)
	}
	cmd := fmt.Sprintf("go run ./cmd/randql -seed %d -config %s", c.Seed, preset)
	for _, f := range flags {
		cmd += " -" + f
	}
	return cmd
}

// grammarFlags names the preset cfg derives from ("default" or
// "completeness") and renders, as name=value flag arguments without the
// leading dash, every extended-class probability (subq, having, like)
// that differs from it. ok is false when cfg differs from both presets
// elsewhere, so no flags can rebuild it.
func grammarFlags(cfg Config) (preset string, flags []string, ok bool) {
	for _, p := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"completeness", CompletenessConfig()}} {
		base := cfg
		base.SubqProb, base.HavingProb, base.LikeProb = p.cfg.SubqProb, p.cfg.HavingProb, p.cfg.LikeProb
		if base != p.cfg {
			continue
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{{"subq", cfg.SubqProb, p.cfg.SubqProb}, {"having", cfg.HavingProb, p.cfg.HavingProb}, {"like", cfg.LikeProb, p.cfg.LikeProb}} {
			if f.got != f.want {
				flags = append(flags, f.name+"="+strconv.FormatFloat(f.got, 'g', -1, 64))
			}
		}
		return p.name, flags, true
	}
	return "", nil, false
}
