package randql

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/qtree"
)

// Shared flags: the tests, the nightly soak job and local reproduction
// all use the same entry points. A failing case's reproducer prints the
// go test command that replays it alone (see harness.rerun).
var (
	flagSeed = flag.Int64("randql.seed", 1, "base seed for randql cases")
	flagN    = flag.Int("randql.n", 70, "number of differential-oracle cases (3 datasets each)")
	flagQ    = flag.Int("randql.q", 70, "number of suite-completeness cases")
	// flagGoalTimeout bounds each kill goal of a completeness case, so one
	// pathological solver instance bounds that case (counted as
	// budget-skipped) instead of stalling the whole soak. The nightly job
	// sets it explicitly; 0 keeps goals unbounded for local runs.
	flagGoalTimeout = flag.Duration("randql.goal-timeout", 0, "per-kill-goal wall-clock budget for completeness cases (0 = unlimited)")
	// Extended-class weight knobs. Negative keeps the preset's value;
	// 0 disables the class (and drops it from the coverage requirement).
	flagSubq   = flag.Float64("randql.subq", -1, "WHERE-subquery probability override (-1 = preset)")
	flagHaving = flag.Float64("randql.having", -1, "HAVING probability override (-1 = preset)")
	flagLike   = flag.Float64("randql.like", -1, "LIKE probability override (-1 = preset)")
)

// harness is how a randql test derives its cases: case i of a run with
// base seed b (-randql.seed) is NewCase(b + offset + i, cfg), where cfg
// is the preset, overlaid with the grammar flags when the harness reads
// them.
type harness struct {
	test   string        // the test function
	offset int64         // added to the base seed
	count  string        // the flag that sets the number of cases ("" = fixed)
	preset func() Config // the grammar preset
	flags  bool          // whether the extended-class flags apply
}

var (
	oracleHarness       = harness{"TestDifferentialOracle", 0, "randql.n", DefaultConfig, true}
	completenessHarness = harness{"TestSuiteCompleteness", 10000, "randql.q", CompletenessConfig, true}
	roundTripHarness    = harness{"TestSQLPrinterRoundTripRandom", 20000, "", DefaultConfig, false}
	engineDiffHarness   = harness{"TestCompiledRefevalDifferential", 30000, "randql.engine-diff", DefaultConfig, false}
)

// newCase derives case i of a run with base seed base, and records the
// command that replays it alone.
func (h harness) newCase(base int64, i int) (*Case, error) {
	cfg := h.preset()
	if h.flags {
		cfg = applyFlags(cfg)
	}
	c, err := NewCase(base+h.offset+int64(i), cfg)
	if err != nil {
		return nil, err
	}
	c.rerun = h.rerun(base+int64(i), cfg)
	return c, nil
}

// rerun renders the go test command that makes the case of base seed
// base, under grammar cfg, the harness's first case: the test's -run,
// the base seed, a case count of one, every grammar flag that differs
// from the preset and, for the completeness test, the goal timeout.
func (h harness) rerun(base int64, cfg Config) string {
	cmd := fmt.Sprintf("go test ./internal/randql -run '^%s$' -randql.seed=%d", h.test, base)
	if h.count != "" {
		cmd += " -" + h.count + "=1"
	}
	if _, flags, ok := grammarFlags(cfg); ok {
		for _, f := range flags {
			cmd += " -randql." + f
		}
	}
	if h.test == completenessHarness.test && *flagGoalTimeout > 0 {
		cmd += " -randql.goal-timeout=" + flagGoalTimeout.String()
	}
	return cmd
}

// applyFlags overlays the extended-class weight flags onto a preset.
func applyFlags(cfg Config) Config {
	if *flagSubq >= 0 {
		cfg.SubqProb = *flagSubq
	}
	if *flagHaving >= 0 {
		cfg.HavingProb = *flagHaving
	}
	if *flagLike >= 0 {
		cfg.LikeProb = *flagLike
	}
	return cfg
}

// checkCoverage fails the soak when an enabled grammar rule was never
// exercised — but only for runs big enough that absence means starvation
// rather than bad luck on a handful of seeds (the rarest rules appear in
// roughly 7% of completeness cases, so enforcement starts at 60 cases;
// single-seed reproductions and short CI smokes only log the counts).
func checkCoverage(t *testing.T, cov *Coverage, cfg Config, cases int) {
	t.Helper()
	t.Logf("grammar coverage over %d cases: %s", cases, cov.String())
	if cases < 60 {
		return
	}
	if missing := cov.Missing(cfg); len(missing) > 0 {
		t.Errorf("enabled grammar rules never exercised in %d cases: %v (observed: %s)", cases, missing, cov)
	}
}

// saveFailure writes a reproducer into $RANDQL_FAILURE_DIR (if set) so
// CI can upload it as an artifact.
func saveFailure(t *testing.T, seed int64, repro string) {
	dir := os.Getenv("RANDQL_FAILURE_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("randql: cannot create failure dir: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("seed-%d.sql", seed))
	if err := os.WriteFile(path, []byte(repro), 0o644); err != nil {
		t.Logf("randql: cannot write failure artifact: %v", err)
		return
	}
	t.Logf("randql: failure reproducer written to %s", path)
}

// TestDifferentialOracle cross-checks the execution engine against the
// independent reference evaluator on randomized (query, dataset) pairs
// drawn from the full grammar (outer and natural joins, NULL-prone
// data, floats, booleans, DISTINCT, aggregates, constant conjuncts).
// Any multiset divergence fails with a runnable reproducer.
func TestDifferentialOracle(t *testing.T) {
	cfg := applyFlags(DefaultConfig())
	const datasetsPerCase = 3
	pairs := 0
	cov := NewCoverage()
	for i := 0; i < *flagN; i++ {
		c, err := oracleHarness.newCase(*flagSeed, i)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		seed := c.Seed
		cov.Observe(c.Query, c.SQL)
		for d := 0; d < datasetsPerCase; d++ {
			ds, err := c.NextDataset()
			if err != nil {
				t.Fatalf("seed %d dataset %d: %v", seed, d, err)
			}
			if err := DiffOne(c, ds); err != nil {
				saveFailure(t, seed, c.Repro(ds))
				t.Fatalf("differential oracle divergence: %v", err)
			}
			pairs++
		}
	}
	t.Logf("differential oracle: %d (query, dataset) pairs, zero divergences", pairs)
	if pairs < 200 {
		t.Errorf("only %d pairs exercised, want >= 200 (raise -randql.n)", pairs)
	}
	checkCoverage(t, cov, cfg, *flagN)
}

// TestSuiteCompleteness asserts the paper's guarantee end-to-end on
// random queries from the completeness grammar (§IV–V assumptions:
// int/string NOT NULL data columns, no DISTINCT, no constant
// conjuncts): every mutant the generated suite leaves alive must be
// equivalent to the original query. Survivors are cross-examined by the
// randomized equivalence checker; a confirmed non-equivalent survivor
// is a bug and fails with mutant SQL plus the witness dataset.
func TestSuiteCompleteness(t *testing.T) {
	if testing.Short() {
		t.Skip("completeness property is slow; skipped with -short")
	}
	cfg := applyFlags(CompletenessConfig())
	prev := GoalTimeout
	GoalTimeout = *flagGoalTimeout
	defer func() { GoalTimeout = prev }()
	totalMutants, totalKilled, totalSuspected, budgetExceeded := 0, 0, 0, 0
	cov := NewCoverage()
	for i := 0; i < *flagQ; i++ {
		c, err := completenessHarness.newCase(*flagSeed, i)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		seed := c.Seed
		cov.Observe(c.Query, c.SQL)
		res, err := CheckCompleteness(c, seed*31+7)
		if err != nil {
			saveFailure(t, seed, c.Repro(nil))
			t.Fatalf("completeness check failed: %v", err)
		}
		if res.BudgetExceeded {
			budgetExceeded++
			t.Logf("seed %d: solver budget exceeded, case skipped: %s", seed, c.SQL)
			continue
		}
		if len(res.NonEquivalent) > 0 {
			saveFailure(t, seed, c.Repro(nil))
			t.Fatalf("seed %d: %d non-equivalent mutants survived the generated suite:\n%s\nquery: %s\n%s",
				seed, len(res.NonEquivalent), res.NonEquivalent[0], c.SQL, c.Repro(nil))
		}
		totalMutants += res.Mutants
		totalKilled += res.Killed
		totalSuspected += len(res.SuspectedEquivalent)
	}
	t.Logf("completeness: %d queries (%d skipped on solver budget), %d mutants, %d killed, %d suspected-equivalent survivors, 0 non-equivalent survivors",
		*flagQ, budgetExceeded, totalMutants, totalKilled, totalSuspected)
	if budgetExceeded*5 > *flagQ {
		t.Errorf("%d of %d cases exceeded the solver budget — pathological instances should be rare", budgetExceeded, *flagQ)
	}
	checkCoverage(t, cov, cfg, *flagQ)
}

// TestCaseDeterminism pins the determinism contract: the same seed
// reproduces the identical schema, SQL and datasets byte for byte.
func TestCaseDeterminism(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), CompletenessConfig()} {
		a, err := NewCase(42, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewCase(42, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Schema.String() != b.Schema.String() {
			t.Fatalf("schema not deterministic:\n%s\nvs\n%s", a.Schema, b.Schema)
		}
		if a.SQL != b.SQL {
			t.Fatalf("query not deterministic:\n%s\nvs\n%s", a.SQL, b.SQL)
		}
		for i := 0; i < 3; i++ {
			da, err := a.NextDataset()
			if err != nil {
				t.Fatal(err)
			}
			db, err := b.NextDataset()
			if err != nil {
				t.Fatal(err)
			}
			if da.SQLInserts(a.Schema) != db.SQLInserts(b.Schema) {
				t.Fatalf("dataset %d not deterministic", i)
			}
		}
	}
}

// TestSQLPrinterRoundTripRandom extends the hand-written printer tests
// with random queries: printing a random query and re-building it must
// yield a query the engine evaluates identically on a random dataset.
func TestSQLPrinterRoundTripRandom(t *testing.T) {
	for i := 0; i < 40; i++ {
		c, err := roundTripHarness.newCase(*flagSeed, i)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		seed := c.Seed
		printed := c.Query.SQLString()
		q2, err := qtree.BuildSQL(c.Schema, printed)
		if err != nil {
			t.Fatalf("seed %d: printed SQL does not rebuild: %v\noriginal: %s\nprinted:  %s", seed, err, c.SQL, printed)
		}
		ds, err := c.NextDataset()
		if err != nil {
			t.Fatal(err)
		}
		r1, err := engine.NewPlan(c.Query).Run(ds)
		if err != nil {
			t.Fatalf("seed %d: run original: %v", seed, err)
		}
		r2, err := engine.NewPlan(q2).Run(ds)
		if err != nil {
			t.Fatalf("seed %d: run reprinted: %v\nprinted: %s", seed, err, printed)
		}
		if !multisetEqual(r1.Multiset(), r2.Multiset()) {
			saveFailure(t, seed, c.Repro(ds))
			t.Fatalf("seed %d: printed query evaluates differently\noriginal: %s\nprinted:  %s\n%s", seed, c.SQL, printed, c.Repro(ds))
		}
	}
}
