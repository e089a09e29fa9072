package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/mutation"
	"repro/internal/solver"
	"repro/internal/testutil"
)

// robustQuery is the two-relation query used by the fault-injection
// tests: it yields a goal list with one original-dataset goal, two
// equivalence-class nullifications and three comparison variants, so
// injected faults can target two distinct kill goals while four goals
// proceed normally.
const robustSQL = `SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50`

// Substrings of the two targeted goals. The solver label is the dataset
// purpose string ("kill join-type mutants: nullify {i.id} on class
// {i.id, t.id}"); the braces in the nullify pattern keep it from also
// matching the t.id goal, whose class string contains "i.id" too.
const (
	panicLabelPat = "nullify {i.id}"
	panicPurpose  = "nullify i.id on class {i.id, t.id}"
	limitLabelPat = "(i.salary) < (50)"
	limitPurpose  = "comparison dataset (i.salary) < (50)"
)

// TestFaultInjectionPartialSuite is the PR's acceptance test: with a
// panic injected into one kill goal and a budget-exhaustion into
// another, Generate must return ErrPartialSuite with exactly those two
// goals in Suite.Incomplete (correct reasons and error types), every
// other dataset byte-identical to an uninjected run, and the kill
// matrix over the partial suite must evaluate cleanly.
func TestFaultInjectionPartialSuite(t *testing.T) {
	q := buildQuery(t, ddlNoFK, robustSQL)
	baseline := generate(t, q, DefaultOptions())

	defer solver.SetFaultHook(nil)
	solver.SetFaultHook(func(label string, call int64) solver.Fault {
		switch {
		case strings.Contains(label, panicLabelPat):
			return solver.FaultPanic
		case strings.Contains(label, limitLabelPat):
			return solver.FaultLimit
		}
		return solver.FaultNone
	})

	suite, err := NewGenerator(q, DefaultOptions()).GenerateContext(context.Background())
	if !errors.Is(err, ErrPartialSuite) {
		t.Fatalf("injected faults: got error %v, want ErrPartialSuite", err)
	}
	if suite == nil {
		t.Fatal("partial suite must still be returned alongside ErrPartialSuite")
	}
	if len(suite.Incomplete) != 2 {
		t.Fatalf("Incomplete: got %d entries (%v), want exactly 2", len(suite.Incomplete), suite.Incomplete)
	}

	// Entry 0: the panicked nullification goal (goal-enumeration order
	// puts equivalence-class goals before comparison goals).
	pan := suite.Incomplete[0]
	if pan.Purpose != panicPurpose {
		t.Errorf("panic entry purpose: got %q, want %q", pan.Purpose, panicPurpose)
	}
	if pan.Reason != ReasonPanic {
		t.Errorf("panic entry reason: got %q, want %q", pan.Reason, ReasonPanic)
	}
	var gerr *GoalError
	if !errors.As(pan.Err, &gerr) {
		t.Fatalf("panic entry Err: got %T (%v), want *GoalError", pan.Err, pan.Err)
	}
	if gerr.Purpose != pan.Purpose {
		t.Errorf("GoalError purpose: got %q, want %q", gerr.Purpose, pan.Purpose)
	}
	if len(gerr.Stack) == 0 {
		t.Error("GoalError must carry the panicking goroutine's stack")
	}

	// Entry 1: the budget-exhausted comparison goal.
	lim := suite.Incomplete[1]
	if lim.Purpose != limitPurpose {
		t.Errorf("limit entry purpose: got %q, want %q", lim.Purpose, limitPurpose)
	}
	if lim.Reason != ReasonBudget {
		t.Errorf("limit entry reason: got %q, want %q", lim.Reason, ReasonBudget)
	}
	if !errors.Is(lim.Err, solver.ErrLimit) {
		t.Errorf("limit entry Err: got %v, want wrapped solver.ErrLimit", lim.Err)
	}

	if suite.Stats.PanicCount != 1 || suite.Stats.LimitCount != 1 {
		t.Errorf("stats: PanicCount=%d LimitCount=%d, want 1 and 1",
			suite.Stats.PanicCount, suite.Stats.LimitCount)
	}

	// Every untargeted dataset must be byte-identical to the uninjected
	// run, in the same deterministic order.
	targeted := func(purpose string) bool {
		return strings.Contains(purpose, panicLabelPat) || strings.Contains(purpose, limitLabelPat)
	}
	var want, got []string
	removed := 0
	for _, ds := range baseline.All() {
		if targeted(ds.Purpose) {
			removed++
			continue
		}
		want = append(want, ds.Purpose+"\n"+ds.String())
	}
	if removed != 2 {
		t.Fatalf("baseline: targeted-purpose patterns matched %d datasets, want 2 (label drift?)", removed)
	}
	for _, ds := range suite.All() {
		got = append(got, ds.Purpose+"\n"+ds.String())
	}
	if len(got) != len(want) {
		t.Fatalf("partial suite has %d datasets, want %d (baseline minus the 2 targeted)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dataset %d diverges from uninjected run:\n--- want\n%s\n--- got\n%s", i, want[i], got[i])
		}
	}

	// The kill matrix over the partial suite evaluates cleanly: a
	// degraded suite is still a usable suite.
	ms, err := mutation.Space(q, mutation.DefaultOptions())
	if err != nil {
		t.Fatalf("mutant space: %v", err)
	}
	if _, err := mutation.Evaluate(q, ms, suite.All()); err != nil {
		t.Fatalf("kill matrix over partial suite: %v", err)
	}
}

// TestRetryLadderEscalation verifies the escalating-retry ladder: a
// goal whose first two budgeted attempts exhaust their (injected) node
// limit succeeds on the third, the suite completes, and the retries
// are counted.
func TestRetryLadderEscalation(t *testing.T) {
	q := buildQuery(t, ddlNoFK, robustSQL)
	opts := DefaultOptions()
	opts.GoalNodeLimit = 100_000

	calls := 0
	defer solver.SetFaultHook(nil)
	solver.SetFaultHook(func(label string, call int64) solver.Fault {
		if strings.Contains(label, limitLabelPat) {
			calls++
			if calls <= 2 {
				return solver.FaultLimit
			}
		}
		return solver.FaultNone
	})

	suite, err := NewGenerator(q, opts).GenerateContext(context.Background())
	if err != nil {
		t.Fatalf("GenerateContext: %v (the third attempt should have succeeded)", err)
	}
	if len(suite.Incomplete) != 0 {
		t.Fatalf("Incomplete: got %v, want none (goal recovered on retry)", suite.Incomplete)
	}
	if calls != 3 {
		t.Errorf("targeted goal solved %d times, want 3 (fail, fail, succeed)", calls)
	}
	if suite.Stats.RetryCount != 2 {
		t.Errorf("RetryCount: got %d, want 2", suite.Stats.RetryCount)
	}
	if suite.Stats.LimitCount != 0 {
		t.Errorf("LimitCount: got %d, want 0 (goal eventually succeeded)", suite.Stats.LimitCount)
	}
	found := false
	for _, ds := range suite.Datasets {
		if strings.Contains(ds.Purpose, limitLabelPat) {
			found = true
		}
	}
	if !found {
		t.Error("the retried goal's dataset is missing from the suite")
	}
}

// TestRetryLadderExhausted verifies that a goal failing every rung
// lands in Suite.Incomplete with the full attempt count, while the rest
// of the suite is generated. It runs in quantified mode: the ladder
// stays in one solve mode from its first rung to its last.
func TestRetryLadderExhausted(t *testing.T) {
	q := buildQuery(t, ddlNoFK, robustSQL)
	opts := DefaultOptions()
	opts.Unfold = false
	opts.GoalNodeLimit = 100_000

	defer solver.SetFaultHook(nil)
	solver.SetFaultHook(func(label string, call int64) solver.Fault {
		if strings.Contains(label, limitLabelPat) {
			return solver.FaultLimit
		}
		return solver.FaultNone
	})

	suite, err := NewGenerator(q, opts).GenerateContext(context.Background())
	if !errors.Is(err, ErrPartialSuite) {
		t.Fatalf("exhausted ladder: got error %v, want ErrPartialSuite", err)
	}
	if len(suite.Incomplete) != 1 {
		t.Fatalf("Incomplete: got %v, want exactly the exhausted goal", suite.Incomplete)
	}
	f := suite.Incomplete[0]
	if f.Reason != ReasonBudget || f.Attempts != 3 {
		t.Errorf("failure: reason %q attempts %d, want %q and 3", f.Reason, f.Attempts, ReasonBudget)
	}
	if suite.Stats.RetryCount != 2 || suite.Stats.LimitCount != 1 {
		t.Errorf("stats: RetryCount=%d LimitCount=%d, want 2 and 1",
			suite.Stats.RetryCount, suite.Stats.LimitCount)
	}
}

// TestGenerateContextCancelNoLeaks cancels a generation whose every
// solve hangs (injected FaultSlow) and asserts the pipeline returns
// promptly with a deterministic partial result and no leaked
// goroutines. Run under -race in CI.
func TestGenerateContextCancelNoLeaks(t *testing.T) {
	q := buildQuery(t, ddlNoFK, robustSQL)
	defer solver.SetFaultHook(nil)
	solver.SetFaultHook(func(label string, call int64) solver.Fault {
		return solver.FaultSlow
	})

	opts := DefaultOptions()

	before := testutil.GoroutineSnapshot()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	suite, err := NewGenerator(q, opts).GenerateContext(ctx)
	elapsed := time.Since(start)

	if elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: GenerateContext took %v", elapsed)
	}
	if !errors.Is(err, ErrPartialSuite) {
		t.Fatalf("canceled run: got error %v, want ErrPartialSuite", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run: error %v should wrap context.Canceled", err)
	}
	if suite == nil || len(suite.Incomplete) == 0 {
		t.Fatalf("canceled run must return the partial suite with Incomplete entries (got %+v)", suite)
	}
	// Every solve hung until the cancel, so no goal can have finished;
	// the partial output is deterministic: all goals incomplete, in
	// enumeration order, all canceled.
	if suite.Original != nil || len(suite.Datasets) != 0 {
		t.Errorf("no goal could finish, yet suite has original=%v and %d datasets",
			suite.Original != nil, len(suite.Datasets))
	}
	if suite.Incomplete[0].Purpose != "original-query dataset" {
		t.Errorf("Incomplete[0]: got %q, want the first enumerated goal", suite.Incomplete[0].Purpose)
	}
	for _, f := range suite.Incomplete {
		if f.Reason != ReasonCanceled {
			t.Errorf("goal %q: reason %q, want %q", f.Purpose, f.Reason, ReasonCanceled)
		}
		if !errors.Is(f.Err, solver.ErrCanceled) {
			t.Errorf("goal %q: err %v, want wrapped solver.ErrCanceled", f.Purpose, f.Err)
		}
	}

	// Goroutine leak check: slack 1 for the canceler goroutine above,
	// which may not have exited yet.
	testutil.RequireNoGoroutineLeak(t, before, 1)
}

// TestGenerateContextPreCanceled: a context canceled before the call
// yields a fully incomplete suite immediately, without touching the
// solver.
func TestGenerateContextPreCanceled(t *testing.T) {
	q := buildQuery(t, ddlNoFK, robustSQL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	suite, err := NewGenerator(q, DefaultOptions()).GenerateContext(ctx)
	if !errors.Is(err, ErrPartialSuite) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: got %v, want ErrPartialSuite wrapping context.Canceled", err)
	}
	if suite == nil || len(suite.Datasets) != 0 || suite.Original != nil {
		t.Fatalf("pre-canceled: no dataset should be generated (got %+v)", suite)
	}
	for _, f := range suite.Incomplete {
		if f.Reason != ReasonCanceled {
			t.Errorf("goal %q: reason %q, want %q", f.Purpose, f.Reason, ReasonCanceled)
		}
	}
}

// TestGoalTimeoutBudget: a per-goal wall-clock budget converts a
// hanging goal into a ReasonBudget Incomplete entry — a budget, not a
// cancellation — while the run's own context stays live.
func TestGoalTimeoutBudget(t *testing.T) {
	checkGoalTimeoutBudget(t, 0)
}

// TestRetryLadderSolverTimeout: on the retry ladder (GoalNodeLimit
// 100,000 is the completeness harness's shape) a solver call that runs
// out of wall clock is still a budget, not a cancellation. The only
// wall-clock bound of a solve is its goal's deadline, which spans the
// whole ladder, so the expiry is not escalated: the goal ends after its
// one attempt.
func TestRetryLadderSolverTimeout(t *testing.T) {
	checkGoalTimeoutBudget(t, 100_000)
}

// checkGoalTimeoutBudget runs robustSQL with the panic goal's solves
// hanging under a 50 ms GoalTimeout and requires that goal, alone, to
// end as one ReasonBudget attempt whose error wraps no context error.
func checkGoalTimeoutBudget(t *testing.T, goalNodes int64) {
	t.Helper()
	q := buildQuery(t, ddlNoFK, robustSQL)
	defer solver.SetFaultHook(nil)
	solver.SetFaultHook(func(label string, call int64) solver.Fault {
		if strings.Contains(label, panicLabelPat) {
			return solver.FaultSlow
		}
		return solver.FaultNone
	})
	opts := DefaultOptions()
	opts.GoalNodeLimit = goalNodes
	opts.GoalTimeout = 50 * time.Millisecond

	start := time.Now()
	suite, err := NewGenerator(q, opts).GenerateContext(context.Background())
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("goal timeout not enforced: run took %v", elapsed)
	}
	if !errors.Is(err, ErrPartialSuite) {
		t.Fatalf("hung goal under GoalTimeout: got %v, want ErrPartialSuite", err)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("per-goal timeout must not surface as run cancellation: %v", err)
	}
	if len(suite.Incomplete) != 1 {
		t.Fatalf("Incomplete: got %v, want exactly the hung goal", suite.Incomplete)
	}
	f := suite.Incomplete[0]
	if f.Purpose != panicPurpose || f.Reason != ReasonBudget || f.Attempts != 1 {
		t.Errorf("failure %q/%q after %d attempts, want %q/%q after 1",
			f.Purpose, f.Reason, f.Attempts, panicPurpose, ReasonBudget)
	}
	if errors.Is(f.Err, context.Canceled) || errors.Is(f.Err, context.DeadlineExceeded) {
		t.Errorf("failure error %v wraps a context error", f.Err)
	}
	if suite.Stats.LimitCount != 1 {
		t.Errorf("LimitCount: got %d, want 1", suite.Stats.LimitCount)
	}
}
