package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/solver"
)

// TestFailureHookFiresOnAbandonedGoals: Options.FailureHook receives
// exactly the failures that land in Suite.Incomplete, with the same
// purposes and reasons — the contract the daemon's repro-bundle capture
// relies on.
func TestFailureHookFiresOnAbandonedGoals(t *testing.T) {
	q := buildQuery(t, ddlNoFK, robustSQL)

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

	var hooked []Failure
	opts := DefaultOptions()
	opts.FailureHook = func(f Failure) { hooked = append(hooked, f) }

	suite, err := NewGenerator(q, opts).GenerateContext(context.Background())
	if !errors.Is(err, ErrPartialSuite) {
		t.Fatalf("got error %v, want ErrPartialSuite", err)
	}
	if len(hooked) != len(suite.Incomplete) {
		t.Fatalf("hook fired %d times for %d incomplete goals", len(hooked), len(suite.Incomplete))
	}
	seen := map[string]string{}
	for _, f := range hooked {
		seen[f.Purpose] = f.Reason
		if f.Err == nil {
			t.Errorf("hooked failure %q carries no error", f.Purpose)
		}
	}
	for _, f := range suite.Incomplete {
		if seen[f.Purpose] != f.Reason {
			t.Errorf("hook saw (%q, %q), suite recorded reason %q", f.Purpose, seen[f.Purpose], f.Reason)
		}
	}
	if seen[panicPurpose] != ReasonPanic || seen[limitPurpose] != ReasonBudget {
		t.Fatalf("hooked failures = %v, want panic + budget entries", seen)
	}
}

// TestFailureHookSilentOnCompleteSuite: no abandoned goals, no calls.
func TestFailureHookSilentOnCompleteSuite(t *testing.T) {
	q := buildQuery(t, ddlNoFK, robustSQL)
	opts := DefaultOptions()
	calls := 0
	opts.FailureHook = func(Failure) { calls++ }
	if _, err := NewGenerator(q, opts).GenerateContext(context.Background()); err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if calls != 0 {
		t.Fatalf("FailureHook fired %d times on a complete suite", calls)
	}
}
