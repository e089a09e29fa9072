package solver

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sqltypes"
	"repro/internal/testutil"
)

// pigeonhole builds an UNSAT problem whose refutation requires real
// search: n variables over a domain of n-1 values, pairwise distinct.
// The unfolded DFS must exhaust a large subtree before concluding
// UNSAT, which gives cancellation something to interrupt.
func pigeonhole(n int) *Solver {
	s := New()
	domain := make([]int64, n-1)
	for i := range domain {
		domain[i] = int64(i)
	}
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = s.NewVar(fmt.Sprintf("p%d", i), domain)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s.Assert(NewCmp(sqltypes.OpNE, V(vars[i]), V(vars[j])))
		}
	}
	return s
}

func TestSolveContextCanceledBeforeStart(t *testing.T) {
	s := pigeonhole(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.SolveContext(ctx, Options{Unfold: true})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled context: got %v, want ErrCanceled", err)
	}
}

func TestSolveContextCancelMidSearch(t *testing.T) {
	for _, unfold := range []bool{true, false} {
		unfold := unfold
		t.Run(fmt.Sprintf("unfold=%v", unfold), func(t *testing.T) {
			// Large enough that the UNSAT proof takes far longer than
			// the cancellation delay on any machine.
			s := pigeonhole(12)
			before := testutil.GoroutineSnapshot()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := s.SolveContext(ctx, Options{Unfold: unfold})
			elapsed := time.Since(start)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("canceled mid-search: got %v, want ErrCanceled (after %v)", err, elapsed)
			}
			// The cooperative check runs every 1024 nodes; even slow CI
			// machines observe the cancellation within a couple of
			// seconds, versus minutes for the full refutation.
			if elapsed > 5*time.Second {
				t.Fatalf("cancellation not prompt: took %v", elapsed)
			}
			// The solve runs on the calling goroutine; nothing may
			// outlive it (slack 1 for the canceler above).
			testutil.RequireNoGoroutineLeak(t, before, 1)
		})
	}
}

func TestSolveContextUnaffectedWhenNotCanceled(t *testing.T) {
	s := New()
	x := s.NewVar("x", dom(1, 2, 3))
	s.Assert(Eq(V(x), C(2)))
	m, err := s.SolveContext(context.Background(), Options{Unfold: true})
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	if m[x] != 2 {
		t.Fatalf("model: got %d, want 2", m[x])
	}
}

func TestFaultHookLimit(t *testing.T) {
	defer SetFaultHook(nil)
	SetFaultHook(func(label string, call int64) Fault {
		if call == 1 {
			return FaultLimit
		}
		return FaultNone
	})
	s := New()
	x := s.NewVar("x", dom(1))
	s.Assert(Eq(V(x), C(1)))
	_, err := s.Solve(Options{Unfold: true, Label: "victim"})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("injected limit: got %v, want ErrLimit", err)
	}
	// Second call passes through.
	if _, err := s.Solve(Options{Unfold: true}); err != nil {
		t.Fatalf("post-fault solve: %v", err)
	}
}

func TestFaultHookLabelMatch(t *testing.T) {
	defer SetFaultHook(nil)
	SetFaultHook(func(label string, call int64) Fault {
		if label == "bad goal" {
			return FaultLimit
		}
		return FaultNone
	})
	s := New()
	x := s.NewVar("x", dom(1))
	s.Assert(Eq(V(x), C(1)))
	if _, err := s.Solve(Options{Unfold: true, Label: "good goal"}); err != nil {
		t.Fatalf("unmatched label: %v", err)
	}
	if _, err := s.Solve(Options{Unfold: true, Label: "bad goal"}); !errors.Is(err, ErrLimit) {
		t.Fatalf("matched label: got %v, want ErrLimit", err)
	}
}

func TestFaultHookPanic(t *testing.T) {
	defer SetFaultHook(nil)
	SetFaultHook(func(label string, call int64) Fault { return FaultPanic })
	s := New()
	x := s.NewVar("x", dom(1))
	s.Assert(Eq(V(x), C(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("injected panic did not propagate")
		}
	}()
	s.Solve(Options{Unfold: true})
}

func TestFaultHookSlow(t *testing.T) {
	defer SetFaultHook(nil)
	SetFaultHook(func(label string, call int64) Fault { return FaultSlow })
	s := New()
	x := s.NewVar("x", dom(1))
	s.Assert(Eq(V(x), C(1)))

	// Canceled context wins.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := s.SolveContext(ctx, Options{Unfold: true}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("slow fault under cancel: got %v, want ErrCanceled", err)
	}

	// A context deadline ends it the same way.
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.SolveContext(ctx, Options{Unfold: true}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("slow fault under a context deadline: got %v, want ErrCanceled", err)
	}

	// No budget at all: degrade to an immediate ErrLimit, never hang.
	if _, err := s.Solve(Options{Unfold: true}); !errors.Is(err, ErrLimit) {
		t.Fatalf("slow fault with no budget: got %v, want ErrLimit", err)
	}
}
