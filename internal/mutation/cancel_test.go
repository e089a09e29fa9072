package mutation

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/sqltypes"
	"repro/internal/testutil"
)

// bulkDataset builds a dataset with n matching instructor/teaches rows,
// big enough that one kill-matrix cell takes measurable time.
func bulkDataset(n int) *schema.Dataset {
	ds := schema.NewDataset("bulk")
	for i := 0; i < n; i++ {
		id := int64(i)
		ds.Insert("instructor", sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewString("n"), sqltypes.NewInt(50000 + id)})
		ds.Insert("teaches", sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewInt(id % 7)})
	}
	return ds
}

func TestEvaluateContextPreCanceled(t *testing.T) {
	query := q(t, testDDL, `SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000`)
	ms, err := Space(query, DefaultOptions())
	if err != nil {
		t.Fatalf("Space: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := EvaluateContext(ctx, query, ms, []*schema.Dataset{bulkDataset(4)}, EvalOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled evaluate: got %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("canceled evaluate must not return a report")
	}
}

// TestEvaluateContextCancelMidRun cancels a large evaluation shortly
// after it starts and asserts prompt, leak-free return. The workload —
// every mutant plan against many bulk datasets — takes far longer than
// the cancellation delay, so the cancel always lands mid-run. Run under
// -race in CI.
func TestEvaluateContextCancelMidRun(t *testing.T) {
	query := q(t, testDDL, `SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000`)
	ms, err := Space(query, DefaultOptions())
	if err != nil {
		t.Fatalf("Space: %v", err)
	}
	datasets := make([]*schema.Dataset, 64)
	for i := range datasets {
		datasets[i] = bulkDataset(400)
	}

	before := testutil.GoroutineSnapshot()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = EvaluateContext(ctx, query, ms, datasets, EvalOptions{})
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled mid-run: got %v, want context.Canceled (after %v)", err, elapsed)
	}
	// The context is checked before every cell, so the return is prompt:
	// at most one in-flight cell after the cancel.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: EvaluateContext took %v", elapsed)
	}

	// No goroutines outlive the call (slack 1 for the canceler
	// goroutine above).
	testutil.RequireNoGoroutineLeak(t, before, 1)
}
