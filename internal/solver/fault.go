package solver

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Fault selects a deterministic failure to inject into one Solve call.
// The hook exists so robustness tests can simulate the three production
// failure modes — budget exhaustion, a panicking worker, and a solve
// that hangs until canceled — at exact, reproducible points in a
// generation run, without depending on finding a real pathological
// constraint system.
type Fault int

const (
	// FaultNone lets the solve proceed normally.
	FaultNone Fault = iota
	// FaultLimit makes the solve return a wrapped ErrLimit immediately,
	// as if the node budget had been exhausted on entry.
	FaultLimit
	// FaultPanic makes the solve panic, exercising the caller's
	// per-goal recovery path.
	FaultPanic
	// FaultSlow blocks the solve until its context is done (canceled
	// or past its deadline), returning ErrCanceled. With a context that
	// can never be done it returns ErrLimit immediately rather than
	// hang forever.
	FaultSlow
)

// FaultFunc decides the fault for one solve. label is Options.Label
// (the caller's goal purpose; empty when unset) and call is the 1-based
// global sequence number of SolveContext calls since the hook was
// installed. Matching on label is stable; matching on call is
// deterministic too, because a generator solves its goals one after
// another.
type FaultFunc func(label string, call int64) Fault

var (
	faultHook atomic.Pointer[FaultFunc]
	faultSeq  atomic.Int64
)

// SetFaultHook installs (or, with nil, removes) the fault-injection
// hook and resets the call-sequence counter. FOR TESTS ONLY. Install
// and remove the hook only while no solves are in flight.
func SetFaultHook(f FaultFunc) {
	faultSeq.Store(0)
	if f == nil {
		faultHook.Store(nil)
		return
	}
	faultHook.Store(&f)
}

// FaultHookActive reports whether a fault-injection hook is currently
// installed. Failure repro bundles record it so a bundle captured under
// injected faults is labeled as such and never mistaken for organic
// evidence.
func FaultHookActive() bool {
	return faultHook.Load() != nil
}

// injectFault consults the hook, if any, and performs the selected
// fault. It reports whether a fault was injected (in which case the
// returned model/error are the call's final result).
func injectFault(ctx context.Context, opts Options) (Model, error, bool) {
	p := faultHook.Load()
	if p == nil {
		return nil, nil, false
	}
	call := faultSeq.Add(1)
	switch (*p)(opts.Label, call) {
	case FaultLimit:
		return nil, fmt.Errorf("injected fault (call %d, label %q): %w", call, opts.Label, ErrLimit), true
	case FaultPanic:
		panic(fmt.Sprintf("solver: injected fault panic (call %d, label %q)", call, opts.Label))
	case FaultSlow:
		done := ctx.Done()
		if done == nil {
			return nil, fmt.Errorf("injected slow fault with no budget (call %d, label %q): %w", call, opts.Label, ErrLimit), true
		}
		<-done
		return nil, ErrCanceled, true
	}
	return nil, nil, false
}
