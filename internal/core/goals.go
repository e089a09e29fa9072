// Kill-goal pipeline: Algorithm 1 as a two-phase enumerate/solve system.
//
// Phase 1 (enumeration) walks the query structure and collects one
// killGoal per independent dataset target: the original-query dataset,
// one nullification per equivalence-class element (Algorithm 2), one per
// (non-equi predicate, occurrence) pair (Algorithm 3), one per
// (predicate, comparison-operator variant) (§V-E), and one per aggregate
// call (Algorithm 4, including its internal relaxation ladder). Phase 2
// solves them one after another on the calling goroutine, in
// enumeration order, with a fresh problem/solver per goal over the
// generator's warm caches.
//
// Phase 2 is budgeted, cancellable and fault-isolated (see
// Generator.GenerateContext): each goal runs under a per-goal context
// (Options.GoalTimeout), with an escalating node-limit retry ladder
// (Options.GoalNodeLimit: 1x, 4x, 16x, in either solve mode) and a
// per-goal recover() that converts panics into *GoalError values.
// Abandoned goals become Suite.Incomplete entries instead of failing
// the run.
//
// Determinism: each goal writes into its own private Suite, merged in
// goal-enumeration order, and the constraint solver is deterministic
// per problem (fixed restart seed, no wall-clock heuristics), so
// Datasets, Skipped, Incomplete and all integer Stats counters are
// byte-identical between runs. The wall-clock budget (GoalTimeout) and
// cancellation trade this determinism for boundedness, as documented
// on the options; the timing fields (Stats.SolveTime, Stats.TotalTime)
// always vary.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/solver"
)

// killGoal is one independently-solvable dataset target.
type killGoal struct {
	// purpose renders the goal's diagnostic label (the generated
	// dataset's own purpose string is produced by run). Only abandoned
	// goals show it (Failure.Purpose, GoalError.Purpose), so it is
	// rendered then, not at enumeration.
	purpose func() string
	// run solves the goal, appending datasets, skips and stats to the
	// private sub-suite. It must not touch shared mutable state.
	run func(g *Generator, gb *goalBudget, sub *Suite) error
}

// goalBudget threads one attempt's runtime budget — the cancellation
// context plus the attempt's solver node limit — from runGoal down to
// problem.solve, without mutating the Generator's options.
type goalBudget struct {
	ctx context.Context
	// nodeLimit, when positive, bounds solver search nodes per solve
	// call of this attempt (0 = the solver's default).
	nodeLimit int64
}

// enumerateGoals collects the full kill-goal list in the canonical
// (sequential Algorithm 1) order: original dataset, equivalence-class
// nullifications, non-equi predicate nullifications, comparison-operator
// variants, aggregate mutations.
func (g *Generator) enumerateGoals() []killGoal {
	goals := []killGoal{{
		purpose: func() string { return "original-query dataset" },
		run: func(g *Generator, gb *goalBudget, sub *Suite) error {
			ds, err := g.generateOriginal(gb, sub)
			if err != nil {
				return err
			}
			sub.Original = ds
			return nil
		},
	}}
	goals = append(goals, g.equivalenceClassGoals()...)
	goals = append(goals, g.otherPredicateGoals()...)
	goals = append(goals, g.comparisonOperatorGoals()...)
	goals = append(goals, g.aggregateGoals()...)
	goals = append(goals, g.subqueryGoals()...)
	goals = append(goals, g.havingGoals()...)
	goals = append(goals, g.likeGoals()...)
	return goals
}

// goalAttempts builds the retry ladder from the generator options: the
// node limit of each rung, 1x, 4x and 16x the per-goal node budget, all
// in the generator's solve mode. With no per-goal node budget there is a
// single attempt under the solver's default node limit (0).
func (g *Generator) goalAttempts() []int64 {
	l := g.opts.GoalNodeLimit
	if l <= 0 {
		return []int64{0}
	}
	return []int64{l, 4 * l, 16 * l}
}

// runGoal executes one kill goal under the robustness envelope:
// per-goal timeout, escalating node-limit retries, and panic recovery.
// It returns the goal's sub-suite — which, for an abandoned goal, holds
// exactly one Incomplete entry plus the stats of the failed attempts —
// and a non-nil error only for hard (fatal) failures.
func (g *Generator) runGoal(ctx context.Context, goal killGoal) (*Suite, error) {
	gctx := ctx
	if g.opts.GoalTimeout > 0 {
		var cancel context.CancelFunc
		gctx, cancel = context.WithTimeout(ctx, g.opts.GoalTimeout)
		defer cancel()
	}
	attempts := g.goalAttempts()
	start := time.Now()
	var acc Stats // stats of failed attempts, folded into the result
	var lastErr error
	made := 0
	for ai, nodeLimit := range attempts {
		made = ai + 1
		sub := &Suite{}
		err := g.runGoalAttempt(gctx, nodeLimit, goal, sub)
		if err == nil {
			sub.Stats = addStats(acc, sub.Stats)
			// Absolute, not +=: acc already carries the running count from
			// the failed attempts.
			sub.Stats.RetryCount = made - 1
			return sub, nil
		}
		acc = addStats(acc, sub.Stats)
		acc.RetryCount = made - 1
		lastErr = err

		var gerr *GoalError
		switch {
		case errors.As(err, &gerr):
			// Panics are assumed deterministic: isolate, don't retry.
			acc.PanicCount++
			return g.abandonGoal(goal, ReasonPanic, made, start, acc, err), nil
		case errors.Is(err, solver.ErrCanceled):
			if ctx.Err() != nil {
				// The caller's context (not the per-goal deadline) is
				// done: the whole run is being canceled.
				return g.abandonGoal(goal, ReasonCanceled, made, start, acc, err), nil
			}
			// Per-goal deadline expired: a budget, not a cancellation.
			acc.LimitCount++
			return g.abandonGoal(goal, ReasonBudget, made, start, acc, err), nil
		case errors.Is(err, solver.ErrLimit):
			if ai+1 < len(attempts) && gctx.Err() == nil {
				continue // escalate and retry
			}
			acc.LimitCount++
			return g.abandonGoal(goal, ReasonBudget, made, start, acc, err), nil
		default:
			return nil, err // hard error: fatal
		}
	}
	// Unreachable: every ladder exit returns above.
	return nil, fmt.Errorf("core: goal %q: %w", goal.purpose(), lastErr)
}

// abandonGoal builds the sub-suite recording an abandoned goal and
// fires Options.FailureHook with the failure, so capture sinks (the
// daemon's and CLI's repro-bundle writers) see the evidence the moment
// it exists — not only if the caller inspects Suite.Incomplete later.
func (g *Generator) abandonGoal(goal killGoal, reason string, attempts int, start time.Time, acc Stats, err error) *Suite {
	f := Failure{
		Purpose:  goal.purpose(),
		Reason:   reason,
		Attempts: attempts,
		Nodes:    acc.SolverNodes,
		Elapsed:  time.Since(start),
		Err:      err,
	}
	if g.opts.FailureHook != nil {
		g.opts.FailureHook(f)
	}
	return &Suite{
		Stats:      acc,
		Incomplete: []Failure{f},
	}
}

// runGoalAttempt runs one attempt of a goal with panic isolation: a
// panic anywhere in constraint generation, solving or extraction is
// recovered into a *GoalError carrying the goal's purpose and the
// panicking stack.
func (g *Generator) runGoalAttempt(ctx context.Context, nodeLimit int64, goal killGoal, sub *Suite) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &GoalError{Purpose: goal.purpose(), Value: r, Stack: debug.Stack()}
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("%w: %w", solver.ErrCanceled, cerr)
	}
	gb := &goalBudget{ctx: ctx, nodeLimit: nodeLimit}
	return goal.run(g, gb, sub)
}

// runGoals solves the goals on the calling goroutine, in enumeration
// order, and returns their sub-suites in that order. Budget exhaustion,
// panics and cancellation are absorbed into the sub-suites (see
// runGoal); the first hard error stops the run and is returned.
func (g *Generator) runGoals(ctx context.Context, goals []killGoal) ([]*Suite, error) {
	subs := make([]*Suite, len(goals))
	for i, goal := range goals {
		sub, err := g.runGoal(ctx, goal)
		if err != nil {
			return nil, err
		}
		subs[i] = sub
	}
	return subs, nil
}

// addStats sums two stats records field-by-field (timing included; the
// timing fields are additive across attempts of one goal).
func addStats(a, b Stats) Stats {
	return Stats{
		SolverCalls:       a.SolverCalls + b.SolverCalls,
		SatCount:          a.SatCount + b.SatCount,
		UnsatCount:        a.UnsatCount + b.UnsatCount,
		SolveTime:         a.SolveTime + b.SolveTime,
		TotalTime:         a.TotalTime + b.TotalTime,
		SolverNodes:       a.SolverNodes + b.SolverNodes,
		SolverRestarts:    a.SolverRestarts + b.SolverRestarts,
		SolverProblemSize: a.SolverProblemSize + b.SolverProblemSize,
		LimitCount:        a.LimitCount + b.LimitCount,
		RetryCount:        a.RetryCount + b.RetryCount,
		PanicCount:        a.PanicCount + b.PanicCount,

		ComponentCount:       a.ComponentCount + b.ComponentCount,
		ComponentCacheHits:   a.ComponentCacheHits + b.ComponentCacheHits,
		BasePropagationNodes: a.BasePropagationNodes + b.BasePropagationNodes,
	}
}

// mergeInto folds a per-goal sub-suite into the final suite. Called in
// goal-enumeration order, it reproduces the sequential append order
// exactly; Incomplete entries inherit the same deterministic order.
func mergeInto(dst, src *Suite) {
	if src == nil {
		return
	}
	if src.Original != nil {
		dst.Original = src.Original
	}
	dst.Datasets = append(dst.Datasets, src.Datasets...)
	dst.Skipped = append(dst.Skipped, src.Skipped...)
	dst.Incomplete = append(dst.Incomplete, src.Incomplete...)
	total := dst.Stats.TotalTime // preserved: set once by GenerateContext
	dst.Stats = addStats(dst.Stats, src.Stats)
	dst.Stats.TotalTime = total
}
