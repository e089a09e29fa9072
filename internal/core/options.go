package core

import (
	"errors"
	"fmt"

	"repro/internal/limits"
)

// ErrBadOptions is the sentinel wrapped by every Options validation
// failure: a nonsensical (negative) budget, worker count, or ceiling,
// or an inconsistent combination. Test with errors.Is. Bad options are
// caller errors — the generation never starts, no partial suite is
// returned.
var ErrBadOptions = errors.New("core: bad options")

// badOption builds a field-specific validation error wrapping
// ErrBadOptions.
func badOption(field string, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrBadOptions, field, fmt.Sprintf(format, args...))
}

// Validate checks an Options value for nonsensical settings. Zero
// values are always valid (they select the documented defaults:
// Parallelism 0 = all CPUs, budgets 0 = unlimited, FreshValues 0 = 8,
// MaxDomainSize 0 = uncapped); negatives — which the pre-validation
// code silently coerced into one of those defaults, hiding caller bugs
// — are rejected with a typed ErrBadOptions. Generate and
// GenerateContext call Validate before doing any work.
func (o Options) Validate() error {
	if o.Parallelism < 0 {
		return badOption("Parallelism", "negative worker count %d (0 selects all CPUs)", o.Parallelism)
	}
	if o.GoalTimeout < 0 {
		return badOption("GoalTimeout", "negative timeout %v (0 means unlimited)", o.GoalTimeout)
	}
	if o.GoalNodeLimit < 0 {
		return badOption("GoalNodeLimit", "negative node budget %d (0 means unlimited)", o.GoalNodeLimit)
	}
	if o.FreshValues < 0 {
		return badOption("FreshValues", "negative fresh-value count %d (0 selects the default of 8)", o.FreshValues)
	}
	if o.MaxDomainSize < 0 {
		return badOption("MaxDomainSize", "negative domain ceiling %d (0 means uncapped)", o.MaxDomainSize)
	}
	if o.ForceInputTuples && o.InputDB == nil {
		return badOption("ForceInputTuples", "set without an InputDB to force tuples from")
	}
	return nil
}

// checkDomainCeiling enforces Options.MaxDomainSize against the
// generator's built candidate pools: the integer pool plus the string
// pool bound every per-attribute candidate domain, and solver work
// grows superlinearly in their width. Oversized pools — driven by
// adversarial constant sets or huge input databases — are rejected
// with a typed limits.ErrResourceLimit before any solving starts. A
// FreshValues over the ceiling is rejected first: the integer pool
// holds at least that many values, and NewGenerator skips building
// pools it could only reject.
func (g *Generator) checkDomainCeiling() error {
	max := g.opts.MaxDomainSize
	if max <= 0 {
		return nil
	}
	if n := g.opts.FreshValues; n > max {
		return fmt.Errorf("core: %w", limits.Exceeded("candidate domain size (fresh values)", n, max))
	}
	if n := len(g.intPool); n > max {
		return fmt.Errorf("core: %w", limits.Exceeded("candidate domain size (integer pool)", n, max))
	}
	if n := g.strPool.size(); n > max {
		return fmt.Errorf("core: %w", limits.Exceeded("candidate domain size (string pool)", n, max))
	}
	return nil
}
