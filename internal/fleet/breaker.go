package fleet

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: requests flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are refused until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: exactly one probe request is allowed through;
	// its outcome decides between Closed and Open.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "invalid"
}

// Breaker is a per-peer circuit breaker with the classic three-state
// machine. Closed counts consecutive failures and trips open at the
// threshold; Open refuses every request (so a dead peer costs a map
// lookup, not a connect timeout) until the cooldown elapses; the first
// Allow after the cooldown transitions to HalfOpen and admits exactly
// one probe, whose Success re-closes the breaker and whose Failure
// re-opens it for another cooldown. All methods are safe for
// concurrent use.
type Breaker struct {
	mu        sync.Mutex
	state     BreakerState
	failures  int       // consecutive failures while closed
	openedAt  time.Time // when the breaker last tripped
	probing   bool      // a half-open probe is in flight
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	opens int64 // cumulative closed/half-open → open transitions
}

// NewBreaker builds a breaker tripping after threshold consecutive
// failures and holding open for cooldown. Callers pass positive
// values: the router passes its Config's after withDefaults.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may be sent. In HalfOpen it grants
// the single probe slot; callers that receive true MUST report the
// outcome via Success or Failure, or the probe slot leaks until the
// next cooldown.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Success records a successful request: it resets the failure run and
// re-closes a half-open breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	b.state = BreakerClosed
}

// Failure records a failed request: in Closed it counts toward the
// threshold and trips the breaker when reached; in HalfOpen the failed
// probe re-opens for another cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.probing = false
		b.trip()
	case BreakerOpen:
		// A straggler from before the trip; nothing to update.
	}
}

// trip moves to Open; callers hold b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.opens++
}

// State returns the breaker's current position (Open is reported even
// when the cooldown has elapsed; the transition to HalfOpen happens on
// the next Allow).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns the cumulative number of trips to Open.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
