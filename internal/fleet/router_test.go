package fleet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// startPeer runs an httptest server and returns (node address, server).
func startPeer(t *testing.T, handler http.Handler) (string, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return ts.Listener.Addr().String(), ts
}

// newTestRouter builds a router with polling disabled and fast knobs
// unless overridden.
func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.Self == "" {
		cfg.Self = "self:0"
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1 // most tests drive the breaker directly
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = time.Millisecond
	}
	if cfg.BackoffCap == 0 {
		cfg.BackoffCap = 5 * time.Millisecond
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// TestRouterForwardSuccess: a healthy peer's answer is relayed with
// its status, the hop header is set, and the forward is counted.
func TestRouterForwardSuccess(t *testing.T) {
	var sawHop atomic.Bool
	node, _ := startPeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawHop.Store(r.Header.Get(HopHeader) != "")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"ok":true}`)
	}))
	r := newTestRouter(t, Config{Peers: []string{node}})
	status, payload, err := r.Forward(context.Background(), node, "/v1/forward", []byte(`{}`))
	if err != nil || status != http.StatusOK || string(payload) != `{"ok":true}` {
		t.Fatalf("Forward: %d %q %v", status, payload, err)
	}
	if !sawHop.Load() {
		t.Fatal("forwarded request must carry the hop header")
	}
	if c := r.Counters(); c.Forwards != 1 || c.ForwardErrors != 0 {
		t.Fatalf("counters %+v", c)
	}
}

// TestRouterRetryLadder: transient 5xx answers are retried on the
// escalating ladder under the retry budget, and the eventual success
// is relayed.
func TestRouterRetryLadder(t *testing.T) {
	var calls atomic.Int64
	node, _ := startPeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		io.WriteString(w, "ok")
	}))
	r := newTestRouter(t, Config{Peers: []string{node}, BreakerThreshold: 10})
	status, payload, err := r.Forward(context.Background(), node, "/x", nil)
	if err != nil || status != http.StatusOK || string(payload) != "ok" {
		t.Fatalf("Forward after transient failures: %d %q %v", status, payload, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("peer saw %d calls, want 3 (1 + 2 retries)", calls.Load())
	}
	if c := r.Counters(); c.Retries != 2 {
		t.Fatalf("counters %+v, want 2 retries", c)
	}
}

// TestRouterRetryBudgetExhausted: a persistently failing peer yields
// ErrPeerUnavailable once the retry budget or the three-rung ladder is
// spent, whichever is smaller; deterministic 4xx answers are final and
// never retried.
func TestRouterRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	node, _ := startPeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	for _, tc := range []struct {
		budget int
		want   int64
	}{
		{budget: 1, want: 2}, // the budget binds
		{budget: 5, want: 3}, // the ladder binds
	} {
		calls.Store(0)
		r := newTestRouter(t, Config{Peers: []string{node}, BreakerThreshold: 10, RetryBudget: tc.budget})
		_, _, err := r.Forward(context.Background(), node, "/x", nil)
		if !errors.Is(err, ErrPeerUnavailable) {
			t.Fatalf("retry budget %d: err %v, want ErrPeerUnavailable", tc.budget, err)
		}
		if calls.Load() != tc.want {
			t.Fatalf("retry budget %d: peer saw %d calls, want %d", tc.budget, calls.Load(), tc.want)
		}
	}

	var calls4xx atomic.Int64
	node4, _ := startPeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls4xx.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
	}))
	r2 := newTestRouter(t, Config{Peers: []string{node4}})
	status, _, err := r2.Forward(context.Background(), node4, "/x", nil)
	if err != nil || status != http.StatusUnprocessableEntity {
		t.Fatalf("4xx must relay: %d %v", status, err)
	}
	if calls4xx.Load() != 1 {
		t.Fatalf("4xx retried: %d calls", calls4xx.Load())
	}
}

// TestRouterBreakerOpensAndSkips: consecutive failures trip the
// peer's breaker; subsequent forwards are refused locally (fast)
// instead of re-probing the dead peer.
func TestRouterBreakerOpensAndSkips(t *testing.T) {
	node, ts := startPeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	ts.Close() // connection refused: the hard failure mode
	r := newTestRouter(t, Config{
		Peers:            []string{node},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		RetryBudget:      -1, // isolate breaker behavior from retries
	})
	for i := 0; i < 2; i++ {
		if _, _, err := r.Forward(context.Background(), node, "/x", nil); !errors.Is(err, ErrPeerUnavailable) {
			t.Fatalf("dead peer forward %d: %v", i, err)
		}
	}
	start := time.Now()
	_, _, err := r.Forward(context.Background(), node, "/x", nil)
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("open-breaker forward: %v", err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("open breaker must refuse immediately, took %v", el)
	}
	c := r.Counters()
	if c.BreakerOpens == 0 || c.BreakerSkips == 0 {
		t.Fatalf("counters %+v, want opens and skips recorded", c)
	}
}

// TestRouterSlowOwnerSingleRequest: under the production Config a
// forward that answers well inside its hop deadline is sent once, even
// after a run of fast forwards has set a latency baseline; the slow
// answer is relayed, not raced by a second request to the same owner.
func TestRouterSlowOwnerSingleRequest(t *testing.T) {
	const fast = 8
	var calls atomic.Int64
	node, _ := startPeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) != fast+1 {
			io.WriteString(w, "fast")
			return
		}
		select {
		case <-time.After(150 * time.Millisecond):
			io.WriteString(w, "slow")
		case <-r.Context().Done():
		}
	}))
	r, err := NewRouter(Config{Self: "self:0", Peers: []string{node}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	for i := 0; i < fast; i++ {
		if _, payload, err := r.Forward(context.Background(), node, "/x", nil); err != nil || string(payload) != "fast" {
			t.Fatalf("fast forward %d: %q %v", i, payload, err)
		}
	}
	status, payload, err := r.Forward(context.Background(), node, "/x", nil)
	if err != nil || status != http.StatusOK || string(payload) != "slow" {
		t.Fatalf("slow forward: %d %q %v, want the slow owner's answer", status, payload, err)
	}
	if got := calls.Load(); got != fast+1 {
		t.Fatalf("peer saw %d requests for %d forwards", got, fast+1)
	}
}

// TestRouterBudgetDeadline: the per-hop deadline is clamped by the
// request budget — a hung peer cannot hold a forward past the
// caller's context, and the budget error is surfaced (the service
// then degrades or budget-expires, it does not retry a dead budget).
func TestRouterBudgetDeadline(t *testing.T) {
	node, _ := startPeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	r := newTestRouter(t, Config{Peers: []string{node}, HopTimeout: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := r.Forward(ctx, node, "/x", nil)
	if err == nil {
		t.Fatal("hung peer under a tiny budget must fail")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("budget-bounded forward took %v", el)
	}
}

// TestRouterHealthPollRecovery: the background /readyz poll trips the
// breaker while a peer is down and re-closes it (via the half-open
// probe) once the peer recovers, without any live traffic risked.
func TestRouterHealthPollRecovery(t *testing.T) {
	before := testutil.GoroutineSnapshot()
	var ready atomic.Bool
	node, _ := startPeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok")
	}))
	r, err := NewRouter(Config{
		Self:             "self:0",
		Peers:            []string{node},
		HealthInterval:   20 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(func() bool { return r.Counters().BreakerOpens >= 1 }, "poll-driven breaker trip")
	if c := r.Counters(); c.UnhealthyPeers != 1 {
		t.Fatalf("counters %+v, want 1 unhealthy peer", c)
	}
	ready.Store(true)
	waitFor(func() bool { return r.Counters().UnhealthyPeers == 0 }, "poll-driven recovery")
	status, payload, err := r.Forward(context.Background(), node, "/x", nil)
	if err != nil || status != http.StatusOK || string(payload) != "ok" {
		t.Fatalf("forward after recovery: %d %q %v", status, payload, err)
	}
	r.Close()
	testutil.RequireNoGoroutineLeak(t, before, 1)
}

// TestRouterRejectsBadConfig: missing Self and self-in-peers are
// configuration errors.
func TestRouterRejectsBadConfig(t *testing.T) {
	if _, err := NewRouter(Config{Peers: []string{"a:1"}}); err == nil {
		t.Fatal("missing Self must be rejected")
	}
	if _, err := NewRouter(Config{Self: "a:1", Peers: []string{"a:1"}}); err == nil {
		t.Fatal("Self in Peers must be rejected")
	}
}
