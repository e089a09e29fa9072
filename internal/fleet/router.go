package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// HopHeader marks a request already forwarded once by a fleet router.
// A receiving node must serve it locally, never forward again: with
// single-hop routing the only loop a buggy ring could create is
// A→B→A, and the header breaks it at the first re-entry.
const HopHeader = "X-Xdata-Forwarded"

// ErrPeerUnavailable reports that every path to the target peer was
// exhausted — breaker open, retries spent, or the request budget ran
// out. The caller degrades to a local solve.
var ErrPeerUnavailable = errors.New("fleet: peer unavailable")

// maxForwardBytes bounds a relayed peer response body.
const maxForwardBytes = 64 << 20

// maxAttempts bounds forwarding attempts per request, first try
// included: the 1x/4x/16x ladder.
const maxAttempts = 3

// Config tunes a Router. Zero fields select the documented defaults.
type Config struct {
	// Self is this node's advertised address ("host:port"); it names
	// the node on the ring and is stamped into served_by fields.
	Self string
	// Peers are the other fleet members' advertised addresses.
	Peers []string
	// HopTimeout is the base per-hop deadline for the first forwarding
	// attempt; retries escalate it 4x then 16x, always clamped by the
	// request context's remaining budget (0 = 2s).
	HopTimeout time.Duration
	// RetryBudget bounds retries (attempts beyond the first) per
	// request (0 = 2; negative = none). The ladder has three rungs, so
	// a budget above 2 still sends at most 3 attempts.
	RetryBudget int
	// BackoffBase/BackoffCap shape the full-jitter backoff between
	// attempts: sleep = rand(0, min(cap, base<<attempt))
	// (0 = 25ms / 1s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// peer's breaker (0 = 3); BreakerCooldown how long it stays open
	// before the half-open probe (0 = 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// HealthInterval is the /readyz poll period feeding the breakers
	// (0 = 500ms; negative disables polling).
	HealthInterval time.Duration
	// Transport overrides the HTTP transport (tests inject partitions
	// here); nil uses a dedicated default transport.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.HopTimeout <= 0 {
		c.HopTimeout = 2 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	return c
}

// RouterCounters is a snapshot of the router's /statsz counters.
type RouterCounters struct {
	// Forwards counts requests successfully served by a peer.
	Forwards int64 `json:"forwards"`
	// ForwardErrors counts requests for which every path to the owner
	// was exhausted (the caller then degraded to a local solve).
	ForwardErrors int64 `json:"forward_errors"`
	// Retries counts forwarding attempts beyond each request's first.
	Retries int64 `json:"forward_retries"`
	// BreakerOpens counts peer-breaker trips to open; BreakerSkips
	// requests refused locally because a breaker was open.
	BreakerOpens int64 `json:"breaker_opens"`
	BreakerSkips int64 `json:"breaker_skips"`
	// UnhealthyPeers is the current number of peers whose last health
	// poll failed (gauge).
	UnhealthyPeers int64 `json:"unhealthy_peers"`
}

type peerState struct {
	breaker *Breaker
	healthy atomic.Bool
}

// Router forwards requests to their owning node on the consistent-hash
// ring, with the failure handling every cross-node hop needs: per-hop
// deadlines clamped by the request budget, the escalating 1x/4x/16x
// retry ladder with full-jitter backoff under a per-request retry
// budget, and a per-peer circuit breaker fed by both request outcomes
// and a background /readyz health poll. Create with NewRouter, stop
// with Close.
type Router struct {
	cfg    Config
	ring   *Ring
	peers  map[string]*peerState
	client *http.Client

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	forwards, forwardErrors, retries, breakerSkips atomic.Int64
}

// NewRouter validates cfg, builds the ring over Self plus Peers, and
// starts the health poller.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("fleet: router needs a Self address")
	}
	members := append([]string{cfg.Self}, cfg.Peers...)
	ring, err := NewRing(members)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:   cfg,
		ring:  ring,
		peers: make(map[string]*peerState, len(cfg.Peers)),
		stop:  make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			return nil, fmt.Errorf("fleet: peer list contains Self (%s)", p)
		}
		if _, dup := r.peers[p]; dup {
			continue
		}
		ps := &peerState{breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)}
		ps.healthy.Store(true) // optimistic until the first poll says otherwise
		r.peers[p] = ps
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{MaxIdleConnsPerHost: 16}
	}
	r.client = &http.Client{Transport: transport}
	if cfg.HealthInterval > 0 && len(r.peers) > 0 {
		r.wg.Add(1)
		go r.healthLoop()
	}
	return r, nil
}

// Close stops the health poller and tears down idle connections. Safe
// to call more than once.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	r.client.CloseIdleConnections()
}

// Self returns this node's advertised address.
func (r *Router) Self() string { return r.cfg.Self }

// Owner returns the node owning k on the ring.
func (r *Router) Owner(k Key) string { return r.ring.Owner(k) }

// Counters snapshots the router counters.
func (r *Router) Counters() RouterCounters {
	c := RouterCounters{
		Forwards:      r.forwards.Load(),
		ForwardErrors: r.forwardErrors.Load(),
		Retries:       r.retries.Load(),
		BreakerSkips:  r.breakerSkips.Load(),
	}
	for _, ps := range r.peers {
		c.BreakerOpens += ps.breaker.Opens()
		if !ps.healthy.Load() {
			c.UnhealthyPeers++
		}
	}
	return c
}

// retryableStatus reports whether a peer HTTP status should be treated
// as a hop failure: 5xx is a peer fault, 429/503 mean the peer cannot
// take the work now. 2xx and the deterministic 4xx caller errors are
// final answers to relay.
func retryableStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// Forward sends body to node's path (e.g. "/v1/forward") under ctx,
// applying the hop ladder, backoff and breaker. On success it
// returns the peer's status and body (which may be a relayable 4xx).
// On ErrPeerUnavailable the caller must degrade to a local solve; ctx
// errors are returned as-is when the request budget itself expired.
func (r *Router) Forward(ctx context.Context, node, path string, body []byte) (int, []byte, error) {
	ps := r.peers[node]
	if ps == nil {
		return 0, nil, fmt.Errorf("fleet: %s is not a peer of %s", node, r.cfg.Self)
	}
	url := "http://" + node + path
	retryBudget := r.cfg.RetryBudget
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			if retryBudget <= 0 {
				break
			}
			retryBudget--
			r.retries.Add(1)
			if err := r.backoff(ctx, attempt); err != nil {
				return 0, nil, err
			}
		}
		hop := r.cfg.HopTimeout << (2 * attempt) // 1x, 4x, 16x
		if dl, ok := ctx.Deadline(); ok {
			if remaining := time.Until(dl); remaining < hop {
				hop = remaining
			}
		}
		if hop <= 0 {
			return 0, nil, context.DeadlineExceeded
		}
		// The Allow check sits after the budget check so a granted
		// half-open probe slot is always paired with a Success/Failure
		// report below.
		if !ps.breaker.Allow() {
			r.breakerSkips.Add(1)
			lastErr = fmt.Errorf("breaker open for %s", node)
			break
		}
		status, payload, err := r.send(ctx, url, body, hop)
		if err == nil && !retryableStatus(status) {
			ps.breaker.Success()
			ps.healthy.Store(true)
			r.forwards.Add(1)
			return status, payload, nil
		}
		ps.breaker.Failure()
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("peer %s: status %d", node, status)
		}
		if ctx.Err() != nil {
			// The request budget itself is gone; retrying cannot help.
			return 0, nil, ctx.Err()
		}
	}
	r.forwardErrors.Add(1)
	return 0, nil, fmt.Errorf("%w: %v", ErrPeerUnavailable, lastErr)
}

// backoff sleeps the full-jitter interval for the given attempt:
// uniform in (0, min(BackoffCap, BackoffBase<<attempt)]. Full jitter
// decorrelates the retry storms of many clients hitting the same dead
// peer.
func (r *Router) backoff(ctx context.Context, attempt int) error {
	ceiling := r.cfg.BackoffBase << attempt
	if ceiling > r.cfg.BackoffCap {
		ceiling = r.cfg.BackoffCap
	}
	d := time.Duration(rand.Int63n(int64(ceiling))) + 1
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// send performs one ladder attempt: an HTTP POST with the hop header
// set, bounded by the hop deadline.
func (r *Router) send(ctx context.Context, url string, body []byte, hop time.Duration) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, hop)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HopHeader, "1")
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBytes+1))
	if err != nil {
		return 0, nil, err
	}
	if len(payload) > maxForwardBytes {
		return 0, nil, fmt.Errorf("fleet: peer response exceeds %d bytes", maxForwardBytes)
	}
	return resp.StatusCode, payload, nil
}

// healthLoop polls every peer's /readyz on the configured interval.
// The poll respects the breaker: while a breaker is open the peer is
// skipped (no point hammering a dead host); once the cooldown elapses
// the poll itself becomes the half-open probe, so a recovered peer is
// re-closed by the poller without waiting for live traffic to risk a
// request.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.pollPeers()
		}
	}
}

func (r *Router) pollPeers() {
	// Deterministic order keeps logs and tests stable.
	nodes := make([]string, 0, len(r.peers))
	for n := range r.peers {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		select {
		case <-r.stop:
			return
		default:
		}
		ps := r.peers[node]
		if !ps.breaker.Allow() {
			ps.healthy.Store(false)
			continue
		}
		ok := r.probeReady(node)
		if ok {
			ps.breaker.Success()
		} else {
			ps.breaker.Failure()
		}
		ps.healthy.Store(ok)
	}
}

// probeReady reports whether node's /readyz answers 200 within the
// poll budget.
func (r *Router) probeReady(node string) bool {
	budget := r.cfg.HealthInterval
	if budget > time.Second {
		budget = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+node+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
