// Package service implements xdatad, the HTTP/JSON generation daemon:
// POST /v1/generate turns DDL + query + options into a test suite,
// POST /v1/analyze additionally runs the mutation kill matrix, and
// /healthz, /readyz, /statsz expose liveness, drain state, and service
// counters. The server wraps the library pipeline (sqlparser → qtree →
// core → mutation) in the robustness machinery a long-running multi-
// tenant process needs and the library deliberately does not impose:
//
//   - Bounded admission: at most Config.MaxConcurrent requests solve at
//     once (semaphore sized from GOMAXPROCS by default) with a bounded
//     wait queue behind it. Overflow is shed immediately with 429 +
//     Retry-After — never queued forever — so saturation degrades
//     latency for admitted work, not availability.
//   - Server-side budget clamping: client-supplied timeouts and node
//     budgets are clamped onto the operator's hard ceilings before they
//     reach core.Options, so no request can monopolize a worker.
//   - Per-request deadlines: the clamped budget becomes a context
//     deadline flowing into solver.SolveContext; client disconnects
//     cancel the same context.
//   - Resource governance: limits.Limits (byte caps, parse depth,
//     schema cardinality, domain width) reject adversarial inputs with
//     422 before any solver budget is spent.
//   - Fault isolation: kill-goal panics are already confined to
//     Suite.Incomplete entries by core; the handler adds a last-resort
//     recover so even a handler-level panic costs one 500, not the
//     process.
//   - Graceful drain: Drain flips /readyz to 503, lets in-flight
//     requests finish until the drain deadline, then hard-cancels them
//     so they budget-expire and flush partial suites (207).
//
// The HTTP status taxonomy mirrors the xdata CLI's exit codes
// (0 complete, 1 fatal, 2 usage, 3 partial):
//
//	200 complete suite            (CLI exit 0)
//	207 partial suite flushed     (CLI exit 3, ErrPartialSuite)
//	400 malformed request JSON    (HTTP-only)
//	422 caller error: SQL parse, sqlparser.ErrUnsupported,
//	    limits.ErrResourceLimit,
//	    core.ErrBadOptions        (CLI exit 2)
//	429 admission shed, Retry-After set (HTTP-only)
//	500 internal fault            (CLI exit 1)
//	503 draining                  (HTTP-only, /readyz and late arrivals)
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/limits"
)

// Config tunes the daemon. The zero value of any field selects the
// documented default; Normalize applies them.
type Config struct {
	// MaxConcurrent is the number of requests allowed to run the
	// generation pipeline simultaneously (0 = runtime.GOMAXPROCS(0)).
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for an execution slot
	// (0 = 2*MaxConcurrent). A request arriving with the queue full is
	// shed immediately with 429.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot
	// before being shed with 429 (0 = 500ms).
	QueueWait time.Duration
	// MaxTimeout is the hard ceiling on the whole-request budget; the
	// client's timeout_ms is clamped onto it (0 = 30s).
	MaxTimeout time.Duration
	// MaxGoalTimeout caps the client's per-goal timeout
	// (0 = MaxTimeout).
	MaxGoalTimeout time.Duration
	// MaxGoalNodes caps the client's per-goal solver node budget
	// (0 = 1<<22).
	MaxGoalNodes int64
	// Limits govern input resources: byte caps, parser recursion
	// depth, schema cardinality, candidate-domain width. The zero
	// value selects limits.Default(); use limits.Unlimited() only for
	// trusted single-tenant deployments.
	Limits limits.Limits

	// CacheDir, when set, puts a crash-recoverable disk tier
	// (internal/durable) under the suite cache: cached suites, and the
	// invalidation epoch, survive restarts, so a kill -9'd daemon
	// rejoins warm. An unusable directory degrades the server to
	// memory-only with a startup warning (DurableWarning) — never a
	// startup error. Byte cap: Limits.MaxDiskCacheBytes.
	CacheDir string
	// FailureDir, when set, enables failure repro bundles: every
	// abandoned kill goal and recovered handler panic writes a
	// self-contained bundle (schema DDL, query SQL, options, stack)
	// there, replayable with `xdata -replay <bundle>`.
	FailureDir string

	// Advertise is this node's fleet address ("host:port") as peers
	// reach it. It names the node on the consistent-hash ring and is
	// stamped into served_by response fields. Only read by NewFleet;
	// a New server is always standalone.
	Advertise string
	// Peers are the other fleet members' advertised addresses.
	Peers []string
	// Fleet optionally tunes the router (retry ladder, breaker,
	// health-poll interval, transport injection for partition tests).
	// Self and Peers inside it are overwritten from Advertise and Peers
	// above; nil selects the fleet.Config defaults.
	Fleet *fleet.Config
}

// Normalize fills zero fields with their documented defaults and
// returns the result.
func (c Config) Normalize() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 500 * time.Millisecond
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxGoalTimeout <= 0 {
		c.MaxGoalTimeout = c.MaxTimeout
	}
	if c.MaxGoalNodes <= 0 {
		c.MaxGoalNodes = 1 << 22
	}
	if c.Limits == (limits.Limits{}) {
		c.Limits = limits.Default()
	}
	return c
}

// Counters is a point-in-time snapshot of the service counters exposed
// at /statsz. Every field is monotonic over a server's lifetime except
// the gauges draining, in_flight, cache_bytes, cache_entries,
// cache_epoch and unhealthy_peers; durable.Counters marks the disk
// tier's own gauges.
type Counters struct {
	// Received counts requests that reached /v1/generate or
	// /v1/analyze (including those later shed or rejected).
	Received int64 `json:"received"`
	// Admitted counts requests that acquired an execution slot.
	Admitted int64 `json:"admitted"`
	// Shed counts requests rejected 429 by admission control.
	Shed int64 `json:"shed"`
	// Rejected counts caller errors (400/422).
	Rejected int64 `json:"rejected"`
	// Completed counts 200 responses (complete suites).
	Completed int64 `json:"completed"`
	// Partial counts 207 responses (partial suites flushed).
	Partial int64 `json:"partial"`
	// Failed counts 500 responses.
	Failed int64 `json:"failed"`
	// PanicsRecovered counts kill-goal panics isolated into
	// Suite.Incomplete entries plus handler-level panics recovered
	// into 500s.
	PanicsRecovered int64 `json:"panics_recovered"`
	// BudgetExpired counts requests whose clamped whole-request budget
	// expired (deadline exceeded) before the suite completed.
	BudgetExpired int64 `json:"budget_expired"`
	// ClientDisconnects counts requests whose client went away before
	// the response was written.
	ClientDisconnects int64 `json:"client_disconnects"`
	// Drained counts in-flight requests that completed while the
	// server was draining.
	Drained int64 `json:"drained"`
	// Draining reports whether the server is currently draining
	// (mirrors /readyz).
	Draining bool `json:"draining"`
	// InFlight is the number of requests currently holding an
	// execution slot.
	InFlight int64 `json:"in_flight"`
	// Engine aggregates the executor counters of every kill-matrix
	// evaluation served by /v1/analyze: each is the sum of the
	// evaluations' mutation.Report.Exec (plan runs, batches built, join
	// strategies, family-prefix and result-memo cache hits).
	Engine engine.ExecCounts `json:"engine"`
	// DegradedServes counts fleet requests solved locally because every
	// path to the key's owning node was exhausted (breaker open,
	// retries spent): correct answers, reduced cache affinity.
	DegradedServes int64 `json:"degraded_serves"`
	// BundlesWritten/BundleErrors count failure repro bundles captured
	// under Config.FailureDir (goal abandonments and handler panics)
	// and capture attempts that failed. Zero when FailureDir is unset.
	BundlesWritten int64 `json:"bundles_written"`
	BundleErrors   int64 `json:"bundle_errors"`
	// Durable reports the disk cache tier: the literal string
	// "disabled" when no CacheDir is configured or the directory was
	// unusable, else an object with the directory and the durable
	// store's counters.
	Durable DurableStatus `json:"durable"`
	// The embedded fleet counters flatten into /statsz: cache_hits,
	// cache_evictions, ... from the suite cache; forwards,
	// breaker_opens, ... from the router (zero when standalone).
	fleet.CacheCounters
	fleet.RouterCounters
}

// DurableStatus is the /statsz image of the disk tier. It marshals to
// the literal string "disabled" when the tier is off (the satellite
// contract operators probe for), else to {"dir": ..., "counters":
// {...}}; it unmarshals both shapes so a /statsz body decodes back
// into Counters (the service tests decode it).
type DurableStatus struct {
	Enabled  bool
	Dir      string
	Counters durable.Counters
}

// durableStatusJSON is the enabled wire shape.
type durableStatusJSON struct {
	Dir      string           `json:"dir"`
	Counters durable.Counters `json:"counters"`
}

func (d DurableStatus) MarshalJSON() ([]byte, error) {
	if !d.Enabled {
		return []byte(`"disabled"`), nil
	}
	return json.Marshal(durableStatusJSON{Dir: d.Dir, Counters: d.Counters})
}

func (d *DurableStatus) UnmarshalJSON(p []byte) error {
	if string(p) == `"disabled"` || string(p) == "null" {
		*d = DurableStatus{}
		return nil
	}
	var o durableStatusJSON
	if err := json.Unmarshal(p, &o); err != nil {
		return err
	}
	*d = DurableStatus{Enabled: true, Dir: o.Dir, Counters: o.Counters}
	return nil
}

// counters is the live backing for Counters.
type counters struct {
	received, admitted, shed, rejected atomic.Int64
	completed, partial, failed         atomic.Int64
	panics, budgetExpired, disconnects atomic.Int64
	drained, inFlight, degraded        atomic.Int64
	bundles, bundleErrs                atomic.Int64

	engineMu sync.Mutex
	engine   engine.ExecCounts // every kill-matrix evaluation's counts, under engineMu
}

// addEngine folds one evaluation's engine counts into the total.
func (c *counters) addEngine(e engine.ExecCounts) {
	c.engineMu.Lock()
	c.engine.Add(e)
	c.engineMu.Unlock()
}

// engineTotal returns the engine counts of every evaluation so far.
func (c *counters) engineTotal() engine.ExecCounts {
	c.engineMu.Lock()
	defer c.engineMu.Unlock()
	return c.engine
}

// Server is the xdatad HTTP service. Create with New, mount via
// Handler, stop via Drain.
type Server struct {
	cfg Config
	mux *http.ServeMux

	sem    chan struct{} // execution slots; len == in-flight
	queued atomic.Int64  // requests waiting behind the semaphore

	// drainMu orders request registration against Drain: beginRequest
	// holds the read lock across {draining check, inflight.Add}, Drain
	// sets draining under the write lock, so no request can slip into
	// the WaitGroup after Drain starts waiting (the documented
	// Add-from-zero-concurrent-with-Wait misuse).
	drainMu  sync.RWMutex
	draining atomic.Bool
	inflight sync.WaitGroup

	// hardCtx is cancelled by Drain once the drain deadline passes:
	// every in-flight request context is linked to it, so cancellation
	// budget-expires the remaining goals and the handlers flush 207s.
	hardCtx    context.Context
	hardCancel context.CancelFunc

	// cache is the cross-request suite cache (always present; its byte
	// cap comes from Config.Limits.MaxCacheBytes). router is non-nil
	// only on fleet-mode servers built with NewFleet.
	cache  *fleet.SuiteCache
	router *fleet.Router

	// store is the disk tier under cache; nil when Config.CacheDir is
	// unset or the directory was unusable (durableWarn records why —
	// the server degrades to memory-only, it never refuses to start).
	store       *durable.Store
	durableWarn string

	ctr counters
}

// New builds a standalone Server from cfg (normalized copy; cfg is not
// retained). Standalone servers still run the suite cache and serve
// /v1/forward (as a plain local generate) and /admin/epoch.
func New(cfg Config) *Server {
	cfg = cfg.Normalize()
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		cache: fleet.NewSuiteCache(int64(cfg.Limits.MaxCacheBytes)),
	}
	if cfg.CacheDir != "" {
		store, err := durable.Open(cfg.CacheDir, durable.Options{MaxBytes: cfg.Limits.MaxDiskCacheBytes})
		if err != nil {
			// Degrade, don't die: a bad -cache-dir costs warmth, not
			// availability. The warning surfaces once at startup
			// (cmd/xdatad logs DurableWarning) and /statsz reports
			// durable: "disabled".
			s.durableWarn = fmt.Sprintf("disk cache disabled, running memory-only: %v", err)
		} else {
			s.store = store
			s.cache.AttachDurable(store)
		}
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	s.mux.HandleFunc("POST /v1/forward", s.handleForward)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /admin/epoch", s.handleEpoch)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	return s
}

// NewFleet builds a fleet-mode Server: New plus a router over
// cfg.Advertise and cfg.Peers. Generate requests whose content key is
// owned by a peer are forwarded there; peer failures degrade to a
// local solve. The caller must Close the server when done with it (in
// addition to Drain) to stop the router's health poller.
func NewFleet(cfg Config) (*Server, error) {
	s := New(cfg)
	fc := fleet.Config{}
	if s.cfg.Fleet != nil {
		fc = *s.cfg.Fleet
	}
	fc.Self = s.cfg.Advertise
	fc.Peers = s.cfg.Peers
	router, err := fleet.NewRouter(fc)
	if err != nil {
		return nil, err
	}
	s.router = router
	return s, nil
}

// Close releases background resources (the fleet router's health
// poller and idle connections). It does not drain; call Drain first
// for a graceful stop. Safe on standalone servers and safe to call
// more than once.
func (s *Server) Close() {
	if s.router != nil {
		s.router.Close()
	}
	if s.store != nil {
		// Crash-only: this releases file descriptors, it flushes nothing
		// recovery needs. kill -9 instead of Close loses no promises.
		s.store.Close()
	}
}

// DurableWarning returns the startup degradation message when a
// configured CacheDir could not be used ("" when the disk tier is
// running or was never requested). cmd/xdatad logs it once at startup.
func (s *Server) DurableWarning() string { return s.durableWarn }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Config returns the normalized configuration the server runs with.
func (s *Server) Config() Config { return s.cfg }

// Counters snapshots the service counters.
func (s *Server) Counters() Counters {
	c := Counters{
		Received:          s.ctr.received.Load(),
		Admitted:          s.ctr.admitted.Load(),
		Shed:              s.ctr.shed.Load(),
		Rejected:          s.ctr.rejected.Load(),
		Completed:         s.ctr.completed.Load(),
		Partial:           s.ctr.partial.Load(),
		Failed:            s.ctr.failed.Load(),
		PanicsRecovered:   s.ctr.panics.Load(),
		BudgetExpired:     s.ctr.budgetExpired.Load(),
		ClientDisconnects: s.ctr.disconnects.Load(),
		Drained:           s.ctr.drained.Load(),
		Draining:          s.draining.Load(),
		InFlight:          s.ctr.inFlight.Load(),
		Engine:            s.ctr.engineTotal(),
		DegradedServes:    s.ctr.degraded.Load(),
		BundlesWritten:    s.ctr.bundles.Load(),
		BundleErrors:      s.ctr.bundleErrs.Load(),
	}
	c.CacheCounters = s.cache.Counters()
	if s.router != nil {
		c.RouterCounters = s.router.Counters()
	}
	if s.store != nil {
		dc := s.store.Counters()
		// cache_corrupt_drops is the whole tiered cache's corruption
		// tally: the memory share is folded in by the fleet cache, the
		// disk share comes from the store.
		c.CacheCounters.CorruptDrops += dc.CorruptDrops
		c.Durable = DurableStatus{Enabled: true, Dir: s.store.Dir(), Counters: dc}
	}
	return c
}

// errShed is returned by admit when the request must be rejected 429.
var errShed = fmt.Errorf("service: overloaded, request shed")

// errDraining is returned by admit when the drain hard-deadline fires
// while the request is still queued: the request is shed with 503 +
// Retry-After, never silently dropped.
var errDraining = fmt.Errorf("service: draining, not accepting new work")

// beginRequest registers the request with the drain machinery: it
// refuses (false) when the server is draining, otherwise adds the
// request to the in-flight WaitGroup. The read lock makes the
// check-and-add atomic with respect to Drain. Every true return must
// be paired with exactly one inflight.Done.
func (s *Server) beginRequest() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// admit acquires an execution slot. The fast path is non-blocking; if
// every slot is busy the request joins the bounded wait queue and
// blocks up to Config.QueueWait. A full queue or an expired wait sheds
// the request immediately (errShed → 429 + Retry-After); a cancelled
// ctx returns its error. The returned release function must be called
// exactly once after the request finishes.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	release = func() {
		s.ctr.inFlight.Add(-1)
		<-s.sem
	}
	// Fast path: a slot is free right now.
	select {
	case s.sem <- struct{}{}:
		s.ctr.admitted.Add(1)
		s.ctr.inFlight.Add(1)
		return release, nil
	default:
	}
	// Bounded queue: shed instead of waiting when it is full. The
	// acceptance bar is an immediate 429 (well under 100ms) at
	// saturation — no unbounded queueing.
	if n := s.queued.Add(1); n > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.ctr.shed.Add(1)
		return nil, errShed
	}
	defer s.queued.Add(-1)
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		s.ctr.admitted.Add(1)
		s.ctr.inFlight.Add(1)
		return release, nil
	case <-timer.C:
		s.ctr.shed.Add(1)
		return nil, errShed
	case <-s.hardCtx.Done():
		// The drain hard-deadline fired while this request was queued.
		// In-flight solvers are being cancelled; a request that never
		// got a slot gets an explicit 503, not silence: queued work is
		// always answered, either by completing or by this shed.
		return nil, errDraining
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// requestContext derives the per-request context: the clamped whole-
// request budget becomes a deadline on top of the client's own request
// context (so disconnects cancel it), and the server's drain hard-
// cancel is linked in via context.AfterFunc. The returned cancel
// releases everything and must be deferred.
func (s *Server) requestContext(r *http.Request, budget time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	stop := context.AfterFunc(s.hardCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// retryAfterSeconds is the Retry-After hint attached to 429/503
// responses: the queue wait rounded up to a whole second, plus uniform
// jitter of up to the same amount (value in [base, 2*base]). Without
// the jitter every client shed by the same overload retries on the
// same deterministic tick and re-creates the thundering herd the shed
// was protecting against.
func (s *Server) retryAfterSeconds() string {
	base := int(s.cfg.QueueWait / time.Second)
	if s.cfg.QueueWait%time.Second != 0 || base == 0 {
		base++
	}
	return strconv.Itoa(base + rand.Intn(base+1))
}

// Drain gracefully shuts the service down: new generate/analyze
// requests are refused with 503 (and /readyz flips to 503 so load
// balancers stop routing), in-flight requests run to completion, and
// when ctx expires first the remaining requests are hard-cancelled so
// they budget-expire and flush partial suites. Drain returns once
// every in-flight request has finished; the returned error is ctx's
// error when the hard-cancel path was taken, nil on a clean drain.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.hardCancel()
		<-done // bounded: every request context is now cancelled
		return ctx.Err()
	}
}
