package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/limits"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/sqlparser"
)

// maxBodyBytes bounds request bodies before JSON decoding; the DDL and
// query inside are additionally capped by Config.Limits.MaxInputBytes.
const maxBodyBytes = 8 << 20

// writeJSON writes body with the given status: a []byte is marshaled
// JSON already (a cached, solved or relayed generate body) and goes out
// as is, anything else is encoded straight into the response. Write errors at this
// point mean the client went away; they are counted, not retried.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	var err error
	if p, ok := body.([]byte); ok {
		_, err = w.Write(p)
	} else {
		err = json.NewEncoder(w).Encode(body)
	}
	if err != nil {
		s.ctr.disconnects.Add(1)
	}
}

// writeError writes the ErrorResponse body of a request answered with
// an error status (see the package comment's taxonomy), booking it
// like every other response through writeBody.
func (s *Server) writeError(w http.ResponseWriter, status int, kind string, err error) {
	s.writeBody(w, status, ErrorResponse{Kind: kind, Error: err.Error()})
}

// classify maps a generation-pipeline error to its status and
// ErrorResponse. It mirrors the CLI's exit-code taxonomy: caller errors
// (bad SQL, resource limits, bad options) are 422, everything
// unexpected is 500.
func classify(err error) (int, ErrorResponse) {
	status, kind := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, limits.ErrResourceLimit):
		status, kind = http.StatusUnprocessableEntity, "resource-limit"
	case errors.Is(err, core.ErrBadOptions):
		status, kind = http.StatusUnprocessableEntity, "bad-options"
	}
	return status, ErrorResponse{Kind: kind, Error: err.Error()}
}

// admitOrReject is serve's first step: drain refusal (via
// beginRequest, which also registers the request with the drain
// WaitGroup) followed by admission control. On ok the caller must
// defer both s.inflight.Done and s.finish(w, release), in that order,
// so the finish recover fires before the Done.
func (s *Server) admitOrReject(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	s.ctr.received.Add(1)
	if !s.beginRequest() {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		s.writeError(w, http.StatusServiceUnavailable, "draining", errDraining)
		return nil, false
	}
	release, err := s.admit(r.Context())
	if err != nil {
		s.inflight.Done()
		switch {
		case errors.Is(err, errShed):
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			s.writeError(w, http.StatusTooManyRequests, "shed", err)
		case errors.Is(err, errDraining):
			// The drain hard-deadline fired while this request was
			// queued: answer it explicitly instead of dropping it.
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			s.writeError(w, http.StatusServiceUnavailable, "draining", err)
		default: // client went away while queued
			s.ctr.disconnects.Add(1)
			s.writeError(w, http.StatusRequestTimeout, "disconnected", err)
		}
		return nil, false
	}
	return release, true
}

// bundleScope carries the parsed request through a handler so the
// finish recover can write a failure repro bundle for a handler-level
// panic. Handlers fill it right after prepare/clamp succeed; before
// that point there is nothing reproducible to capture.
type bundleScope struct {
	sch  *schema.Schema
	q    *qtree.Query
	opts core.Options
	set  bool
}

// finish runs the shared request postamble under defer: slot release,
// drain accounting, and last-resort panic recovery (one crashing
// handler costs one 500, never the process). The caller defers
// inflight.Done separately, registered before finish so it runs after
// the recover. bs may be nil for handlers that never carry a
// reproducible request.
func (s *Server) finish(w http.ResponseWriter, release func(), bs *bundleScope) {
	if v := recover(); v != nil {
		stack := debug.Stack()
		s.ctr.panics.Add(1)
		if s.cfg.FailureDir != "" && bs != nil && bs.set {
			s.captureBundle(bs.sch, bs.q, bs.opts, durable.BundleEvent{
				Kind:  "handler",
				Err:   fmt.Sprint(v),
				Stack: string(stack),
			})
		}
		s.writeError(w, http.StatusInternalServerError, "internal",
			fmt.Errorf("service: handler panicked: %v\n%s", v, stack))
	}
	if s.draining.Load() {
		s.ctr.drained.Add(1)
	}
	release()
}

// withFailureHook arms opts with repro-bundle capture when FailureDir
// is configured: every goal the generator abandons (panic, budget,
// cancellation) writes a bundle as it happens, so the evidence exists
// even if the process dies before the response does. The hook captures
// the un-hooked options copy — bundles fingerprint the options, not
// the instrumentation.
func (s *Server) withFailureHook(sch *schema.Schema, q *qtree.Query, opts core.Options) core.Options {
	if s.cfg.FailureDir == "" {
		return opts
	}
	base := opts
	opts.FailureHook = func(f core.Failure) {
		s.captureBundle(sch, q, base, durable.GoalEvent(f))
	}
	return opts
}

// captureBundle writes one failure repro bundle, booking the outcome.
// Capture failures are counted, never surfaced: evidence collection
// must not turn a degraded request into a failed one.
func (s *Server) captureBundle(sch *schema.Schema, q *qtree.Query, opts core.Options, ev durable.BundleEvent) {
	if _, err := durable.WriteBundle(s.cfg.FailureDir, sch, q, opts, ev); err != nil {
		s.ctr.bundleErrs.Add(1)
		return
	}
	s.ctr.bundles.Add(1)
}

// decode reads and parses the JSON body into req.
func decode(r *http.Request, w http.ResponseWriter, req any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// prepare parses the DDL and query under the server's resource limits
// and builds the qtree. Returned errors are caller errors (422).
func (s *Server) prepare(ddl, query string) (*schema.Schema, *qtree.Query, error) {
	sch, err := sqlparser.ParseSchemaLimits(ddl, s.cfg.Limits)
	if err != nil {
		return nil, nil, fmt.Errorf("ddl: %w", err)
	}
	stmt, err := sqlparser.ParseQueryLimits(query, s.cfg.Limits)
	if err != nil {
		return nil, nil, fmt.Errorf("query: %w", err)
	}
	q, err := qtree.Build(sch, stmt)
	if err != nil {
		return nil, nil, fmt.Errorf("query: %w", err)
	}
	return sch, q, nil
}

// prepareStatusKind maps a prepare (parse/build) error onto the 422
// taxonomy.
func prepareStatusKind(err error) (int, string) {
	kind := "parse"
	switch {
	case errors.Is(err, limits.ErrResourceLimit):
		kind = "resource-limit"
	case errors.Is(err, sqlparser.ErrUnsupported):
		// Well-formed SQL outside the supported query class (OR,
		// nested subqueries, HAVING without aggregation, ...) —
		// distinct from a syntax error so clients can tell "fix
		// your SQL" apart from "this class is out of scope".
		kind = "unsupported"
	}
	return http.StatusUnprocessableEntity, kind
}

// account books status into its terminal counter bucket. Every
// response to /v1/generate, /v1/forward and /v1/analyze is booked here
// at write time — not inside the solve — so cache hits, relayed peer
// answers and errors keep the invariant that every admitted request
// lands in exactly one terminal bucket (the chaos soak's
// zero-lost-requests post-mortem).
func (s *Server) account(status int) {
	switch {
	case status == http.StatusOK:
		s.ctr.completed.Add(1)
	case status == http.StatusMultiStatus:
		s.ctr.partial.Add(1)
	case status >= 500:
		s.ctr.failed.Add(1)
	default:
		s.ctr.rejected.Add(1)
	}
}

// writeBody writes the response to an admitted request (see
// writeJSON) and books its terminal counter.
func (s *Server) writeBody(w http.ResponseWriter, status int, body any) {
	s.account(status)
	s.writeJSON(w, status, body)
}

// decorate splices served_by/served_from/degraded into a marshaled 2xx
// generate body. The fields ride outside the cached bytes so one
// node's cache entry serves every fleet member verbatim; standalone
// memory-tier serves never decorate, keeping those response bodies
// byte-identical to the library path. servedFrom is "disk" on a
// durable-tier hit — the warm-restart marker — and "" otherwise.
func decorate(payload []byte, servedBy, servedFrom string, degraded bool) []byte {
	if servedBy == "" && servedFrom == "" && !degraded {
		return payload
	}
	trimmed := bytes.TrimRight(payload, " \t\r\n")
	if len(trimmed) < 2 || trimmed[0] != '{' || trimmed[len(trimmed)-1] != '}' {
		return payload
	}
	var extra bytes.Buffer
	extra.Write(trimmed[:len(trimmed)-1])
	if servedBy != "" {
		name, _ := json.Marshal(servedBy)
		fmt.Fprintf(&extra, `,"served_by":%s`, name)
	}
	if servedFrom != "" {
		from, _ := json.Marshal(servedFrom)
		fmt.Fprintf(&extra, `,"served_from":%s`, from)
	}
	if degraded {
		extra.WriteString(`,"degraded":true`)
	}
	extra.WriteByte('}')
	return extra.Bytes()
}

// solveGenerate runs the clamped pipeline under ctx and maps the
// outcome onto the response taxonomy without writing or accounting
// (terminal accounting happens at write time so cached and forwarded
// serves count identically): 200 with the complete suite, 207 with the
// partial one, or an error status with its ErrorResponse. The suite is
// returned for /v1/analyze's kill matrix (nil on an error status).
// Side-effect counters that describe this solve — budget expiry,
// disconnects, recovered goal panics — are booked here.
func (s *Server) solveGenerate(ctx context.Context, r *http.Request, sch *schema.Schema, q *qtree.Query, opts core.Options) (int, *core.Suite, any) {
	suite, err := core.NewGenerator(q, opts).GenerateContext(ctx)
	if ctx.Err() != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.ctr.budgetExpired.Add(1)
	}
	if r.Context().Err() != nil && s.hardCtx.Err() == nil {
		s.ctr.disconnects.Add(1)
	}
	switch {
	case err == nil:
		return http.StatusOK, suite, encodeSuite(suite, sch)
	case errors.Is(err, core.ErrPartialSuite):
		// degraded but valid: flush what we have as 207. Recovered
		// kill-goal panics are surfaced in the counters.
		for _, f := range suite.Incomplete {
			if f.Reason == core.ReasonPanic {
				s.ctr.panics.Add(1)
			}
		}
		return http.StatusMultiStatus, suite, encodeSuite(suite, sch)
	default:
		status, body := classify(err)
		return status, nil, body
	}
}

// marshalSolve runs solveGenerate and marshals its outcome into the
// wire bytes the suite cache stores and shares.
func (s *Server) marshalSolve(ctx context.Context, r *http.Request, sch *schema.Schema, q *qtree.Query, opts core.Options) (int, []byte) {
	status, _, body := s.solveGenerate(ctx, r, sch, q, opts)
	p, err := json.Marshal(body)
	if err != nil {
		status = http.StatusInternalServerError
		p, _ = json.Marshal(ErrorResponse{Kind: "internal", Error: "service: marshal response: " + err.Error()})
	}
	return status, p
}

// leaderOutcome carries a singleflight leader's non-200 solve out of
// SuiteCache.Do as an error: the leader still answers its own client
// with it, but waiting followers re-compete and solve under their own
// contexts. A 207/500 is shaped by the leader's budget or fault (a
// hop-cancelled forward, a disconnect, a panic) and sharing it would
// poison healthy followers with another request's failure.
type leaderOutcome struct {
	status  int
	payload []byte
}

func (e *leaderOutcome) Error() string { return "service: non-shareable solve result" }

// cachedSolve serves (status, marshaled body) for the content key:
// verified cache hit, singleflight collapse onto a concurrent
// identical solve, or a local solve whose complete-200 body is stored
// for future requests. Only complete 200 bodies are cached or shared
// with collapsed followers, so both tiers store bare bodies — partial
// and error responses are returned to their own client but never
// stored, and a result that straddled an epoch bump is not stored
// either.
func (s *Server) cachedSolve(ctx context.Context, r *http.Request, key fleet.Key, sch *schema.Schema, q *qtree.Query, opts core.Options) (int, []byte, fleet.Tier) {
	body, tier, err := s.cache.Do(ctx, key, func() ([]byte, error) {
		status, p := s.marshalSolve(ctx, r, sch, q, opts)
		if status != http.StatusOK {
			return nil, &leaderOutcome{status: status, payload: p}
		}
		return p, nil
	})
	if err != nil {
		var lo *leaderOutcome
		if errors.As(err, &lo) {
			return lo.status, lo.payload, fleet.TierNone
		}
		// Only a waiting follower surfaces an error: its own budget
		// died before the leader answered. Solve under the dead
		// context — the generator budget-expires immediately and
		// flushes the same partial 207 the uncached path would have.
		status, p := s.marshalSolve(ctx, r, sch, q, opts)
		return status, p, fleet.TierNone
	}
	return http.StatusOK, body, tier
}

// serve is the one request path of /v1/generate, /v1/forward and
// /v1/analyze. It runs the shared preamble — admission, decoding into
// req, prepare and clamp of greq (which req holds), bundle scope,
// failure hook, request context — hands the parsed request to solve,
// and writes solve's status and body through writeBody.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, req any, greq *GenerateRequest,
	solve func(ctx context.Context, sch *schema.Schema, q *qtree.Query, opts core.Options) (int, any)) {
	release, ok := s.admitOrReject(w, r)
	if !ok {
		return
	}
	var bs bundleScope
	defer s.inflight.Done()
	defer s.finish(w, release, &bs)

	if err := decode(r, w, req); err != nil {
		s.writeError(w, http.StatusBadRequest, "malformed", err)
		return
	}
	sch, q, err := s.prepare(greq.DDL, greq.Query)
	if err != nil {
		status, kind := prepareStatusKind(err)
		s.writeError(w, status, kind, err)
		return
	}
	budget, opts := s.clamp(greq.Options)
	bs = bundleScope{sch: sch, q: q, opts: opts, set: true}
	opts = s.withFailureHook(sch, q, opts)
	ctx, cancel := s.requestContext(r, budget)
	defer cancel()
	status, body := solve(ctx, sch, q, opts)
	s.writeBody(w, status, body)
}

// serveGenerate is the shared /v1/generate + /v1/forward handler. The
// fleet path: derive the canonical content key, forward to the key's
// ring owner unless this request already hopped once (forceLocal or
// the hop header — single-hop routing, loops impossible), and degrade
// to a local solve when every path to the owner is exhausted. The
// local path always runs through the suite cache.
func (s *Server) serveGenerate(w http.ResponseWriter, r *http.Request, forceLocal bool) {
	var req GenerateRequest
	s.serve(w, r, &req, &req, func(ctx context.Context, sch *schema.Schema, q *qtree.Query, opts core.Options) (int, any) {
		// The failure hook is not part of the options encoding, so the
		// hooked options key the same as the clamped ones.
		key := fleet.ContentKey(sch, q, opts)
		servedBy, degraded := "", false
		if s.router != nil {
			servedBy = s.router.Self()
			hopped := forceLocal || r.Header.Get(fleet.HopHeader) != ""
			if owner := s.router.Owner(key); !hopped && owner != s.router.Self() {
				// Forwarding (hops, retries, breaker waits) may spend at
				// most half the remaining budget: the degrade guarantee is
				// only worth anything if the local fallback still has
				// budget left when every path to the owner is exhausted.
				fwdCtx, fwdCancel := ctx, context.CancelFunc(func() {})
				if dl, ok := ctx.Deadline(); ok {
					fwdCtx, fwdCancel = context.WithDeadline(ctx, time.Now().Add(time.Until(dl)/2))
				}
				status, payload, ferr := s.forwardGenerate(fwdCtx, owner, req)
				fwdCancel()
				if ferr == nil {
					return status, payload
				}
				// Every path to the owner is exhausted: degrade, don't fail.
				degraded = true
				s.ctr.degraded.Add(1)
			}
		}

		status, payload, tier := s.cachedSolve(ctx, r, key, sch, q, opts)
		servedFrom := ""
		if tier == fleet.TierDisk {
			servedFrom = string(fleet.TierDisk)
		}
		if status == http.StatusOK || status == http.StatusMultiStatus {
			payload = decorate(payload, servedBy, servedFrom, degraded)
		}
		return status, payload
	})
}

// forwardGenerate relays req to the owning peer's /v1/forward.
func (s *Server) forwardGenerate(ctx context.Context, owner string, req GenerateRequest) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	return s.router.Forward(ctx, owner, "/v1/forward", body)
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	s.serveGenerate(w, r, false)
}

// handleForward serves a peer-forwarded generate request: identical to
// /v1/generate except it must solve locally — with single-hop routing
// the only loop a buggy or disagreeing ring could create is A→B→A,
// and forcing the second hop local breaks it.
func (s *Server) handleForward(w http.ResponseWriter, r *http.Request) {
	s.serveGenerate(w, r, true)
}

// handleEpoch bumps this node's suite-cache invalidation epoch,
// retiring every cached entry (POST /admin/epoch after a binary or
// semantics change). Epochs are per-node: an operator invalidating a
// fleet bumps each member. A bump the disk tier failed to journal is
// answered 500: it holds in this process but not across a restart.
// The endpoint is not admitted, so it books no request counter.
func (s *Server) handleEpoch(w http.ResponseWriter, _ *http.Request) {
	epoch, err := s.cache.BumpEpoch()
	if err != nil {
		s.writeJSON(w, http.StatusInternalServerError, ErrorResponse{
			Kind:  "internal",
			Error: fmt.Sprintf("service: epoch %d holds until restart, not journaled: %v", epoch, err),
		})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]int64{"epoch": epoch})
}

// handleAnalyze serves /v1/analyze: the generate solve, then on a
// complete suite the kill matrix over it. It always solves locally and
// uncached — the kill matrix needs the core.Suite, not cached bytes.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	s.serve(w, r, &req, &req.GenerateRequest, func(ctx context.Context, sch *schema.Schema, q *qtree.Query, opts core.Options) (int, any) {
		status, suite, body := s.solveGenerate(ctx, r, sch, q, opts)
		if status != http.StatusOK {
			return status, body
		}
		a, err := s.killMatrix(ctx, q, suite, req)
		if err != nil {
			return classify(err)
		}
		a.GenerateResponse = body.(GenerateResponse)
		return http.StatusOK, a
	})
}

// killMatrix evaluates req's mutant space against a complete suite and
// summarizes it (the caller fills in the suite's GenerateResponse).
func (s *Server) killMatrix(ctx context.Context, q *qtree.Query, suite *core.Suite, req AnalyzeRequest) (AnalyzeResponse, error) {
	mopts := mutation.DefaultOptions()
	mopts.IncludeFullOuter = req.IncludeFullOuter
	mopts.AllJoinOrders = !req.NoAllJoinOrders
	mutants, err := mutation.Space(q, mopts)
	if err != nil {
		return AnalyzeResponse{}, fmt.Errorf("mutation space: %w", err)
	}
	report, err := mutation.EvaluateContext(ctx, q, mutants, suite.All())
	if err != nil {
		return AnalyzeResponse{}, fmt.Errorf("kill matrix: %w", err)
	}
	s.ctr.addEngine(report.Exec)
	a := AnalyzeResponse{Mutants: len(mutants), Killed: report.KilledCount()}
	for _, mi := range report.Survivors() {
		a.Survivors = append(a.Survivors, mutants[mi].Desc)
	}
	kills := report.KillsByKind()
	for _, kind := range mutation.Kinds {
		if kk, ok := kills[kind]; ok {
			a.ByKind = append(a.ByKind, KindKillsJSON{Kind: string(kind), Killed: kk[0], Total: kk[1]})
		}
	}
	return a, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Counters())
}
