package service

import (
	"bytes"
	"context"
	"encoding/binary"
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

// writeJSON encodes v with the given status. Encoding errors at this
// point mean the client went away; they are counted, not retried.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.ctr.disconnects.Add(1)
	}
}

// writeError maps a pipeline error to the HTTP taxonomy (see the
// package comment) and writes the ErrorResponse body.
func (s *Server) writeError(w http.ResponseWriter, status int, kind string, err error) {
	if status >= 500 {
		s.ctr.failed.Add(1)
	} else {
		s.ctr.rejected.Add(1)
	}
	s.writeJSON(w, status, ErrorResponse{Kind: kind, Error: err.Error()})
}

// classify maps a generation-pipeline error to (status, kind). It
// mirrors the CLI's exit-code taxonomy: caller errors (bad SQL,
// resource limits, bad options) are 422, everything unexpected is 500.
func classify(err error) (int, string) {
	switch {
	case errors.Is(err, limits.ErrResourceLimit):
		return http.StatusUnprocessableEntity, "resource-limit"
	case errors.Is(err, core.ErrBadOptions):
		return http.StatusUnprocessableEntity, "bad-options"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// admitOrReject runs the shared request preamble: drain refusal (via
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

// generate runs the clamped pipeline and maps the outcome onto the
// response taxonomy, writing the response itself. It returns the suite
// and schema for /v1/analyze to extend (nil when a response was
// already written as an error).
func (s *Server) generate(w http.ResponseWriter, r *http.Request, greq GenerateRequest, bs *bundleScope, extend func(ctx context.Context, q *qtree.Query, suite *core.Suite, resp GenerateResponse) (any, error)) {
	sch, q, err := s.prepare(greq.DDL, greq.Query)
	if err != nil {
		status, kind := prepareStatusKind(err)
		s.writeError(w, status, kind, err)
		return
	}
	budget, opts := s.clamp(greq.Options)
	if bs != nil {
		*bs = bundleScope{sch: sch, q: q, opts: opts, set: true}
	}
	opts = s.withFailureHook(sch, q, opts)
	ctx, cancel := s.requestContext(r, budget)
	defer cancel()

	suite, err := core.NewGenerator(q, opts).GenerateContext(ctx)
	if ctx.Err() != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.ctr.budgetExpired.Add(1)
	}
	if r.Context().Err() != nil && s.hardCtx.Err() == nil {
		s.ctr.disconnects.Add(1)
	}
	switch {
	case err == nil:
		// complete: fall through
	case errors.Is(err, core.ErrPartialSuite):
		// degraded but valid: flush what we have as 207. Recovered
		// kill-goal panics are surfaced in the counters.
		for _, f := range suite.Incomplete {
			if f.Reason == core.ReasonPanic {
				s.ctr.panics.Add(1)
			}
		}
		s.ctr.partial.Add(1)
		s.writeJSON(w, http.StatusMultiStatus, encodeSuite(suite, sch))
		return
	default:
		status, kind := classify(err)
		s.writeError(w, status, kind, err)
		return
	}

	resp := encodeSuite(suite, sch)
	body := any(resp)
	if extend != nil {
		body, err = extend(ctx, q, suite, resp)
		if err != nil {
			status, kind := classify(err)
			s.writeError(w, status, kind, err)
			return
		}
	}
	s.ctr.completed.Add(1)
	s.writeJSON(w, http.StatusOK, body)
}

// account books status into its terminal counter bucket. The cached
// and forwarded generate paths account at write time — not inside the
// solve — so cache hits and relayed peer answers keep the invariant
// that every admitted request lands in exactly one terminal bucket
// (the chaos soak's zero-lost-requests post-mortem).
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

// writeBody writes pre-marshaled JSON with terminal accounting.
func (s *Server) writeBody(w http.ResponseWriter, status int, payload []byte) {
	s.account(status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(payload); err != nil {
		s.ctr.disconnects.Add(1)
	}
}

// envelope/unenvelope frame a marshaled response body with its HTTP
// status (2 bytes, big-endian) so one cache/singleflight payload
// carries both. Cached entries are always 200s, but singleflight
// followers share whatever the leader produced — 207s and error
// bodies included — and need the status to relay it faithfully.
func envelope(status int, body []byte) []byte {
	out := make([]byte, 2+len(body))
	binary.BigEndian.PutUint16(out, uint16(status))
	copy(out[2:], body)
	return out
}

func unenvelope(p []byte) (int, []byte) {
	if len(p) < 2 {
		// Unreachable for cache-served payloads (checksummed) and
		// leader-produced ones (always framed); kept as a hard stop.
		body, _ := json.Marshal(ErrorResponse{Kind: "internal", Error: "service: malformed cache envelope"})
		return http.StatusInternalServerError, body
	}
	return int(binary.BigEndian.Uint16(p)), p[2:]
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

// solveGenerate runs the clamped pipeline under ctx and returns the
// response status + body without writing or accounting (terminal
// accounting happens at write time so cached and forwarded serves
// count identically). Side-effect counters that describe this solve —
// budget expiry, disconnects, recovered goal panics — are booked here.
func (s *Server) solveGenerate(ctx context.Context, r *http.Request, sch *schema.Schema, q *qtree.Query, opts core.Options) (int, any) {
	suite, err := core.NewGenerator(q, opts).GenerateContext(ctx)
	if ctx.Err() != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.ctr.budgetExpired.Add(1)
	}
	if r.Context().Err() != nil && s.hardCtx.Err() == nil {
		s.ctr.disconnects.Add(1)
	}
	switch {
	case err == nil:
		return http.StatusOK, encodeSuite(suite, sch)
	case errors.Is(err, core.ErrPartialSuite):
		// degraded but valid: flush what we have as 207. Recovered
		// kill-goal panics are surfaced in the counters.
		for _, f := range suite.Incomplete {
			if f.Reason == core.ReasonPanic {
				s.ctr.panics.Add(1)
			}
		}
		return http.StatusMultiStatus, encodeSuite(suite, sch)
	default:
		status, kind := classify(err)
		return status, ErrorResponse{Kind: kind, Error: err.Error()}
	}
}

// marshalSolve marshals a solveGenerate outcome into its wire bytes.
func marshalSolve(status int, body any) (int, []byte) {
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
// identical solve, or a local solve whose complete-200 result is
// stored for future requests. Only complete 200 suites are cached or
// shared with collapsed followers — partial and error responses are
// returned to their own client but never stored, and a result that
// straddled an epoch bump is not stored either.
func (s *Server) cachedSolve(ctx context.Context, r *http.Request, key fleet.Key, sch *schema.Schema, q *qtree.Query, opts core.Options) (int, []byte, fleet.Tier) {
	env, tier, err := s.cache.DoTier(ctx, key, func() ([]byte, bool, error) {
		status, p := marshalSolve(s.solveGenerate(ctx, r, sch, q, opts))
		if status != http.StatusOK {
			return nil, false, &leaderOutcome{status: status, payload: p}
		}
		return envelope(status, p), true, nil
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
		status, p := marshalSolve(s.solveGenerate(ctx, r, sch, q, opts))
		return status, p, fleet.TierNone
	}
	status, p := unenvelope(env)
	return status, p, tier
}

// serveGenerate is the shared /v1/generate + /v1/forward handler. The
// fleet path: derive the canonical content key, forward to the key's
// ring owner unless this request already hopped once (forceLocal or
// the hop header — single-hop routing, loops impossible), and degrade
// to a local solve when every path to the owner is exhausted. The
// local path always runs through the suite cache.
func (s *Server) serveGenerate(w http.ResponseWriter, r *http.Request, forceLocal bool) {
	release, ok := s.admitOrReject(w, r)
	if !ok {
		return
	}
	var bs bundleScope
	defer s.inflight.Done()
	defer s.finish(w, release, &bs)

	var req GenerateRequest
	if err := decode(r, w, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "malformed", err)
		return
	}
	sch, q, err := s.prepare(req.DDL, req.Query)
	if err != nil {
		status, kind := prepareStatusKind(err)
		s.writeError(w, status, kind, err)
		return
	}
	budget, opts := s.clamp(req.Options)
	key := fleet.ContentKey(sch, q, opts)
	bs = bundleScope{sch: sch, q: q, opts: opts, set: true}
	opts = s.withFailureHook(sch, q, opts)
	ctx, cancel := s.requestContext(r, budget)
	defer cancel()

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
				s.writeBody(w, status, payload)
				return
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
	s.writeBody(w, status, payload)
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
// fleet bumps each member.
func (s *Server) handleEpoch(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]int64{"epoch": s.cache.BumpEpoch()})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admitOrReject(w, r)
	if !ok {
		return
	}
	var bs bundleScope
	defer s.inflight.Done()
	defer s.finish(w, release, &bs)

	var req AnalyzeRequest
	if err := decode(r, w, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "malformed", err)
		return
	}
	mopts := mutation.DefaultOptions()
	mopts.IncludeFullOuter = req.IncludeFullOuter
	mopts.AllJoinOrders = !req.NoAllJoinOrders
	s.generate(w, r, req.GenerateRequest, &bs, func(ctx context.Context, q *qtree.Query, suite *core.Suite, resp GenerateResponse) (any, error) {
		mutants, err := mutation.Space(q, mopts)
		if err != nil {
			return nil, fmt.Errorf("mutation space: %w", err)
		}
		report, err := mutation.EvaluateContext(ctx, q, mutants, suite.All(), mutation.EvalOptions{Parallelism: 1})
		if err != nil {
			return nil, fmt.Errorf("kill matrix: %w", err)
		}
		s.ctr.engine.Add(report.Exec)
		a := AnalyzeResponse{
			GenerateResponse: resp,
			Mutants:          len(mutants),
			Killed:           report.KilledCount(),
		}
		for _, mi := range report.Survivors() {
			a.Survivors = append(a.Survivors, mutants[mi].Desc)
		}
		for _, kind := range []mutation.Kind{mutation.KindJoinType, mutation.KindComparison, mutation.KindAggregate} {
			if kk, ok := report.KillsByKind()[kind]; ok {
				a.ByKind = append(a.ByKind, KindKillsJSON{Kind: string(kind), Killed: kk[0], Total: kk[1]})
			}
		}
		return a, nil
	})
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
