package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/limits"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/solver"
	"repro/internal/sqlparser"
)

const testDDL = `
CREATE TABLE instructor (
	id INT PRIMARY KEY,
	name VARCHAR(20) NOT NULL,
	dept_name VARCHAR(20) NOT NULL,
	salary INT NOT NULL
);
CREATE TABLE teaches (
	id INT NOT NULL,
	course_id INT NOT NULL,
	PRIMARY KEY (id, course_id)
);
`

const testSQL = `SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50`

// newTestServer builds a Server plus an httptest frontend.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends body as JSON and returns status + decoded-into out (when
// out is non-nil and the body decodes).
func post(t *testing.T, url string, body any, out any) (int, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode response (%d): %v\n%s", resp.StatusCode, err, data)
		}
	}
	return resp.StatusCode, resp.Header
}

// librarySuite runs the library pipeline with the exact options the
// server would clamp a zero-valued request onto.
func librarySuite(t *testing.T, s *Server, ddl, query string) (*qtree.Query, *core.Suite) {
	t.Helper()
	q, suite, err := libraryGenerate(t, s, ddl, query)
	if err != nil {
		t.Fatalf("library generate: %v", err)
	}
	return q, suite
}

// libraryGenerate is librarySuite returning the generator's error, so
// a caller can tell a partial suite (ErrPartialSuite) apart.
func libraryGenerate(t *testing.T, s *Server, ddl, query string) (*qtree.Query, *core.Suite, error) {
	t.Helper()
	sch, err := sqlparser.ParseSchemaLimits(ddl, s.cfg.Limits)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	q, err := qtree.BuildSQL(sch, query)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	_, opts := s.clamp(RequestOptions{})
	suite, err := core.NewGenerator(q, opts).GenerateContext(context.Background())
	return q, suite, err
}

// libraryExpect is librarySuite's suite in its wire encoding, for
// byte-identical comparison.
func libraryExpect(t *testing.T, s *Server, ddl, query string) GenerateResponse {
	t.Helper()
	q, suite := librarySuite(t, s, ddl, query)
	return encodeSuite(suite, q.Schema)
}

// requireSameSuite asserts got matches want dataset-for-dataset, byte
// for byte (the SQLInserts scripts are the canonical form).
func requireSameSuite(t *testing.T, got, want GenerateResponse) {
	t.Helper()
	if got.Original == nil || want.Original == nil {
		t.Fatalf("missing original dataset: got %v want %v", got.Original != nil, want.Original != nil)
	}
	if got.Original.Inserts != want.Original.Inserts {
		t.Fatalf("original dataset differs from library path:\nservice: %q\nlibrary: %q", got.Original.Inserts, want.Original.Inserts)
	}
	if len(got.Datasets) != len(want.Datasets) {
		t.Fatalf("dataset count: service %d, library %d", len(got.Datasets), len(want.Datasets))
	}
	for i := range got.Datasets {
		if got.Datasets[i] != want.Datasets[i] {
			t.Fatalf("dataset %d differs from library path:\nservice: %+v\nlibrary: %+v", i, got.Datasets[i], want.Datasets[i])
		}
	}
}

// TestGenerateEndpoint: a well-formed request yields 200 with a
// complete suite byte-identical to the library path under the same
// clamped options.
func TestGenerateEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var got GenerateResponse
	status, _ := post(t, ts.URL+"/v1/generate", GenerateRequest{DDL: testDDL, Query: testSQL}, &got)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if !got.Complete || len(got.Incomplete) != 0 {
		t.Fatalf("expected complete suite, got complete=%v incomplete=%d", got.Complete, len(got.Incomplete))
	}
	if len(got.Datasets) == 0 {
		t.Fatal("no kill datasets generated")
	}
	requireSameSuite(t, got, libraryExpect(t, s, testDDL, testSQL))

	c := s.Counters()
	if c.Received != 1 || c.Admitted != 1 || c.Completed != 1 {
		t.Errorf("counters after one success: %+v", c)
	}
}

// TestAnalyzeEndpoint: /v1/analyze returns the suite plus a kill
// report with a plausible mutation score.
func TestAnalyzeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got AnalyzeResponse
	status, _ := post(t, ts.URL+"/v1/analyze", AnalyzeRequest{GenerateRequest: GenerateRequest{DDL: testDDL, Query: testSQL}}, &got)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if got.Mutants == 0 {
		t.Fatal("no mutants in the space")
	}
	if got.Killed == 0 || got.Killed > got.Mutants {
		t.Fatalf("implausible kill count %d of %d", got.Killed, got.Mutants)
	}
	if len(got.ByKind) == 0 {
		t.Fatal("no per-kind kill lines")
	}
}

// TestAnalyzeByKindCoversEveryKind runs /v1/analyze on queries whose
// spaces hold HAVING, LIKE and subquery mutants: every mutant must be
// listed under its kind, so the by_kind totals sum to mutants and the
// kills to killed, and each query's own class must appear.
func TestAnalyzeByKindCoversEveryKind(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		sql  string
		kind string
	}{
		{`SELECT t.course_id, COUNT(t.id) FROM teaches t GROUP BY t.course_id HAVING COUNT(t.id) > 1`, "having"},
		{`SELECT * FROM instructor i WHERE i.name LIKE 'a%'`, "like"},
		{`SELECT i.name FROM instructor i WHERE NOT EXISTS (SELECT * FROM teaches t WHERE t.id = i.id)`, "subquery"},
	} {
		var got AnalyzeResponse
		status, _ := post(t, ts.URL+"/v1/analyze", AnalyzeRequest{GenerateRequest: GenerateRequest{DDL: testDDL, Query: tc.sql}}, &got)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", tc.sql, status)
		}
		total, killed, seen := 0, 0, false
		for _, k := range got.ByKind {
			total += k.Total
			killed += k.Killed
			seen = seen || k.Kind == tc.kind
		}
		if total != got.Mutants || killed != got.Killed {
			t.Errorf("%s: by_kind %+v sums to %d mutants, %d killed; the response has %d, %d",
				tc.sql, got.ByKind, total, killed, got.Mutants, got.Killed)
		}
		if !seen {
			t.Errorf("%s: by_kind %+v has no %q line", tc.sql, got.ByKind, tc.kind)
		}
	}
}

// TestAnalyzeMutationSwitches: /v1/analyze's two mutation-space
// switches reach the kill matrix. For every combination of
// include_full_outer and no_all_join_orders, the response's mutant and
// kill counts are those of mutation.Space plus mutation.Evaluate under
// the same options over the library suite, and the switches change the
// space on a three-relation join.
func TestAnalyzeMutationSwitches(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const sql = `SELECT * FROM instructor i, teaches t, teaches t2 WHERE i.id = t.id AND t.course_id = t2.course_id AND i.salary > 50`
	q, suite := librarySuite(t, s, testDDL, sql)
	spaces := map[int]bool{}
	for _, tc := range []struct{ fullOuter, noAllOrders bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		var got AnalyzeResponse
		status, _ := post(t, ts.URL+"/v1/analyze", AnalyzeRequest{
			GenerateRequest:  GenerateRequest{DDL: testDDL, Query: sql},
			IncludeFullOuter: tc.fullOuter,
			NoAllJoinOrders:  tc.noAllOrders,
		}, &got)
		if status != http.StatusOK {
			t.Fatalf("%+v: status %d, want 200", tc, status)
		}
		mopts := mutation.DefaultOptions()
		mopts.IncludeFullOuter = tc.fullOuter
		mopts.AllJoinOrders = !tc.noAllOrders
		ms, err := mutation.Space(q, mopts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mutation.Evaluate(q, ms, suite.All())
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%+v: %d mutants, %d killed", tc, got.Mutants, got.Killed)
		if got.Mutants != len(ms) || got.Killed != rep.KilledCount() {
			t.Errorf("%+v: analyze reports %d mutants, %d killed; the library %d, %d",
				tc, got.Mutants, got.Killed, len(ms), rep.KilledCount())
		}
		spaces[got.Mutants] = true
	}
	if len(spaces) != 4 {
		t.Errorf("the four switch settings gave %d distinct mutant counts, want 4", len(spaces))
	}
}

// TestErrorTaxonomy: each failure class maps to its documented status
// and kind, mirroring the CLI exit codes.
func TestErrorTaxonomy(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	deep := "SELECT x FROM t WHERE " + strings.Repeat("(", 1000) + "x = 1" + strings.Repeat(")", 1000)
	withOption := func(name string, v any) map[string]any {
		return map[string]any{"ddl": testDDL, "query": testSQL, "options": map[string]any{name: v}}
	}
	cases := []struct {
		name   string
		body   any
		status int
		kind   string
	}{
		{"malformed JSON", "{not json", http.StatusBadRequest, "malformed"},
		{"unknown field", map[string]any{"ddl": testDDL, "query": testSQL, "bogus": 1}, http.StatusBadRequest, "malformed"},
		{"deleted solver_node_limit", withOption("solver_node_limit", 5000), http.StatusBadRequest, "malformed"},
		{"deleted no_unfold", withOption("no_unfold", true), http.StatusBadRequest, "malformed"},
		{"deleted parallelism", withOption("parallelism", 2), http.StatusBadRequest, "malformed"},
		{"deleted fresh_values", withOption("fresh_values", 99_000), http.StatusBadRequest, "malformed"},
		{"bad DDL", GenerateRequest{DDL: "CREATE NONSENSE", Query: testSQL}, http.StatusUnprocessableEntity, "parse"},
		{"bad query", GenerateRequest{DDL: testDDL, Query: "SELEC *"}, http.StatusUnprocessableEntity, "parse"},
		{"unsupported OR", GenerateRequest{DDL: testDDL,
			Query: strings.Replace(testSQL, "WHERE ", "WHERE t.x = 1 OR ", 1)}, http.StatusUnprocessableEntity, "unsupported"},
		{"unsupported nested subquery", GenerateRequest{DDL: testDDL,
			Query: "SELECT * FROM instructor i WHERE i.id NOT IN (SELECT t.id FROM teaches t WHERE t.course_id IN (SELECT t2.course_id FROM teaches t2))"}, http.StatusUnprocessableEntity, "unsupported"},
		{"resource limit", GenerateRequest{DDL: testDDL, Query: deep}, http.StatusUnprocessableEntity, "resource-limit"},
		{"bad options", GenerateRequest{DDL: testDDL, Query: testSQL,
			Options: RequestOptions{GoalNodeLimit: -4}}, http.StatusUnprocessableEntity, "bad-options"},
	}
	check := func(t *testing.T, url string, body any, status int, kind string) {
		t.Helper()
		var raw []byte
		if s, ok := body.(string); ok {
			raw = []byte(s)
		} else {
			var err error
			raw, err = json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.Post(url+"/v1/generate", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("decode error body: %v", err)
		}
		if resp.StatusCode != status || e.Kind != kind {
			t.Fatalf("got %d/%q (%s), want %d/%q", resp.StatusCode, e.Kind, e.Error, status, kind)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { check(t, ts.URL, tc.body, tc.status, tc.kind) })
	}
	// A generation-time resource limit, on a server whose domain ceiling
	// is below the query's candidate pool: the fixed fresh values 0..7
	// alone exceed it, so generation stops at the ceiling check before
	// any solving.
	lim := limits.Default()
	lim.MaxDomainSize = 4
	_, tight := newTestServer(t, Config{Limits: lim})
	t.Run("fresh values over the domain ceiling", func(t *testing.T) {
		check(t, tight.URL, GenerateRequest{DDL: testDDL, Query: testSQL}, http.StatusUnprocessableEntity, "resource-limit")
	})
}

// TestAdversarialNoSolverBudget: a resource-limited request is
// rejected before any solver work happens (zero solver calls in the
// counters' completed/partial buckets and an immediate response).
func TestAdversarialNoSolverBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	deep := "SELECT x FROM t WHERE " + strings.Repeat("NOT ", 1000) + "x = 1"
	start := time.Now()
	status, _ := post(t, ts.URL+"/v1/generate", GenerateRequest{DDL: testDDL, Query: deep}, nil)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", status)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("adversarial rejection took %v; must not consume solver budget", el)
	}
	c := s.Counters()
	if c.Rejected != 1 || c.Completed != 0 || c.Partial != 0 {
		t.Errorf("counters after adversarial reject: %+v", c)
	}
}

// TestClamp: client budgets are clamped onto the ceilings — absent
// selects the ceiling, over-ask is pulled down, modest asks pass, and
// negatives flow through for Validate to reject. Everything else is the
// library default under the server's domain ceiling.
func TestClamp(t *testing.T) {
	s := New(Config{
		MaxTimeout:     10 * time.Second,
		MaxGoalTimeout: 2 * time.Second,
		MaxGoalNodes:   1000,
	})
	budget, opts := s.clamp(RequestOptions{})
	if budget != 10*time.Second || opts.GoalTimeout != 2*time.Second || opts.GoalNodeLimit != 1000 {
		t.Fatalf("zero request must select ceilings: budget=%v opts=%+v", budget, opts)
	}
	want := core.DefaultOptions()
	want.GoalTimeout, want.GoalNodeLimit = opts.GoalTimeout, opts.GoalNodeLimit
	want.MaxDomainSize = limits.DefaultMaxDomainSize
	if opts.FailureHook != nil || !reflect.DeepEqual(opts, want) {
		t.Fatalf("clamped options %+v, want the library defaults with the budgets and the server's domain ceiling %+v", opts, want)
	}
	budget, opts = s.clamp(RequestOptions{TimeoutMS: 3_600_000, GoalTimeoutMS: 3_600_000, GoalNodeLimit: 1 << 40})
	if budget != 10*time.Second || opts.GoalTimeout != 2*time.Second || opts.GoalNodeLimit != 1000 {
		t.Fatalf("over-ask must clamp to ceilings: budget=%v opts=%+v", budget, opts)
	}
	budget, opts = s.clamp(RequestOptions{TimeoutMS: 500, GoalTimeoutMS: 100, GoalNodeLimit: 7})
	if budget != 500*time.Millisecond || opts.GoalTimeout != 100*time.Millisecond || opts.GoalNodeLimit != 7 {
		t.Fatalf("modest ask must pass through: budget=%v opts=%+v", budget, opts)
	}
	_, opts = s.clamp(RequestOptions{GoalNodeLimit: -1})
	if opts.GoalNodeLimit != -1 {
		t.Fatal("negative options must flow through to Validate, not be silently fixed")
	}
	if err := opts.Validate(); !errors.Is(err, core.ErrBadOptions) {
		t.Fatalf("negative goal node limit after clamp: got %v, want ErrBadOptions", err)
	}
}

// TestAdmissionShed: with every slot busy and the queue full, a new
// request is shed with 429 + Retry-After within 100ms — never parked
// on an unbounded queue.
func TestAdmissionShed(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1, QueueWait: 2 * time.Second})
	// Occupy the only slot and the only queue seat directly.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	s.queued.Add(1)
	defer s.queued.Add(-1)

	start := time.Now()
	var e ErrorResponse
	status, hdr := post(t, ts.URL+"/v1/generate", GenerateRequest{DDL: testDDL, Query: testSQL}, &e)
	elapsed := time.Since(start)
	if status != http.StatusTooManyRequests || e.Kind != "shed" {
		t.Fatalf("saturated service: got %d/%q, want 429/shed", status, e.Kind)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("shed took %v, must be immediate (<100ms)", elapsed)
	}
	if c := s.Counters(); c.Shed != 1 {
		t.Errorf("shed counter: %+v", c)
	}
}

// TestQueueWaitShed: a queued request that never gets a slot is shed
// after QueueWait, not parked forever.
func TestQueueWaitShed(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 4, QueueWait: 50 * time.Millisecond})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	start := time.Now()
	status, _ := post(t, ts.URL+"/v1/generate", GenerateRequest{DDL: testDDL, Query: testSQL}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 after queue wait", status)
	}
	if el := time.Since(start); el < 40*time.Millisecond || el > time.Second {
		t.Fatalf("queue-wait shed after %v, want ~50ms", el)
	}
}

// TestDrainLifecycle: draining flips /readyz to 503 and refuses new
// generate work with 503 while /healthz stays 200; an idle server
// drains cleanly.
func TestDrainLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz before drain: %d", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("idle drain must be clean: %v", err)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", got)
	}
	status, hdr := post(t, ts.URL+"/v1/generate", GenerateRequest{DDL: testDDL, Query: testSQL}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("generate while draining: %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("draining 503 must carry Retry-After")
	}
}

// TestStatszEndpoint: /statsz serves the counters as JSON.
func TestStatszEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/generate", GenerateRequest{DDL: testDDL, Query: testSQL}, nil)
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var c Counters
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	if c.Received != 1 || c.Completed != 1 || c.InFlight != 0 {
		t.Errorf("statsz counters: %+v", c)
	}
}

// TestStatszEngineCounters: after concurrent /v1/analyze requests,
// /statsz's engine counters equal the library Report.Exec of the same
// analysis folded once per request, field for field, so a counter the
// service's fold drops fails here, and a fold that races fails under
// -race.
func TestStatszEngineCounters(t *testing.T) {
	const clients = 4
	s, ts := newTestServer(t, Config{MaxConcurrent: clients})
	raw, err := json.Marshal(AnalyzeRequest{GenerateRequest: GenerateRequest{DDL: testDDL, Query: testSQL}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Errorf("POST /v1/analyze: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("analyze status %d, want 200", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var c Counters
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}

	// The library analysis of a zero-valued AnalyzeRequest.
	q, suite := librarySuite(t, s, testDDL, testSQL)
	mopts := mutation.DefaultOptions()
	mopts.IncludeFullOuter = false
	mopts.AllJoinOrders = true
	ms, err := mutation.Space(q, mopts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mutation.Evaluate(q, ms, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Exec
	for i := 1; i < clients; i++ {
		want.Add(rep.Exec)
	}
	if c.Engine != want {
		t.Errorf("/statsz engine = %+v, want the library Report.Exec %+v folded %d times", c.Engine, rep.Exec, clients)
	}
	if rep.Exec.SmallJoins == 0 || rep.Exec.ResultMemoHits == 0 {
		t.Errorf("library Report.Exec = %+v: the analysis must exercise small joins and the result memo", rep.Exec)
	}
}

// TestBudgetExpiryPartial: a request whose clamped budget expires
// mid-generation gets a 207 partial suite, not a hang or a 500.
func TestBudgetExpiryPartial(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxTimeout: 30 * time.Second})
	// Every solve hangs until canceled, so the 50ms whole-request
	// budget must expire and surface as a flushed partial suite.
	defer solver.SetFaultHook(nil)
	solver.SetFaultHook(func(string, int64) solver.Fault { return solver.FaultSlow })
	var got GenerateResponse
	status, _ := post(t, ts.URL+"/v1/generate",
		GenerateRequest{DDL: testDDL, Query: testSQL, Options: RequestOptions{TimeoutMS: 50}}, &got)
	if status != http.StatusMultiStatus {
		t.Fatalf("status %d, want 207 on budget expiry", status)
	}
	if got.Complete || len(got.Incomplete) == 0 {
		t.Fatalf("budget expiry must flush an incomplete suite: complete=%v incomplete=%d", got.Complete, len(got.Incomplete))
	}
	c := s.Counters()
	if c.Partial != 1 || c.BudgetExpired != 1 {
		t.Errorf("counters after budget expiry: %+v", c)
	}

	// The partial suite was never stored: the same content key (the
	// request budget is no generation option) solves afresh once the
	// solver is healthy again.
	solver.SetFaultHook(nil)
	got = GenerateResponse{}
	status, _ = post(t, ts.URL+"/v1/generate", GenerateRequest{DDL: testDDL, Query: testSQL}, &got)
	if status != http.StatusOK || !got.Complete || len(got.Incomplete) != 0 {
		t.Fatalf("after the partial: status %d, complete=%v, incomplete=%d; want a freshly solved complete 200", status, got.Complete, len(got.Incomplete))
	}
	if c := s.Counters(); c.Hits != 0 {
		t.Errorf("cache_hits = %d after the partial, want 0: a partial suite was stored", c.Hits)
	}
}
