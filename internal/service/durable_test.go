package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/solver"
)

// postRaw sends body as JSON and returns status + the raw response
// bytes, for byte-identity assertions the decoding post helper can't
// make.
func postRaw(t *testing.T, url string, body any) (int, []byte) {
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
	return resp.StatusCode, data
}

// TestDurableWarmRestart is the tentpole's service-level acceptance
// path: solve once with a disk tier, tear the server down, start a new
// server over the same directory, and the same request is served from
// disk — byte-identical payload plus the served_from: "disk" marker —
// without running the solver again.
func TestDurableWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CacheDir: dir}
	req := GenerateRequest{DDL: testDDL, Query: testSQL}

	s1, ts1 := newTestServer(t, cfg)
	if warn := s1.DurableWarning(); warn != "" {
		t.Fatalf("unexpected durable warning: %q", warn)
	}
	status, fresh := postRaw(t, ts1.URL+"/v1/generate", req)
	if status != http.StatusOK {
		t.Fatalf("fresh solve: status %d\n%s", status, fresh)
	}
	c1 := s1.Counters()
	if !c1.Durable.Enabled || c1.Durable.Dir != dir {
		t.Fatalf("durable status = %+v, want enabled at %s", c1.Durable, dir)
	}
	if c1.Durable.Counters.Puts == 0 {
		t.Fatal("complete suite was not written through to disk")
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, cfg)
	c2 := s2.Counters()
	if c2.Durable.Counters.RecoveredRecords == 0 {
		t.Fatal("restart recovered no records")
	}
	status, warm := postRaw(t, ts2.URL+"/v1/generate", req)
	if status != http.StatusOK {
		t.Fatalf("warm serve: status %d\n%s", status, warm)
	}
	// The disk hit is the fresh payload with exactly the served_from
	// marker spliced in: proves the bytes round-tripped the disk intact.
	want := string(fresh[:len(fresh)-1]) + `,"served_from":"disk"}`
	if string(warm) != want {
		t.Fatalf("disk-served body not byte-identical modulo decoration:\ngot  %s\nwant %s", warm, want)
	}
	var gr GenerateResponse
	if err := json.Unmarshal(warm, &gr); err != nil {
		t.Fatalf("decode warm response: %v", err)
	}
	if gr.ServedFrom != "disk" {
		t.Fatalf("served_from = %q, want disk", gr.ServedFrom)
	}
	c2 = s2.Counters()
	if c2.CacheCounters.DiskHits != 1 || c2.Durable.Counters.Hits != 1 {
		t.Fatalf("disk hit counters: cache_disk_hits=%d disk_hits=%d, want 1/1",
			c2.CacheCounters.DiskHits, c2.Durable.Counters.Hits)
	}

	// The disk hit promoted the entry to memory: the next serve is a
	// memory hit, undecorated and byte-identical to the fresh solve.
	status, warm2 := postRaw(t, ts2.URL+"/v1/generate", req)
	if status != http.StatusOK {
		t.Fatalf("memory serve: status %d", status)
	}
	if !bytes.Equal(warm2, fresh) {
		t.Fatalf("memory-promoted serve differs from the fresh solve:\ngot  %s\nwant %s", warm2, fresh)
	}
	ts2.Close()
	s2.Close()
}

// TestDurableEpochSurvivesRestart: an epoch bump acknowledged before a
// restart keeps invalidating after it — the restarted daemon must not
// serve entries the operator already retired.
func TestDurableEpochSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CacheDir: dir}
	req := GenerateRequest{DDL: testDDL, Query: testSQL}

	s1, ts1 := newTestServer(t, cfg)
	if status, body := postRaw(t, ts1.URL+"/v1/generate", req); status != http.StatusOK {
		t.Fatalf("fresh solve: status %d\n%s", status, body)
	}
	var bump map[string]int64
	if status, _ := post(t, ts1.URL+"/admin/epoch", struct{}{}, &bump); status != http.StatusOK {
		t.Fatalf("epoch bump failed")
	}
	if bump["epoch"] != 1 {
		t.Fatalf("epoch after bump = %d, want 1", bump["epoch"])
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, cfg)
	defer ts2.Close()
	defer s2.Close()
	c := s2.Counters()
	if c.Durable.Counters.Epoch != 1 {
		t.Fatalf("epoch after restart = %d, want 1 (persisted bump lost)", c.Durable.Counters.Epoch)
	}
	status, body := postRaw(t, ts2.URL+"/v1/generate", req)
	if status != http.StatusOK {
		t.Fatalf("post-restart solve: status %d\n%s", status, body)
	}
	if strings.Contains(string(body), `"served_from"`) {
		t.Fatalf("retired entry served from disk after restart:\n%s", body)
	}
	if hits := s2.Counters().CacheCounters.DiskHits; hits != 0 {
		t.Fatalf("disk hits = %d after epoch bump, want 0", hits)
	}
}

// TestDurableEpochBumpNotJournaled: when the disk tier cannot journal
// an epoch bump, /admin/epoch answers 500 naming the journal failure
// instead of acknowledging it, books no request counter, and the node
// still retires the pre-bump suite: the next request solves afresh
// instead of serving it from disk.
func TestDurableEpochBumpNotJournaled(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	defer s.Close()
	req := GenerateRequest{DDL: testDDL, Query: testSQL}
	if status, body := postRaw(t, ts.URL+"/v1/generate", req); status != http.StatusOK {
		t.Fatalf("fresh solve: status %d\n%s", status, body)
	}
	// Close the store's files under it: every journal write now fails,
	// while reads reopen their segment lazily.
	s.store.Close()
	before := s.Counters()

	var e ErrorResponse
	if status, _ := post(t, ts.URL+"/admin/epoch", struct{}{}, &e); status != http.StatusInternalServerError {
		t.Fatalf("epoch bump with a failing journal: status %d, want 500", status)
	}
	if e.Kind != "internal" || !strings.Contains(e.Error, "journal") {
		t.Fatalf("epoch error = %+v, want kind internal naming the journal", e)
	}
	after := s.Counters()
	if after.Received != before.Received || after.Failed != before.Failed || after.Completed != before.Completed {
		t.Fatalf("/admin/epoch moved the request counters: %+v -> %+v", before, after)
	}
	if after.CacheCounters.Epoch != 1 || after.Durable.Counters.Epoch != 1 {
		t.Fatalf("epochs = cache %d, disk %d; want the bump held in both tiers",
			after.CacheCounters.Epoch, after.Durable.Counters.Epoch)
	}

	status, body := postRaw(t, ts.URL+"/v1/generate", req)
	if status != http.StatusOK {
		t.Fatalf("post-bump solve: status %d\n%s", status, body)
	}
	if strings.Contains(string(body), `"served_from"`) || s.Counters().CacheCounters.DiskHits != 0 {
		t.Fatalf("pre-bump suite served from disk after the bump:\n%s", body)
	}
}

// TestDurableUnusableDirDegrades (satellite a): a cache-dir that cannot
// be created degrades the server to memory-only with a warning; it
// never refuses to start, and /statsz reports durable: "disabled".
func TestDurableUnusableDirDegrades(t *testing.T) {
	plain := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A path under a regular file cannot be MkdirAll'd, root or not.
	s, ts := newTestServer(t, Config{CacheDir: filepath.Join(plain, "cache")})
	defer ts.Close()
	defer s.Close()

	if warn := s.DurableWarning(); !strings.Contains(warn, "memory-only") {
		t.Fatalf("DurableWarning = %q, want a memory-only degradation notice", warn)
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(stats), `"durable":"disabled"`) {
		t.Fatalf("/statsz does not report durable disabled:\n%s", stats)
	}
	// Degraded is still serving: memory-only, not dead.
	if status, body := postRaw(t, ts.URL+"/v1/generate", GenerateRequest{DDL: testDDL, Query: testSQL}); status != http.StatusOK {
		t.Fatalf("degraded serve: status %d\n%s", status, body)
	}
}

// TestDurableStatusJSONRoundTrip: the Counters JSON round-trips both
// shapes of the durable field — the /statsz tests decode the body into
// Counters, so an asymmetric encoding would break them.
func TestDurableStatusJSONRoundTrip(t *testing.T) {
	for _, c := range []Counters{
		{},
		{Durable: DurableStatus{Enabled: true, Dir: "/tmp/x", Counters: durable.Counters{Hits: 3, Epoch: 2}}},
	} {
		p, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var back Counters
		if err := json.Unmarshal(p, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", p, err)
		}
		if back.Durable != c.Durable {
			t.Fatalf("durable field did not round-trip: got %+v want %+v", back.Durable, c.Durable)
		}
	}
}

// TestFailureBundleCapture: an abandoned kill goal under -failure-dir
// writes a self-contained repro bundle while the request still answers
// 207, and the capture is visible in the counters.
func TestFailureBundleCapture(t *testing.T) {
	fdir := t.TempDir()
	s, ts := newTestServer(t, Config{FailureDir: fdir})
	defer ts.Close()
	defer s.Close()

	defer solver.SetFaultHook(nil)
	solver.SetFaultHook(func(label string, call int64) solver.Fault {
		if strings.Contains(label, "nullify {i.id}") {
			return solver.FaultPanic
		}
		return solver.FaultNone
	})

	status, body := postRaw(t, ts.URL+"/v1/generate", GenerateRequest{DDL: testDDL, Query: testSQL})
	if status != http.StatusMultiStatus {
		t.Fatalf("status %d, want 207 partial\n%s", status, body)
	}
	c := s.Counters()
	if c.BundlesWritten != 1 || c.BundleErrors != 0 {
		t.Fatalf("bundles written=%d errors=%d, want 1/0", c.BundlesWritten, c.BundleErrors)
	}
	entries, err := os.ReadDir(fdir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("failure dir entries = %v (err %v), want exactly one bundle", entries, err)
	}
	b, err := durable.ReadBundle(filepath.Join(fdir, entries[0].Name()))
	if err != nil {
		t.Fatalf("read captured bundle: %v", err)
	}
	if b.Kind != "goal" || !strings.Contains(b.Purpose, "nullify i.id") {
		t.Fatalf("bundle kind/purpose = %q/%q", b.Kind, b.Purpose)
	}
	if !b.FaultInjected {
		t.Fatal("bundle not marked fault-injected despite the active hook")
	}
	if b.Stack == "" || b.SchemaSQL == "" || b.QuerySQL == "" {
		t.Fatalf("bundle incomplete: stack %d bytes, schema %d, query %d",
			len(b.Stack), len(b.SchemaSQL), len(b.QuerySQL))
	}

	// The same failure again must dedupe onto the same bundle dir.
	if status, _ := postRaw(t, ts.URL+"/v1/generate", GenerateRequest{DDL: testDDL, Query: testSQL}); status != http.StatusMultiStatus {
		t.Fatalf("second partial: status %d", status)
	}
	if entries, _ := os.ReadDir(fdir); len(entries) != 1 {
		t.Fatalf("duplicate failure produced %d bundle dirs, want 1", len(entries))
	}
}

// TestHandlerPanicBundle: the finish recover writes a Kind "handler"
// bundle when a handler panics after the request was parsed.
func TestHandlerPanicBundle(t *testing.T) {
	fdir := t.TempDir()
	s := New(Config{FailureDir: fdir})
	defer s.Close()
	sch, q, err := s.prepare(testDDL, testSQL)
	if err != nil {
		t.Fatal(err)
	}
	_, opts := s.clamp(RequestOptions{})
	bs := &bundleScope{sch: sch, q: q, opts: opts, set: true}

	w := httptest.NewRecorder()
	func() {
		defer s.finish(w, func() {}, bs)
		panic("synthetic handler bug")
	}()

	if w.Code != http.StatusInternalServerError {
		t.Fatalf("recovered panic wrote status %d, want 500", w.Code)
	}
	if got := s.Counters(); got.PanicsRecovered != 1 || got.BundlesWritten != 1 {
		t.Fatalf("panics=%d bundles=%d, want 1/1", got.PanicsRecovered, got.BundlesWritten)
	}
	entries, err := os.ReadDir(fdir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("failure dir entries = %v (err %v)", entries, err)
	}
	b, err := durable.ReadBundle(filepath.Join(fdir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != "handler" || !strings.Contains(b.Error, "synthetic handler bug") || b.Stack == "" {
		t.Fatalf("handler bundle = kind %q, error %q, %d stack bytes", b.Kind, b.Error, len(b.Stack))
	}
}
