package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"regexp"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/randql"
)

// The serve-path window: randql default-grammar case seeds
// servePathSeed up to servePathSeed+servePathCases, solved under a
// small per-goal node budget so every case finishes quickly under
// -race. Cases the budget leaves partial are skipped and counted.
const (
	servePathSeed  = 1
	servePathCases = 16
	servePathNodes = 1 << 12
)

// TestServePathsByteIdentical: for every complete case of a randql
// seed window, each daemon serve path returns the library path's suite
// bytes — a standalone cache miss and then a memory hit, a fleet
// forward to the key's owner, a forced degrade to a local solve across
// a partition, and a restart of the disk-warm daemon. Bodies are
// compared after normalizeServed; the memory hit must equal the miss
// byte for byte.
func TestServePathsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("serve-path property skipped in -short mode")
	}
	tune := func(c *Config) { c.MaxGoalNodes = servePathNodes }
	cfg := Config{MaxConcurrent: 4, MaxTimeout: 20 * time.Second, MaxGoalTimeout: 5 * time.Second, CacheDir: t.TempDir()}
	tune(&cfg)
	s, ts := newTestServer(t, cfg)
	nodes := startFleet(t, 2, tune)

	type servedCase struct {
		seed int64
		req  GenerateRequest
		want []byte
	}
	var cases []servedCase
	partial := 0
	for seed := int64(servePathSeed); seed < servePathSeed+servePathCases; seed++ {
		c, err := randql.NewCase(seed, randql.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		req := GenerateRequest{DDL: c.Schema.String(), Query: c.SQL}
		q, suite, err := libraryGenerate(t, s, req.DDL, req.Query)
		if errors.Is(err, core.ErrPartialSuite) {
			partial++
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: library generate: %v", seed, err)
		}
		want, err := json.Marshal(encodeSuite(suite, q.Schema))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, servedCase{seed: seed, req: req, want: normalizeServed(want)})
	}
	t.Logf("%d complete cases compared on every serve path, %d partial cases skipped", len(cases), partial)
	if len(cases) < servePathCases/2 {
		t.Fatalf("only %d of %d cases have a complete library suite", len(cases), servePathCases)
	}

	serve := func(path string, sc servedCase, url string) (GenerateResponse, []byte) {
		t.Helper()
		status, body := postRaw(t, url+"/v1/generate", sc.req)
		if status != http.StatusOK {
			t.Fatalf("seed %d, %s: status %d\n%s", sc.seed, path, status, body)
		}
		if got := normalizeServed(body); !bytes.Equal(got, sc.want) {
			t.Fatalf("seed %d, %s: body differs from the library path\nserved:  %s\nlibrary: %s", sc.seed, path, got, sc.want)
		}
		var decoded GenerateResponse
		if err := json.Unmarshal(body, &decoded); err != nil {
			t.Fatalf("seed %d, %s: %v", sc.seed, path, err)
		}
		return decoded, body
	}
	// entry is the fleet node that does not own the case's key.
	entry := func(sc servedCase) (in, owner *fleetNode) {
		if keyOwner(t, nodes[0].svc, sc.req.DDL, sc.req.Query) == nodes[0].addr {
			return nodes[1], nodes[0]
		}
		return nodes[0], nodes[1]
	}

	for _, sc := range cases {
		_, miss := serve("standalone miss", sc, ts.URL)
		if _, hit := serve("standalone memory hit", sc, ts.URL); !bytes.Equal(hit, miss) {
			t.Fatalf("seed %d: memory hit differs from the miss it cached\nhit:  %s\nmiss: %s", sc.seed, hit, miss)
		}
	}
	for _, sc := range cases {
		in, owner := entry(sc)
		if got, _ := serve("fleet forward", sc, "http://"+in.addr); got.ServedBy != owner.addr || got.Degraded {
			t.Fatalf("seed %d: forward served_by %q degraded %v, want the owner %s", sc.seed, got.ServedBy, got.Degraded, owner.addr)
		}
	}
	nodes[0].transport.setBlocked(nodes[1].addr, true)
	nodes[1].transport.setBlocked(nodes[0].addr, true)
	for _, sc := range cases {
		in, _ := entry(sc)
		if got, _ := serve("forced degrade", sc, "http://"+in.addr); !got.Degraded || got.ServedBy != in.addr {
			t.Fatalf("seed %d: partitioned serve degraded %v served_by %q, want a degraded local serve by %s", sc.seed, got.Degraded, got.ServedBy, in.addr)
		}
	}
	ts.Close()
	s.Close()
	s2, ts2 := newTestServer(t, cfg)
	defer s2.Close()
	for _, sc := range cases {
		if got, _ := serve("disk-warm restart", sc, ts2.URL); got.ServedFrom != "disk" {
			t.Fatalf("seed %d: restarted daemon served_from %q, want disk", sc.seed, got.ServedFrom)
		}
	}
}

var (
	servedDecoration = regexp.MustCompile(`,"(served_by|served_from)":"[^"]*"|,"degraded":true`)
	servedSolveTimes = regexp.MustCompile(`"(SolveTime|TotalTime)":-?[0-9]+`)
)

// normalizeServed strips what may differ between serve paths of one
// suite — the served_by, served_from and degraded fields and the solve
// times in stats — so the rest compares byte for byte (the rule
// perfbench's fleet oracle applies).
func normalizeServed(body []byte) []byte {
	body = servedDecoration.ReplaceAll(bytes.TrimSpace(body), nil)
	return servedSolveTimes.ReplaceAll(body, []byte(`"$1":0`))
}
