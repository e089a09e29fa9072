package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/testutil"
)

// partitionTransport is the fault hook for network partitions: a
// RoundTripper that refuses connections to blocked host:port targets.
// Each node gets its own instance so a partition can be asymmetric
// (A cannot reach B while C still can).
type partitionTransport struct {
	base    http.RoundTripper
	mu      sync.Mutex
	blocked map[string]bool
}

func newPartitionTransport() *partitionTransport {
	return &partitionTransport{
		base:    &http.Transport{MaxIdleConnsPerHost: 16},
		blocked: make(map[string]bool),
	}
}

func (p *partitionTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	p.mu.Lock()
	blocked := p.blocked[r.URL.Host]
	p.mu.Unlock()
	if blocked {
		return nil, fmt.Errorf("partition: %s unreachable", r.URL.Host)
	}
	return p.base.RoundTrip(r)
}

func (p *partitionTransport) setBlocked(target string, blocked bool) {
	p.mu.Lock()
	p.blocked[target] = blocked
	p.mu.Unlock()
}

// fleetNode is one in-process fleet member: a NewFleet server on a
// real TCP listener (real sockets, so an abrupt stop behaves like a
// killed process: in-flight connections die, new dials are refused).
type fleetNode struct {
	svc       *Server
	httpSrv   *http.Server
	addr      string
	transport *partitionTransport
	serveDone chan struct{}
	stopOnce  sync.Once
}

// stop kills the node abruptly — listener and all active connections
// closed mid-flight, no drain — the in-process stand-in for kill -9.
// Safe to call from multiple goroutines (the chaos soak races a timer
// against the burst's completion).
func (n *fleetNode) stop() {
	n.stopOnce.Do(func() {
		n.httpSrv.Close()
		<-n.serveDone
		n.svc.Close()
	})
}

// startFleet builds an n-node fleet with fast failure-handling knobs.
func startFleet(t *testing.T, n int) []*fleetNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("fleet listener %d: %v", i, err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		pt := newPartitionTransport()
		svc, err := NewFleet(Config{
			MaxConcurrent:  4,
			MaxQueue:       256,
			QueueWait:      10 * time.Second,
			MaxTimeout:     20 * time.Second,
			MaxGoalTimeout: 5 * time.Second,
			Advertise:      addrs[i],
			Peers:          peers,
			Fleet: &fleet.Config{
				HopTimeout:       2 * time.Second,
				RetryBudget:      2,
				BackoffBase:      time.Millisecond,
				BackoffCap:       10 * time.Millisecond,
				BreakerThreshold: 2,
				BreakerCooldown:  150 * time.Millisecond,
				HealthInterval:   25 * time.Millisecond,
				Transport:        pt,
			},
		})
		if err != nil {
			t.Fatalf("fleet node %d: %v", i, err)
		}
		node := &fleetNode{
			svc:       svc,
			httpSrv:   &http.Server{Handler: svc.Handler()},
			addr:      addrs[i],
			transport: pt,
			serveDone: make(chan struct{}),
		}
		go func(ln net.Listener) {
			defer close(node.serveDone)
			_ = node.httpSrv.Serve(ln)
		}(listeners[i])
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.stop()
		}
	})
	return nodes
}

// keyOwner computes the advertised address owning (ddl, query) under
// zero-valued request options — the node a forwarded request lands on.
func keyOwner(t *testing.T, s *Server, ddl, query string) string {
	t.Helper()
	sch, q, err := s.prepare(ddl, query)
	if err != nil {
		t.Fatalf("keyOwner prepare: %v", err)
	}
	_, opts := s.clamp(RequestOptions{})
	return s.router.Owner(fleet.ContentKey(sch, q, opts))
}

// fleetQueriesByOwner probes salary-constant variants of the test
// query until every node owns at least perNode of them. Listener ports
// are random, so ownership must be discovered at runtime.
func fleetQueriesByOwner(t *testing.T, nodes []*fleetNode, perNode int) map[string][]string {
	t.Helper()
	byOwner := make(map[string][]string, len(nodes))
	for salary := 50; salary < 400; salary++ {
		q := fmt.Sprintf(`SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > %d`, salary)
		owner := keyOwner(t, nodes[0].svc, testDDL, q)
		if len(byOwner[owner]) < perNode {
			byOwner[owner] = append(byOwner[owner], q)
		}
		done := len(byOwner) == len(nodes)
		for _, qs := range byOwner {
			done = done && len(qs) >= perNode
		}
		if done {
			return byOwner
		}
	}
	t.Fatalf("could not spread %d queries per node over %d nodes", perNode, len(nodes))
	return nil
}

// fleetPost posts query to the given node and returns status, raw
// body, and the decoded response.
func fleetPost(t *testing.T, addr, query string) (int, []byte, GenerateResponse) {
	t.Helper()
	raw, _ := json.Marshal(GenerateRequest{DDL: testDDL, Query: query})
	resp, err := http.Post("http://"+addr+"/v1/generate", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", addr, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var decoded GenerateResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusMultiStatus {
		if err := json.Unmarshal(body, &decoded); err != nil {
			t.Fatalf("decode (%d): %v\n%s", resp.StatusCode, err, body)
		}
	}
	return resp.StatusCode, body, decoded
}

// TestFleetRoutingAndCacheCoherence: every entry node serves the same
// query with the same bytes — forwarded to the key's ring owner, whose
// cache makes repeat serves byte-identical fleet-wide — and served_by
// names the owner.
func TestFleetRoutingAndCacheCoherence(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet test skipped in -short mode")
	}
	nodes := startFleet(t, 3)
	byOwner := fleetQueriesByOwner(t, nodes, 1)

	for owner, queries := range byOwner {
		query := queries[0]
		expect := libraryExpect(t, nodes[0].svc, testDDL, query)
		// Prime through one entry, then fetch through every node: all
		// three bodies must be the owner's cached bytes, verbatim.
		var bodies [][]byte
		for _, node := range nodes {
			status, body, decoded := fleetPost(t, node.addr, query)
			if status != http.StatusOK {
				t.Fatalf("entry %s query %q: status %d, want 200", node.addr, query, status)
			}
			requireSameSuite(t, decoded, expect)
			if decoded.ServedBy != owner {
				t.Fatalf("served_by %q, want ring owner %q", decoded.ServedBy, owner)
			}
			if decoded.Degraded {
				t.Fatal("healthy fleet must not serve degraded")
			}
			bodies = append(bodies, body)
		}
		for i := 1; i < len(bodies); i++ {
			if !bytes.Equal(bodies[0], bodies[i]) {
				t.Fatalf("entry nodes disagree on cached bytes for %q:\n%s\nvs\n%s", query, bodies[0], bodies[i])
			}
		}
	}

	var forwards, hits int64
	for _, node := range nodes {
		c := node.svc.Counters()
		forwards += c.RouterCounters.Forwards
		hits += c.CacheCounters.Hits
	}
	// 3 queries × 3 entries: each query's two non-owner entries forward.
	if forwards < 6 {
		t.Fatalf("forwards %d, want >= 6", forwards)
	}
	if hits < 3 {
		t.Fatalf("cache hits %d, want >= 3 (repeat serves from the owner's cache)", hits)
	}
}

// TestFleetEpochInvalidation: POST /admin/epoch on the owner retires
// its cached entries; the next request recomputes and still matches
// the library path (a stale-epoch entry is never served).
func TestFleetEpochInvalidation(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet test skipped in -short mode")
	}
	nodes := startFleet(t, 3)
	byOwner := fleetQueriesByOwner(t, nodes, 1)
	for owner, queries := range byOwner {
		query := queries[0]
		if _, _, decoded := fleetPost(t, nodes[0].addr, query); decoded.ServedBy != owner {
			t.Fatalf("prime: served_by %q, want %q", decoded.ServedBy, owner)
		}
		resp, err := http.Post("http://"+owner+"/admin/epoch", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()

		var ownerNode *fleetNode
		for _, n := range nodes {
			if n.addr == owner {
				ownerNode = n
			}
		}
		missesBefore := ownerNode.svc.Counters().CacheCounters.Misses
		status, _, decoded := fleetPost(t, nodes[1].addr, query)
		if status != http.StatusOK {
			t.Fatalf("post-epoch status %d", status)
		}
		requireSameSuite(t, decoded, libraryExpect(t, nodes[0].svc, testDDL, query))
		if got := ownerNode.svc.Counters().CacheCounters.Misses; got <= missesBefore {
			t.Fatalf("epoch bump must force a recompute: misses %d -> %d", missesBefore, got)
		}
		break // one owner suffices
	}
}

// TestFleetChaosSoak is the fleet acceptance soak: a 3-node fleet
// takes a concurrent burst spread over every entry node while one
// member is killed abruptly mid-burst (listener and in-flight
// connections die without drain) and, afterwards, a network partition
// cuts one survivor off from the other. Requirements: zero lost
// requests (every request to a live node gets a 200), every suite
// matches the library path, dead-owner keys degrade to correct local
// serves, breakers open, and the partition heals back to forwarding —
// with no goroutine leaks once the fleet is shut down.
func TestFleetChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet chaos soak skipped in -short mode")
	}
	before := testutil.GoroutineSnapshot()

	nodes := startFleet(t, 3)
	byOwner := fleetQueriesByOwner(t, nodes, 2)
	var queries []string
	expect := make(map[string]GenerateResponse)
	for _, qs := range byOwner {
		for _, q := range qs {
			queries = append(queries, q)
			expect[q] = libraryExpect(t, nodes[0].svc, testDDL, q)
		}
	}
	victim := nodes[2]
	survivors := []*fleetNode{nodes[0], nodes[1]}

	// --- Healthy burst through every entry node.
	runBurst := func(entries []*fleetNode, clients, perClient int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, clients*perClient)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					query := queries[(c+i)%len(queries)]
					entry := entries[(c+i)%len(entries)]
					raw, _ := json.Marshal(GenerateRequest{DDL: testDDL, Query: query})
					resp, err := http.Post("http://"+entry.addr+"/v1/generate", "application/json", bytes.NewReader(raw))
					if err != nil {
						errs <- fmt.Errorf("lost request to live node %s: %v", entry.addr, err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errs <- fmt.Errorf("lost response body: %v", err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("query %q via %s: status %d body %s", query, entry.addr, resp.StatusCode, body)
						return
					}
					var decoded GenerateResponse
					if err := json.Unmarshal(body, &decoded); err != nil {
						errs <- err
						return
					}
					want := expect[query]
					if decoded.Original == nil || decoded.Original.Inserts != want.Original.Inserts || len(decoded.Datasets) != len(want.Datasets) {
						errs <- fmt.Errorf("query %q via %s: suite differs from library path", query, entry.addr)
						return
					}
					for j := range decoded.Datasets {
						if decoded.Datasets[j] != want.Datasets[j] {
							errs <- fmt.Errorf("query %q via %s: dataset %d differs", query, entry.addr, j)
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	runBurst(nodes, 12, 3)

	// --- Kill one member abruptly mid-burst. The burst targets only
	// the survivors as entries (requests to a kill -9'd process are a
	// client-side connection error, not a service loss), but keys owned
	// by the victim keep arriving and must degrade to correct local
	// serves on whichever survivor got them.
	killDelay := time.AfterFunc(30*time.Millisecond, victim.stop)
	defer killDelay.Stop()
	runBurst(survivors, 12, 4)
	victim.stop() // in case the burst finished before the timer
	// A fast machine can finish the whole burst from cache before the
	// kill timer fires; this post-kill burst guarantees victim-owned
	// keys arrive while the victim is down, so the degrade path is
	// exercised deterministically.
	runBurst(survivors, 12, 2)

	var degraded, breakerOpens int64
	for _, n := range survivors {
		c := n.svc.Counters()
		degraded += c.DegradedServes
		breakerOpens += c.RouterCounters.BreakerOpens
	}
	if degraded == 0 {
		t.Fatal("no degraded serve recorded: victim-owned keys must fall back to local solves")
	}
	if breakerOpens == 0 {
		t.Fatal("no breaker opened against the killed node")
	}

	// --- Partition: survivor 0 loses its path to survivor 1. Keys
	// owned by node 1 entering node 0 must degrade, not fail.
	s0, s1 := survivors[0], survivors[1]
	s0.transport.setBlocked(s1.addr, true)
	var s1Query string
	for _, q := range byOwner[s1.addr] {
		s1Query = q
	}
	degradedBefore := s0.svc.Counters().DegradedServes
	status, _, decoded := fleetPost(t, s0.addr, s1Query)
	if status != http.StatusOK {
		t.Fatalf("partitioned entry: status %d, want 200", status)
	}
	requireSameSuite(t, decoded, expect[s1Query])
	if !decoded.Degraded || decoded.ServedBy != s0.addr {
		t.Fatalf("partitioned serve: degraded=%v served_by=%q, want degraded local serve by %s", decoded.Degraded, decoded.ServedBy, s0.addr)
	}
	if got := s0.svc.Counters().DegradedServes; got <= degradedBefore {
		t.Fatalf("degraded_serves did not move across the partition: %d -> %d", degradedBefore, got)
	}

	// --- Heal: the health poll's half-open probe must re-close the
	// breaker and forwarding must resume.
	s0.transport.setBlocked(s1.addr, false)
	// The health poll's next cycle is the half-open probe that re-closes
	// s1's breaker; until then requests keep degrading locally (which is
	// correct), so poll the observable outcome: the serve moves back to
	// the owner without the degraded mark.
	forwardsBefore := s0.svc.router.Counters().Forwards
	testutil.WaitUntil(t, 5*time.Second, func() bool {
		status, _, decoded := fleetPost(t, s0.addr, s1Query)
		if status != http.StatusOK {
			t.Fatalf("post-heal request: status %d, want 200", status)
		}
		requireSameSuite(t, decoded, expect[s1Query])
		return decoded.ServedBy == s1.addr && !decoded.Degraded
	}, "forwarding to resume after partition heal")
	if got := s0.svc.router.Counters().Forwards; got <= forwardsBefore {
		t.Fatalf("forwards did not resume after heal: %d -> %d", forwardsBefore, got)
	}

	// --- Post-mortem: drain the survivors cleanly, assert counter
	// conservation (every admitted request in a terminal bucket), tear
	// everything down, and require no leaked goroutines.
	for _, n := range survivors {
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := n.svc.Drain(drainCtx); err != nil {
			t.Fatalf("survivor drain: %v", err)
		}
		cancel()
		c := n.svc.Counters()
		if got := c.Admitted - (c.Completed + c.Partial + c.Failed + c.Rejected + c.ClientDisconnects); got > 0 {
			t.Fatalf("%d admitted requests unaccounted for on %s: %+v", got, n.addr, c)
		}
		if c.InFlight != 0 {
			t.Fatalf("in-flight after drain on %s: %d", n.addr, c.InFlight)
		}
	}
	for _, n := range nodes {
		n.stop()
	}
	testutil.RequireNoGoroutineLeak(t, before, 3)
}
