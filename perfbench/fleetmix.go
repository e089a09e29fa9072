package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/limits"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/service"
	"repro/internal/sqlparser"
)

const (
	fleetMembers = 2
	// analyzeOfGroup in every mixGroup requests go to /v1/analyze, the
	// rest to /v1/generate.
	analyzeOfGroup, mixGroup = 3, 10
	// zipfS skews the generate keys: a few hot keys, a long tail.
	zipfS = 1.1
	// memTierBytes caps each member's memory tier below the distinct-key
	// working set, so repeats are served from memory or from disk.
	memTierBytes = 96 << 10
)

type member struct {
	name   string // advertised fleet name
	addr   string // listener address
	svc    *service.Server
	srv    *http.Server
	done   chan struct{}
	client *http.Client
}

// fleetRun is one in-process fleet with its cache directories.
type fleetRun struct {
	dir     string
	members []*member
	sent    int // requests sent to /v1/generate and /v1/analyze
}

func startFleet() (*fleetRun, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleetRun{dir: dir}
	lns := make([]net.Listener, fleetMembers)
	addrs := make([]string, fleetMembers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			os.RemoveAll(dir)
			return nil, fmt.Errorf("fleet listen: %w", err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	// Members advertise fixed names that the routers' transports resolve
	// to the listeners' ports. The consistent-hash ring is built over the
	// names, so every run splits the keys between members the same way;
	// over the ephemeral addresses the split changed from run to run and
	// moved p90 by half.
	names := make([]string, fleetMembers)
	resolve := map[string]string{}
	for i := range names {
		names[i] = fmt.Sprintf("member%d:80", i)
		resolve[names[i]] = addrs[i]
	}
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := resolve[addr]; ok {
			addr = a
		}
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
	lim := limits.Default()
	lim.MaxCacheBytes = memTierBytes
	for i := range lns {
		cfg := service.Config{
			Advertise: names[i], CacheDir: filepath.Join(dir, fmt.Sprint(i)), Limits: lim,
			Fleet: &fleet.Config{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DialContext: dial}},
		}
		for j, n := range names {
			if j != i {
				cfg.Peers = append(cfg.Peers, n)
			}
		}
		svc, err := service.NewFleet(cfg)
		if err == nil && svc.DurableWarning() != "" {
			svc.Close()
			err = fmt.Errorf("disk tier: %s", svc.DurableWarning())
		}
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.stop()
			return nil, fmt.Errorf("fleet member %d: %w", i, err)
		}
		m := &member{
			name: names[i], addr: addrs[i], svc: svc, srv: &http.Server{Handler: svc.Handler()}, done: make(chan struct{}),
			// One keep-alive connection per member: at most nproc = 2.
			client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		}
		go func(ln net.Listener) {
			defer close(m.done)
			_ = m.srv.Serve(ln) // returns ErrServerClosed on stop
		}(lns[i])
		f.members = append(f.members, m)
	}
	return f, nil
}

// stop drains every member, waits for its server goroutine, and removes
// the cache directories.
func (f *fleetRun) stop() {
	for _, m := range f.members {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = m.svc.Drain(ctx)
		_ = m.srv.Shutdown(ctx)
		cancel()
		<-m.done
		m.svc.Close()
		m.client.CloseIdleConnections()
	}
	os.RemoveAll(f.dir)
}

func (f *fleetRun) post(m *member, path string, body []byte) (int, []byte, error) {
	f.sent++
	return postOnce(m, path, body)
}

// statsz sums every numeric /statsz field across members, keyed by its
// dotted JSON path, so no counter can be left out of the sum.
func (f *fleetRun) statsz() (map[string]float64, error) {
	sum := map[string]float64{}
	for _, m := range f.members {
		resp, err := m.client.Get("http://" + m.addr + "/statsz")
		if err != nil {
			return nil, err
		}
		var v any
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("statsz: %w", err)
		}
		flatten("", v, sum)
	}
	return sum, nil
}

func flatten(prefix string, v any, out map[string]float64) {
	switch t := v.(type) {
	case float64:
		out[prefix] += t
	case map[string]any:
		for k, x := range t {
			if prefix != "" {
				k = prefix + "." + k
			}
			flatten(k, x, out)
		}
	}
}

// fleetReq is one planned request and what happened to it. Each is
// written by the one worker that owns its member.
type fleetReq struct {
	member  int
	item    int
	analyze bool

	// ready is when the client could send: the previous response on its
	// connection had arrived. sent and done bound the HTTP call. All
	// three are offsets from the window start.
	ready, sent, done time.Duration
	status            int
	err               error
	digest            uint64 // FNV-64a of the normalized body
	size              int    // normalized body bytes
	forwarded         bool   // served_by names another member than the entry
	disk              bool   // served_from is "disk"
	// body is kept only for a worker's first sighting of an item and
	// endpoint, whose stats describe the solve done for it.
	body []byte
}

// record checks in the response of r, reading what the oracle and the
// per-layer metrics need, so that only first sightings keep their body.
func (r *fleetReq) record(self string, body []byte, first map[[2]int]bool) {
	if r.err != nil || r.status != http.StatusOK {
		return
	}
	norm := normalize(body)
	h := fnv.New64a()
	h.Write(norm)
	r.digest, r.size = h.Sum64(), len(norm)
	if by := field(body, `"served_by":"`); by != "" {
		r.forwarded = by != self
	}
	r.disk = field(body, `"served_from":"`) == "disk"
	key := [2]int{r.item, 0}
	if r.analyze {
		key[1] = 1
	}
	if !first[key] {
		first[key] = true
		r.body = body
	}
}

// field returns the string value after the last occurrence of prefix.
func field(body []byte, prefix string) string {
	i := bytes.LastIndex(body, []byte(prefix))
	if i < 0 {
		return ""
	}
	rest := body[i+len(prefix):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// mixer draws one client's seeded request sequence: generate keys Zipf
// over the shared popularity order hot, analyzes over the variants.
type mixer struct {
	rng            *rand.Rand
	zipf           *rand.Zipf
	hot, variants  []int
	analyze, group []int
}

func newMixer(seed int64, hot, variants []int) *mixer {
	rng := rand.New(rand.NewSource(seed))
	return &mixer{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(hot)-1)), hot: hot, variants: variants}
}

// next returns the pool index of the next request and whether it is an
// analyze. Each group of mixGroup consecutive requests holds exactly
// analyzeOfGroup analyzes at seeded positions, and analyzes walk whole
// seeded permutations of the variants: p90 falls inside the analyze
// latencies, whose spread across variants is wide, so a mix that drifted
// from block to block moved it.
func (m *mixer) next() (item int, analyze bool) {
	if len(m.group) == 0 {
		m.group = m.rng.Perm(mixGroup)
	}
	slot := m.group[0]
	m.group = m.group[1:]
	if slot >= analyzeOfGroup {
		return m.hot[m.zipf.Uint64()], false
	}
	if len(m.analyze) == 0 {
		for _, j := range m.rng.Perm(len(m.variants)) {
			m.analyze = append(m.analyze, m.variants[j])
		}
	}
	item, m.analyze = m.analyze[0], m.analyze[1:]
	return item, true
}

type bodies struct{ generate, analyze [][]byte }

func requestBodies(pool []*cell) (bodies, error) {
	var bs bodies
	for _, c := range pool {
		g, err := json.Marshal(service.GenerateRequest{DDL: c.ddl, Query: c.sql})
		if err != nil {
			return bs, err
		}
		a, err := json.Marshal(service.AnalyzeRequest{GenerateRequest: service.GenerateRequest{DDL: c.ddl, Query: c.sql}})
		if err != nil {
			return bs, err
		}
		bs.generate = append(bs.generate, g)
		bs.analyze = append(bs.analyze, a)
	}
	return bs, nil
}

// runFleetMix is the fleet_mix workload: a closed loop of one client per
// member of a 2-member in-process fleet whose members each have a memory
// tier smaller than the working set over a disk tier that holds all of
// it. An open loop at a fixed rate was tried first: on a 2-vCPU VM its
// p90 differed by up to 2x between runs of one seed (vCPU wake-up and
// scheduling delays while partly idle), beyond any usable bound.
func runFleetMix(b *bench) error {
	var (
		pool []*cell
		bs   bodies
		f    *fleetRun
	)
	teardown, err := b.setupRepeated(func() (func(), error) {
		p, _, err := gradingPool(corpusSeed)
		if err != nil {
			return nil, err
		}
		if bs, err = requestBodies(p); err != nil {
			return nil, err
		}
		pool = p
		if f, err = startFleet(); err != nil {
			return nil, err
		}
		// Warm-up: one analyze per member, which is never cached.
		for i, m := range f.members {
			item := len(pool) - 1 - i
			if status, _, err := f.post(m, "/v1/analyze", bs.analyze[item]); err != nil || status != http.StatusOK {
				f.stop()
				return nil, fmt.Errorf("fleet warm-up: status %d: %v", status, err)
			}
		}
		return f.stop, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	// Key popularity is shared; each client draws its own sequence.
	rng := rand.New(rand.NewSource(b.cfg.seed))
	hot := rng.Perm(len(pool))
	var variants []int
	for i, c := range pool {
		if c.variant {
			variants = append(variants, i)
		}
	}
	perClient := make([][]fleetReq, fleetMembers)
	from := snapshot()
	start := from.at
	mem := startMemSampler()
	var wg sync.WaitGroup
	for mi, m := range f.members {
		wg.Add(1)
		go func(mi int, m *member, mx *mixer) {
			defer wg.Done()
			first := map[[2]int]bool{}
			var ready time.Duration
			for {
				r := fleetReq{member: mi, ready: ready, sent: time.Since(start)}
				if r.sent.Seconds() >= b.cfg.seconds {
					return
				}
				r.item, r.analyze = mx.next()
				path, body := "/v1/generate", bs.generate[r.item]
				if r.analyze {
					path, body = "/v1/analyze", bs.analyze[r.item]
				}
				var resp []byte
				r.status, resp, r.err = postOnce(m, path, body)
				r.done = time.Since(start)
				ready = r.done
				r.record(m.name, resp, first)
				perClient[mi] = append(perClient[mi], r)
			}
		}(mi, m, newMixer(b.cfg.seed*fleetMembers+int64(mi)+1, hot, variants))
	}
	// Snapshot usage at every block boundary while the workers run.
	marks := []usage{from}
	stop, ticked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticked)
		t := time.NewTicker(blockLength)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				marks = append(marks, snapshot())
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-ticked
	marks = append(marks, snapshot())
	mem.finish()
	to := marks[len(marks)-1]
	var reqs []fleetReq
	for _, rs := range perClient {
		reqs = append(reqs, rs...)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].sent < reqs[j].sent })
	f.sent += len(reqs)

	stats, err := f.statsz()
	if err != nil {
		return err
	}
	ok := b.verifyFleet(reqs, pool)
	samples := make([]sample, len(reqs))
	for i, r := range reqs {
		samples[i] = sample{
			ms:     float64(r.done-r.sent) / 1e6,
			lateMS: float64(r.sent-r.ready) / 1e6,
			ok:     ok[i],
			traced: true,
			item:   -1,
			block:  int(r.done / blockLength),
		}
		b.attempted++
		if !ok[i] {
			b.failed++
		}
	}
	var gen, ana []float64
	for i, r := range reqs {
		if r.analyze {
			ana = append(ana, samples[i].ms)
		} else {
			gen = append(gen, samples[i].ms)
		}
	}
	sort.Float64s(gen)
	sort.Float64s(ana)
	b.note("latency by endpoint (ms): generate p50 %.4f p90 %.4f over %d; analyze p50 %.4f p67 %.4f p90 %.4f over %d",
		quantile(gen, 0.5), quantile(gen, 0.9), len(gen), quantile(ana, 0.5), quantile(ana, 0.67), quantile(ana, 0.9), len(ana))
	b.checkReceived(stats, f.sent)
	ws := workingSet(reqs)
	b.note("corpus: %d pool items, %d requests (closed loop, %d clients, one keep-alive connection to each of %d members), %d distinct generate keys, memory tier %d B/member vs working set %d B",
		len(pool), len(reqs), fleetMembers, fleetMembers, ws.keys, memTierBytes, ws.bytes)
	if !b.cfg.trace {
		b.endToEnd(samples, marks, mem)
		return nil
	}
	b.runtimeLayer(samples, from, to)
	b.fleetLayers(reqs, stats, ws)
	b.traceLayer(samples, false)
	b.note("fleet spans are assembled after the window from timestamps every run records, so tracing adds no work inside it")
	b.zeroLayers()
	return nil
}

func postOnce(m *member, path string, body []byte) (int, []byte, error) {
	resp, err := m.client.Post("http://"+m.addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// normalize strips the serve-path decoration (served_by, served_from,
// degraded: appended last by the service) and zeroes the wall-clock
// solve times, the only bytes allowed to differ from the library path.
// Escaped quotes inside string values keep the patterns from matching
// there.
func normalize(body []byte) []byte {
	out := append([]byte(nil), bytes.TrimSpace(body)...)
	for _, f := range []string{`,"served_by":"`, `,"served_from":"`} {
		if i := bytes.LastIndex(out, []byte(f)); i >= 0 {
			if j := bytes.IndexByte(out[i+len(f):], '"'); j >= 0 {
				out = append(out[:i], out[i+len(f)+j+1:]...)
			}
		}
	}
	if i := bytes.LastIndex(out, []byte(`,"degraded":true`)); i >= 0 {
		out = append(out[:i], out[i+len(`,"degraded":true`):]...)
	}
	for _, f := range []string{`"SolveTime":`, `"TotalTime":`} {
		if i := bytes.LastIndex(out, []byte(f)); i >= 0 {
			start := i + len(f)
			end := start
			for end < len(out) && (out[end] == '-' || out[end] >= '0' && out[end] <= '9') {
				end++
			}
			out = append(append(out[:start], '0'), out[end:]...)
		}
	}
	return out
}

// verifyFleet is the untimed oracle pass: every request must have
// returned 200 with a body byte-identical to the library path's.
func (b *bench) verifyFleet(reqs []fleetReq, pool []*cell) []bool {
	want := map[[2]int]uint64{}
	ok := make([]bool, len(reqs))
	for i, r := range reqs {
		if !b.check(r.err == nil && r.status == http.StatusOK, "%s: status %d: %v", pool[r.item].name, r.status, r.err) {
			continue
		}
		key := [2]int{r.item, 0}
		if r.analyze {
			key[1] = 1
		}
		exp, seen := want[key]
		if !seen {
			body, err := libraryBody(pool[r.item], r.analyze)
			if err != nil {
				b.fail("%s: library path: %v", pool[r.item].name, err)
				continue
			}
			h := fnv.New64a()
			h.Write(body)
			exp = h.Sum64()
			want[key] = exp
		}
		ok[i] = b.check(r.digest == exp, "%s (analyze %v): body differs from the library path", pool[r.item].name, r.analyze)
	}
	return ok
}

// libraryBody builds the response the library path gives for a cell,
// normalized like served bodies.
func libraryBody(c *cell, analyze bool) ([]byte, error) {
	sch, err := sqlparser.ParseSchema(c.ddl)
	if err != nil {
		return nil, err
	}
	q, err := qtree.BuildSQL(sch, c.sql)
	if err != nil {
		return nil, err
	}
	suite, err := core.NewGenerator(q, core.DefaultOptions()).Generate()
	if err != nil {
		return nil, err
	}
	resp := service.GenerateResponse{Complete: len(suite.Incomplete) == 0, Datasets: []service.DatasetJSON{}, Stats: suite.Stats}
	if suite.Original != nil {
		resp.Original = &service.DatasetJSON{Purpose: suite.Original.Purpose, Inserts: suite.Original.SQLInserts(sch)}
	}
	for _, ds := range suite.Datasets {
		resp.Datasets = append(resp.Datasets, service.DatasetJSON{Purpose: ds.Purpose, Inserts: ds.SQLInserts(sch)})
	}
	for _, sk := range suite.Skipped {
		resp.Skipped = append(resp.Skipped, service.SkipJSON{Purpose: sk.Purpose, Reason: sk.Reason})
	}
	var body any = resp
	if analyze {
		space, err := mutation.Space(q, mutation.DefaultOptions())
		if err != nil {
			return nil, err
		}
		rep, err := mutation.Evaluate(q, space, suite.All())
		if err != nil {
			return nil, err
		}
		a := service.AnalyzeResponse{GenerateResponse: resp, Mutants: len(space), Killed: rep.KilledCount()}
		for _, mi := range rep.Survivors() {
			a.Survivors = append(a.Survivors, space[mi].Desc)
		}
		kills := rep.KillsByKind()
		for _, kind := range []mutation.Kind{mutation.KindJoinType, mutation.KindComparison, mutation.KindAggregate} {
			if kk, ok := kills[kind]; ok {
				a.ByKind = append(a.ByKind, service.KindKillsJSON{Kind: string(kind), Killed: kk[0], Total: kk[1]})
			}
		}
		body = a
	}
	p, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return normalize(p), nil
}

// checkReceived asserts that the summed received counter equals the
// requests sent plus the forwards, when no retry, hedge or forward
// error could have added requests.
func (b *bench) checkReceived(stats map[string]float64, sent int) {
	if stats["forward_retries"] != 0 || stats["hedges"] != 0 || stats["forward_errors"] != 0 {
		b.note("received check skipped: %v retries, %v hedges, %v forward errors", stats["forward_retries"], stats["hedges"], stats["forward_errors"])
		return
	}
	want := float64(sent) + stats["forwards"]
	b.check(stats["received"] == want, "statsz received %v, want %d sent + %v forwards", stats["received"], sent, stats["forwards"])
	b.note("statsz (summed over %d members, %d numeric fields): received %v = %d sent + %v forwards",
		fleetMembers, len(stats), stats["received"], sent, stats["forwards"])
}

type working struct {
	keys  int
	bytes int
}

// workingSet counts the distinct generate keys requested and the bytes
// of their response bodies.
func workingSet(reqs []fleetReq) working {
	size := map[int]int{}
	for _, r := range reqs {
		if !r.analyze && r.size > 0 {
			size[r.item] = r.size
		}
	}
	w := working{keys: len(size)}
	for _, n := range size {
		w.bytes += n
	}
	return w
}

// fleetLayers sets the service, fleet, durable, core and solver
// per-layer metrics and builds the spans of the traced run.
func (b *bench) fleetLayers(reqs []fleetReq, stats map[string]float64, ws working) {
	var genMS, anaMS, fwdMS, localMS, diskMS []float64
	seen := map[int]bool{}
	var st core.Stats
	var fresh, datasets, skipped, incomplete int
	tr := b.tr
	for i, r := range reqs {
		root := tr.add(cRequest, -1, int32(i), int64(r.ready), int64(r.done))
		c := cPostGenerate
		if r.analyze {
			c = cPostAnalyze
		}
		svc := tr.add(c, root, int32(i), int64(r.sent), int64(r.done))
		ms := float64(r.done-r.sent) / 1e6
		if r.analyze {
			anaMS = append(anaMS, ms)
		} else {
			genMS = append(genMS, ms)
			if r.forwarded {
				fwdMS = append(fwdMS, ms)
			} else {
				localMS = append(localMS, ms)
			}
			if r.disk {
				diskMS = append(diskMS, ms)
			}
		}
		// A first sighting of a generate key, or an analyze, was solved
		// for this request: its body's stats describe this request's work.
		// Bodies are kept for each worker's first sighting only.
		if r.body == nil || (!r.analyze && seen[r.item]) {
			continue
		}
		if !r.analyze {
			seen[r.item] = true
		}
		var resp service.GenerateResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			continue
		}
		fresh++
		st.TotalTime += resp.Stats.TotalTime
		st.SolveTime += resp.Stats.SolveTime
		st.SolverNodes += resp.Stats.SolverNodes
		st.ComponentCount += resp.Stats.ComponentCount
		st.ComponentCacheHits += resp.Stats.ComponentCacheHits
		st.BasePropagationNodes += resp.Stats.BasePropagationNodes
		st.SolverProblemSize += resp.Stats.SolverProblemSize
		datasets += len(resp.Datasets)
		skipped += len(resp.Skipped)
		incomplete += len(resp.Incomplete)
		coreSpan := tr.add(cGenerate, svc, int32(i), int64(r.sent), min(int64(r.sent)+int64(resp.Stats.TotalTime), int64(r.done)))
		tr.derive(cSolve, coreSpan, resp.Stats.SolveTime)
	}
	n := float64(max(fresh, 1))
	b.set("core.generate_ms", "ms", float64(st.TotalTime)/1e6/n)
	b.set("core.nonsolve_ms", "ms", float64(st.TotalTime-st.SolveTime)/1e6/n)
	b.set("core.goals", "count", float64(datasets+skipped+incomplete)/n)
	b.set("core.datasets", "count", float64(datasets)/n)
	b.set("core.skipped", "count", float64(skipped)/n)
	b.set("core.incomplete", "count", float64(incomplete)/n)
	b.set("solver.solve_ms", "ms", float64(st.SolveTime)/1e6/n)
	b.set("solver.nodes", "count", float64(st.SolverNodes)/n)
	b.set("solver.components", "count", float64(st.ComponentCount)/n)
	b.set("solver.component_cache_hit_ratio", "fraction", float64(st.ComponentCacheHits)/float64(max(st.ComponentCount, 1)))
	b.set("solver.base_propagation_nodes", "count", float64(st.BasePropagationNodes)/n)
	b.set("solver.problem_size", "count", float64(st.SolverProblemSize)/n)
	b.set("service.generate_ms", "ms", mean(genMS))
	b.set("service.analyze_ms", "ms", mean(anaMS))
	b.set("service.received", "count", stats["received"])
	b.set("service.shed", "count", stats["shed"])
	b.set("service.partial", "count", stats["partial"])
	b.set("service.failed", "count", stats["failed"])
	b.set("fleet.cache_hit_ratio", "fraction", stats["cache_hits"]/max(stats["cache_hits"]+stats["cache_misses"], 1))
	b.set("fleet.cache_collapsed", "count", stats["cache_collapsed"])
	b.set("fleet.cache_evictions", "count", stats["cache_evictions"])
	b.set("fleet.forwards", "count", stats["forwards"])
	b.set("fleet.forward_retries", "count", stats["forward_retries"])
	b.set("fleet.hedges", "count", stats["hedges"])
	b.set("fleet.degraded_serves", "count", stats["degraded_serves"])
	b.set("fleet.forwarded_ms", "ms", mean(fwdMS))
	b.set("fleet.local_ms", "ms", mean(localMS))
	b.set("durable.disk_hits", "count", stats["cache_disk_hits"])
	b.set("durable.disk_hit_ms", "ms", mean(diskMS))
	b.set("durable.corrupt_drops", "count", stats["cache_corrupt_drops"])
	b.set("durable.disk_bytes_per_cached_byte", "B/B", stats["durable.counters.disk_bytes"]/float64(max(ws.bytes, 1)))
	b.note("fleet: %d generate (%d forwarded, %d local, %d from disk), %d analyze, %d fresh solves",
		len(genMS), len(fwdMS), len(localMS), len(diskMS), len(anaMS), fresh)
}
