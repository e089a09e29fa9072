// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload from DDL/SQL text to checked output through the public
// entry points of the layers under internal/, and prints every metric by
// name and unit; the last line of standard output is one JSON object.
//
//	go build -o perfbench . && ./perfbench --workload paper_generate --seed 1 --seconds 10 --trace 0
//
// It must run from the repository root: it reads BENCHMARK.json there
// and keeps traces and scratch state under .bench_build/. With --trace 0
// it reports the end-to-end metrics, with --trace 1 the per-layer ones
// from a traced run. See README.md for the workloads and their inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart stands in for the process start time in setup_s.
var processStart = time.Now()

const (
	buildDir = ".bench_build"
	// setupRepeats is how many times a run sets up its workload; setup_s
	// is the median.
	setupRepeats = 15
	// blockLength is the stretch of a window whose throughput, CPU,
	// memory and (in fleet_mix) latency percentiles are taken together;
	// the reported figure is the median over blocks.
	blockLength = 2 * time.Second
	// minCoverage is the share of request time the layer spans must
	// cover on the library workloads.
	minCoverage = 0.95
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*bench) error{
	"paper_generate":  runPaperGenerate,
	"grading_analyze": runGradingAnalyze,
	"fleet_mix":       runFleetMix,
}

// bench holds one run's measurements and oracle state.
type bench struct {
	cfg config
	tr  *tracer

	attempted, failed int
	checks            int      // oracle checks run
	problems          []string // first failing checks, for the report

	setups  []float64 // seconds per setup repetition
	metrics map[string]metric
	report  []string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (paper_generate, grading_analyze, fleet_mix)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, traceFlag)
		os.Exit(2)
	}
	want, err := declaredMetrics(cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := &bench{cfg: cfg, tr: newTracer(), metrics: map[string]metric{}}
	b.note("workload %s seed %d seconds %g trace %v; host nproc %d GOMAXPROCS %d %s",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if err := run(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := b.checkDeclared(want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.trace {
		path := filepath.Join(buildDir, "trace", cfg.workload+".jsonl")
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			os.Exit(1)
		}
		b.note("trace: %d spans written to %s", len(b.tr.spans), path)
	}
	b.note("oracle: %d checks, %d failed requests of %d attempted (failed_frac %.6f)",
		b.checks, b.failed, b.attempted, float64(b.failed)/float64(max(b.attempted, 1)))
	for _, p := range b.problems {
		b.note("FAILED CHECK: %s", p)
	}
	for _, line := range b.report {
		fmt.Println(line)
	}
	out, err := json.Marshal(result{
		Correct:   len(b.problems) == 0 && b.failed == 0,
		Attempted: max(b.attempted, 1),
		Failed:    min(b.failed, max(b.attempted, 1)),
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func (b *bench) note(format string, args ...any) {
	b.report = append(b.report, fmt.Sprintf(format, args...))
}

func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one oracle check and records it when it fails.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.checks++
	if !ok {
		b.fail(format, args...)
	}
	return ok
}

func (b *bench) fail(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// semantic reports a drifted work counter: the program computed
// something different, which a timing comparison must not absorb.
func (b *bench) semantic(format string, args ...any) bool {
	return b.check(false, "semantic change: "+format, args...)
}

// setupRepeated runs setup setupRepeats times, tearing down every
// instance but the last, and records each duration. The first is timed
// from process start.
func (b *bench) setupRepeated(setup func() (teardown func(), err error)) (teardown func(), err error) {
	for i := 0; i < setupRepeats; i++ {
		if teardown != nil {
			teardown()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		teardown, err = setup()
		if err != nil {
			return nil, err
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
	}
	return teardown, nil
}

// usage is a snapshot of the process-wide counters a window measures.
type usage struct {
	at         time.Time
	cpu        time.Duration
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u := usage{at: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	if s[0].Value.Kind() == metrics.KindUint64 {
		u.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		u.totalCPU = s[2].Value.Float64()
	}
	return u
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// memSampler records, every memInterval while a window runs, the memory
// the Go runtime holds from the OS: everything it mapped less the heap
// pages it released. The process's peak RSS is a single high-water mark
// set by whichever heavy requests happened to overlap: 59-73 MB over four
// fleet_mix runs of one seed. The median of per-block peaks holds still.
type memSampler struct {
	stop, done chan struct{}
	at         []time.Time
	bytes      []uint64
}

const memInterval = 10 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	read := func() {
		metrics.Read(s)
		m.at = append(m.at, time.Now())
		m.bytes = append(m.bytes, s[0].Value.Uint64()-s[1].Value.Uint64())
	}
	read()
	go func() {
		defer close(m.done)
		t := time.NewTicker(memInterval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return m
}

// finish stops the sampler and waits for it to end.
func (m *memSampler) finish() {
	close(m.stop)
	<-m.done
}

// blockPeaks returns the largest sample in MB taken within each block.
func (m *memSampler) blockPeaks(marks []usage) []float64 {
	peaks := make([]float64, len(marks)-1)
	for i, at := range m.at {
		k := sort.Search(len(marks), func(j int) bool { return marks[j].at.After(at) }) - 1
		k = min(max(k, 0), len(peaks)-1)
		peaks[k] = math.Max(peaks[k], float64(m.bytes[i])/(1<<20))
	}
	return peaks
}

// sample is one measured request.
type sample struct {
	ms     float64 // latency
	lateMS float64 // how late the load generator sent it
	ok     bool
	traced bool
	// item is the request's index in the library loops' corpus; fleet_mix
	// leaves it -1.
	item int
	// block is the index of the blockLength stretch of the window the
	// request completed in. The end-to-end figures that are not taken per
	// item are taken per block and reported as the median over blocks, so
	// a stall on a shared host moves one block, not the result.
	block int
}

// endToEnd sets the end-to-end metrics from a measured window. marks[k]
// is the usage snapshot at the start of block k; the last mark closes
// the window. mem sampled the window and has been finished.
func (b *bench) endToEnd(samples []sample, marks []usage, mem *memSampler) {
	nb := len(marks) - 1
	// A short tail block joins the one before it.
	if nb > 1 && marks[nb].at.Sub(marks[nb-1].at) < blockLength/2 {
		marks = append(marks[:nb-1], marks[nb])
		nb--
	}
	lat := make([][]float64, nb)
	ok := make([]int, nb)
	for _, s := range samples {
		k := min(s.block, nb-1)
		ms := math.Inf(1) // a failed request misses every latency limit
		if s.ok {
			ok[k]++
			ms = s.ms
		}
		lat[k] = append(lat[k], ms)
	}
	var thr, cpu, p50, p90 []float64
	total, minBlock := 0, len(samples)
	for k := 0; k < nb; k++ {
		if len(lat[k]) == 0 {
			continue
		}
		sort.Float64s(lat[k])
		thr = append(thr, float64(ok[k])/marks[k+1].at.Sub(marks[k].at).Seconds())
		cpu = append(cpu, float64(marks[k+1].cpu-marks[k].cpu)/1e6/float64(max(ok[k], 1)))
		p50 = append(p50, quantile(lat[k], 0.5))
		p90 = append(p90, quantile(lat[k], 0.9))
		total += ok[k]
		minBlock = min(minBlock, len(lat[k]))
	}
	b.set("throughput_rps", "1/s", median(thr))
	b.set("cpu_ms_per_req", "ms", median(cpu))
	peaks := mem.blockPeaks(marks)
	b.set("peak_mem_mb", "MB", median(peaks))
	b.set("setup_s", "s", median(b.setups))
	b.note("window %.3f s: %d requests (%d ok) in %d blocks of >= %d samples; medians over blocks: %.2f req/s, p50 %.4f ms, p90 %.4f ms, %.4f cpu ms/req",
		marks[nb].at.Sub(marks[0].at).Seconds(), len(samples), total, len(p90), minBlock, median(thr), median(p50), median(p90), median(cpu))
	b.note("per-block throughput: %s", fmtFloats(thr))
	b.note("per-block p90 ms: %s", fmtFloats(p90))
	b.note("per-block peak memory MB: %s (process peak RSS %.2f MB)", fmtFloats(peaks), peakRSSMB())
	if items := itemMedians(samples); items != nil {
		sort.Float64s(items)
		b.set("latency_p50_ms", "ms", quantile(items, 0.5))
		b.set("latency_p90_ms", "ms", quantile(items, 0.9))
		b.note("over the median latency of each of %d items (%d samples per item on average): p50 %.4f ms, p90 %.4f ms",
			len(items), len(samples)/len(items), quantile(items, 0.5), quantile(items, 0.9))
	} else {
		b.set("latency_p50_ms", "ms", median(p50))
		b.set("latency_p90_ms", "ms", median(p90))
	}
	b.note("setup_s repetitions: %s", fmtFloats(b.setups))
}

// itemMedians returns the median latency of each corpus item over the
// window, or nil when the samples carry no items (fleet_mix). A library
// loop repeats every item once per pass, so the latency percentiles are
// taken over these medians: a GC cycle or a host stall that lands on a
// few requests moves none of them, while a per-block percentile moved by
// up to 40% with the order in which light requests followed heavy ones.
func itemMedians(samples []sample) []float64 {
	by := map[int][]float64{}
	for _, s := range samples {
		if s.item < 0 {
			return nil
		}
		ms := math.Inf(1) // a failed request misses every latency limit
		if s.ok {
			ms = s.ms
		}
		by[s.item] = append(by[s.item], ms)
	}
	if len(by) == 0 {
		return nil
	}
	out := make([]float64, 0, len(by))
	for _, xs := range by {
		out = append(out, median(xs))
	}
	return out
}

// runtimeLayer sets the runtime and load-generator per-layer metrics.
func (b *bench) runtimeLayer(samples []sample, from, to usage) {
	b.set("runtime.alloc_kb_per_req", "KiB", float64(to.allocBytes-from.allocBytes)/1024/float64(max(len(samples), 1)))
	gc := 0.0
	if to.totalCPU > from.totalCPU {
		gc = (to.gcCPU - from.gcCPU) / (to.totalCPU - from.totalCPU)
	}
	b.set("runtime.gc_cpu_frac", "fraction", gc)
	var late []float64
	for _, s := range samples {
		late = append(late, s.lateMS)
	}
	sort.Float64s(late)
	b.set("loadgen.late_ms_p90", "ms", quantile(late, 0.9))
}

// traceLayer sets the self-time, share, coverage and overhead metrics
// from the spans and the traced/untraced request split.
func (b *bench) traceLayer(samples []sample, library bool) {
	lt := b.tr.analyze()
	n := float64(max(lt.requests, 1))
	root := lt.root.Seconds()
	var parts []string
	for l := layer(0); l < nLayers; l++ {
		self := lt.self[l].Seconds()
		b.set(layerNames[l]+".self_ms", "ms", self*1e3/n)
		b.set(layerNames[l]+".share", "fraction", self/math.Max(root, 1e-12))
		parts = append(parts, fmt.Sprintf("%s %.4f ms (%.1f%%)", layerNames[l], self*1e3/n, 100*self/math.Max(root, 1e-12)))
	}
	coverage := lt.covered.Seconds() / math.Max(root, 1e-12)
	b.set("trace.coverage_frac", "fraction", coverage)
	var on, off []float64
	for _, s := range samples {
		if s.traced {
			on = append(on, s.ms)
		} else {
			off = append(off, s.ms)
		}
	}
	overhead := 0.0
	if len(on) > 0 && len(off) > 0 {
		overhead = mean(on)/mean(off) - 1
	}
	b.set("trace.overhead_frac", "fraction", overhead)
	rank := lt.ranking()
	b.note("self time per request over %d traced requests: %s", lt.requests, strings.Join(parts, ", "))
	b.note("top-3 layers by self time: 1. %s  2. %s  3. %s", layerNames[rank[0]], layerNames[rank[1]], layerNames[rank[2]])
	b.note("trace coverage %.4f (tolerance >= %.2f on library workloads), overhead %.4f (%d traced vs %d untraced requests)",
		coverage, minCoverage, overhead, len(on), len(off))
	if library {
		b.check(coverage >= minCoverage, "trace coverage %.4f below %.2f", coverage, minCoverage)
	}
}

// perLayer lists the per-layer metrics of a traced run besides each
// layer's self_ms and share. A workload reports 0 for a layer it never
// runs, so every traced run emits the same names.
var perLayer = []struct{ name, unit string }{
	{"sqlparser.parse_ms", "ms"}, {"qtree.build_ms", "ms"},
	{"core.generate_ms", "ms"}, {"core.nonsolve_ms", "ms"}, {"core.goals", "count"},
	{"core.datasets", "count"}, {"core.skipped", "count"}, {"core.incomplete", "count"},
	{"solver.solve_ms", "ms"}, {"solver.nodes", "count"}, {"solver.components", "count"},
	{"solver.component_cache_hit_ratio", "fraction"}, {"solver.base_propagation_nodes", "count"},
	{"solver.problem_size", "count"},
	{"schema.render_ms", "ms"},
	{"mutation.space_ms", "ms"}, {"mutation.evaluate_ms", "ms"}, {"mutation.mutants", "count"},
	{"mutation.matrix_cells", "count"}, {"mutation.killed_ratio", "fraction"},
	{"engine.compiled_runs", "count"}, {"engine.batches", "count"}, {"engine.prefix_hit_ratio", "fraction"},
	{"engine.result_memo_hits", "count"}, {"engine.hash_joins", "count"}, {"engine.small_joins", "count"},
	{"engine.nested_loop_joins", "count"},
	{"service.generate_ms", "ms"}, {"service.analyze_ms", "ms"}, {"service.received", "count"},
	{"service.shed", "count"}, {"service.partial", "count"}, {"service.failed", "count"},
	{"fleet.cache_hit_ratio", "fraction"}, {"fleet.cache_collapsed", "count"}, {"fleet.cache_evictions", "count"},
	{"fleet.forwards", "count"}, {"fleet.forward_retries", "count"}, {"fleet.hedges", "count"},
	{"fleet.degraded_serves", "count"}, {"fleet.forwarded_ms", "ms"}, {"fleet.local_ms", "ms"},
	{"durable.disk_hits", "count"}, {"durable.disk_hit_ms", "ms"}, {"durable.corrupt_drops", "count"},
	{"durable.disk_bytes_per_cached_byte", "B/B"},
	{"runtime.alloc_kb_per_req", "KiB"}, {"runtime.gc_cpu_frac", "fraction"},
	{"loadgen.late_ms_p90", "ms"}, {"trace.overhead_frac", "fraction"}, {"trace.coverage_frac", "fraction"},
}

// zeroLayers reports 0 for every per-layer metric the workload did not
// measure.
func (b *bench) zeroLayers() {
	for _, m := range perLayer {
		if _, ok := b.metrics[m.name]; !ok {
			b.set(m.name, m.unit, 0)
		}
	}
}

// declaredMetrics reads the metric names and units BENCHMARK.json
// declares for this mode, so the program and the declaration cannot
// drift apart.
func declaredMetrics(trace bool) (map[string]string, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("read BENCHMARK.json (run from the repository root): %w", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	list := decl.EndToEnd
	if trace {
		list = decl.PerLayer
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out, nil
}

func (b *bench) checkDeclared(want map[string]string) error {
	for name, unit := range want {
		got, ok := b.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", name)
		}
		if got.Unit != unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", name, got.Unit, unit)
		}
	}
	for name := range b.metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(max(len(xs), 1))
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
