package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layer names a module under internal/ that a span's time belongs to.
// harness is the benchmark's own time inside a request root span.
type layer uint8

const (
	lHarness layer = iota
	lSQLParser
	lQtree
	lCore
	lSolver
	lSchema
	lMutation
	lService
	nLayers
)

var layerNames = [nLayers]string{"harness", "sqlparser", "qtree", "core", "solver", "schema", "mutation", "service"}

// call is one public entry point the benchmark wraps in a span.
type call uint8

const (
	cRequest call = iota
	cParseSchema
	cParseQuery
	cParseInserts
	cBuild
	cGenerate
	cSolve
	cSQLInserts
	cSpace
	cEvaluate
	cPostGenerate
	cPostAnalyze
)

var calls = [...]struct {
	name  string
	layer layer
}{
	cRequest:      {"request", lHarness},
	cParseSchema:  {"sqlparser.ParseSchema", lSQLParser},
	cParseQuery:   {"sqlparser.ParseQuery", lSQLParser},
	cParseInserts: {"sqlparser.ParseInserts", lSQLParser},
	cBuild:        {"qtree.Build", lQtree},
	cGenerate:     {"core.Generate", lCore},
	// cSolve is derived, not timed by the benchmark: it starts with its
	// core.Generate parent and lasts Stats.SolveTime, capped at the
	// parent. SolveTime sums the goal workers, so on a parallel
	// generation the cap is what keeps solver inside its parent.
	cSolve:        {"solver (core.Stats.SolveTime)", lSolver},
	cSQLInserts:   {"schema.SQLInserts", lSchema},
	cSpace:        {"mutation.Space", lMutation},
	cEvaluate:     {"mutation.Evaluate", lMutation},
	cPostGenerate: {"service POST /v1/generate", lService},
	cPostAnalyze:  {"service POST /v1/analyze", lService},
}

// span is one traced interval. Times are nanoseconds since the tracer's
// epoch; parent is an index into the span list, -1 for a request root.
type span struct {
	call       call
	parent     int32
	req        int32
	start, end int64
}

// tracer keeps spans in memory; they are written out once, at exit.
// It is used from one goroutine at a time.
type tracer struct {
	epoch time.Time
	on    bool
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(c call, parent, req int32) int32 {
	if !t.on {
		return -1
	}
	now := t.at(time.Now())
	t.spans = append(t.spans, span{call: c, parent: parent, req: req, start: now, end: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = t.at(time.Now())
	}
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(c call, parent, req int32, start, end int64) int32 {
	t.spans = append(t.spans, span{call: c, parent: parent, req: req, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// derive adds a child of parent that starts with it and lasts d, capped
// at the parent's end.
func (t *tracer) derive(c call, parent int32, d time.Duration) {
	if parent < 0 {
		return
	}
	p := t.spans[parent]
	end := p.start + int64(d)
	if end > p.end {
		end = p.end
	}
	t.add(c, parent, p.req, p.start, end)
}

// layerTimes is the self-time breakdown of a traced run.
type layerTimes struct {
	self     [nLayers]time.Duration
	root     time.Duration // summed request root spans
	covered  time.Duration // part of root time covered by layer spans
	requests int
}

// analyze computes each layer's self time: a span's duration minus the
// time its children cover. The benchmark calls layers one after another,
// so children of one parent never overlap and their durations add.
func (t *tracer) analyze() layerTimes {
	var lt layerTimes
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		lt.self[calls[s.call].layer] += time.Duration(d - child[i])
		if s.parent < 0 {
			lt.root += time.Duration(d)
			lt.covered += time.Duration(child[i])
			lt.requests++
		}
	}
	return lt
}

// ranking returns the non-harness layers by descending self time.
func (lt layerTimes) ranking() []layer {
	var ls []layer
	for l := lHarness + 1; l < nLayers; l++ {
		ls = append(ls, l)
	}
	sort.SliceStable(ls, func(i, j int) bool { return lt.self[ls[i]] > lt.self[ls[j]] })
	return ls
}

// write saves the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"layer\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"request\":%d}\n",
			calls[s.call].name, layerNames[calls[s.call].layer], s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
