// Command xdatad serves the X-Data generation pipeline over HTTP/JSON.
//
//	xdatad -addr :8080
//
// Endpoints (see internal/service for the wire schema and the full
// status taxonomy):
//
//	POST /v1/generate  DDL + query + options → test suite
//	POST /v1/analyze   DDL + query + options → suite + kill report
//	POST /v1/forward   peer-forwarded generate (fleet internal)
//	POST /admin/epoch  invalidate this node's suite cache
//	GET  /healthz      liveness (always 200 while the process serves)
//	GET  /readyz       readiness (503 while draining)
//	GET  /statsz       service counters (admitted, shed, cache, fleet ...)
//
// Fleet mode: -advertise names this node as its peers reach it and
// -peers lists the other members. Generate requests are routed to
// their content key's owner on a consistent-hash ring; a dead peer
// degrades to a local solve (see internal/fleet). Example 3-node
// fleet on one host:
//
//	xdatad -addr :8081 -advertise 127.0.0.1:8081 -peers 127.0.0.1:8082,127.0.0.1:8083
//	xdatad -addr :8082 -advertise 127.0.0.1:8082 -peers 127.0.0.1:8081,127.0.0.1:8083
//	xdatad -addr :8083 -advertise 127.0.0.1:8083 -peers 127.0.0.1:8081,127.0.0.1:8082
//
// Durability: -cache-dir puts a crash-recoverable disk tier under the
// suite cache — cached suites and the invalidation epoch survive
// kill -9, and a restarted daemon serves them marked served_from:
// "disk". An unusable directory degrades the daemon to memory-only
// with a startup warning, never a startup failure. -failure-dir
// captures self-contained failure repro bundles (abandoned goals,
// handler panics) replayable with `xdata -replay <bundle>`.
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting
// new work (readyz flips to 503 so load balancers stop routing),
// in-flight requests run to completion, and requests still running at
// -drain-timeout are hard-cancelled so they budget-expire and flush
// partial suites. A second signal exits immediately.
//
// Exit codes: 0 clean drain, 1 serve/listen failure, 2 flag errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/limits"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], nil))
}

// run is main minus the process boundary. ready, when non-nil, fires
// with the bound listener address after the listener is accepting and
// before the first log line — the seam main_test.go uses to order
// "healthz answers" strictly after "bind succeeded".
func run(args []string, ready func(net.Addr)) int {
	fs := flag.NewFlagSet("xdatad", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		maxConcurrent = fs.Int("max-concurrent", 0, "concurrent requests (0 = GOMAXPROCS)")
		maxQueue      = fs.Int("max-queue", 0, "admission queue depth (0 = 2x max-concurrent)")
		queueWait     = fs.Duration("queue-wait", 0, "max time a request waits for a slot (0 = 500ms)")
		maxTimeout    = fs.Duration("max-timeout", 0, "whole-request budget ceiling (0 = 30s)")
		maxGoalTime   = fs.Duration("max-goal-timeout", 0, "per-goal timeout ceiling (0 = max-timeout)")
		maxGoalNodes  = fs.Int64("max-goal-nodes", 0, "per-goal solver node ceiling (0 = 4Mi)")
		drainTimeout  = fs.Duration("drain-timeout", 0, "graceful drain deadline on SIGTERM (0 = 10s)")
		unlimited     = fs.Bool("unlimited", false, "disable input resource limits (trusted callers only)")
		advertise     = fs.String("advertise", "", "fleet: this node's address as peers reach it (host:port)")
		peers         = fs.String("peers", "", "fleet: comma-separated peer addresses (host:port,...)")
		cacheBytes    = fs.Int64("cache-bytes", 0, "suite cache byte cap (0 = 64MiB, negative = disable)")
		cacheDir      = fs.String("cache-dir", "", "durable disk cache directory (empty = memory-only; survives restarts)")
		diskBytes     = fs.Int64("disk-cache-bytes", 0, "disk cache byte cap under -cache-dir (0 = 256MiB, negative = disable)")
		failureDir    = fs.String("failure-dir", "", "write failure repro bundles here (replay with: xdata -replay <bundle>)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "xdatad: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if len(peerList) > 0 && *advertise == "" {
		fmt.Fprintln(os.Stderr, "xdatad: -peers requires -advertise (this node's own fleet address)")
		return 2
	}

	// Limits are always set explicitly: Normalize treats a zero Limits
	// struct as "use defaults", so handing it limits.Unlimited() (the
	// zero value) would silently re-enable the default ceilings.
	lim := limits.Default()
	if *unlimited {
		lim = limits.Unlimited()
		lim.MaxCacheBytes = limits.DefaultMaxCacheBytes
		lim.MaxDiskCacheBytes = limits.DefaultMaxDiskCacheBytes
	}
	if *cacheBytes != 0 {
		lim.MaxCacheBytes = int(*cacheBytes)
	}
	if *diskBytes != 0 {
		lim.MaxDiskCacheBytes = *diskBytes
	}
	if *drainTimeout <= 0 {
		*drainTimeout = 10 * time.Second
	}
	cfg := service.Config{
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		MaxTimeout:     *maxTimeout,
		MaxGoalTimeout: *maxGoalTime,
		MaxGoalNodes:   *maxGoalNodes,
		Limits:         lim,
		CacheDir:       *cacheDir,
		FailureDir:     *failureDir,
		Advertise:      *advertise,
		Peers:          peerList,
	}
	var svc *service.Server
	if *advertise != "" {
		var err error
		if svc, err = service.NewFleet(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "xdatad: fleet: %v\n", err)
			return 2
		}
	} else {
		svc = service.New(cfg)
	}
	defer svc.Close()

	// Bind before anything else: a failed bind is a clear exit-1 with
	// the listen error, and /healthz cannot answer "ok" before the
	// listener is accepting because the same listener serves both.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xdatad: listen %s: %v\n", *addr, err)
		return 1
	}
	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	if ready != nil {
		ready(ln.Addr())
	}
	fleetNote := ""
	if *advertise != "" {
		fleetNote = fmt.Sprintf(", fleet %s + %d peers", *advertise, len(peerList))
	}
	if warn := svc.DurableWarning(); warn != "" {
		fmt.Fprintf(os.Stderr, "xdatad: warning: %s\n", warn)
	}
	fmt.Fprintf(os.Stderr, "xdatad: listening on %s (max-concurrent %d, queue %d%s)\n",
		ln.Addr(), svc.Config().MaxConcurrent, svc.Config().MaxQueue, fleetNote)

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "xdatad: serve: %v\n", err)
		return 1
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "xdatad: %v: draining (deadline %v; signal again to exit now)\n",
			sig, *drainTimeout)
	}

	// Drain: stop routing (readyz 503, late arrivals 503), finish
	// in-flight work, hard-cancel at the deadline. A second signal
	// aborts immediately.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- svc.Drain(drainCtx) }()
	select {
	case err := <-drained:
		if err != nil {
			fmt.Fprintf(os.Stderr, "xdatad: drain deadline hit, in-flight requests budget-expired: %v\n", err)
		}
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "xdatad: %v: immediate exit\n", sig)
		return 1
	}

	// In-flight responses are flushed; now close the listener and any
	// idle connections.
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "xdatad: shutdown: %v\n", err)
		return 1
	}
	c := svc.Counters()
	fmt.Fprintf(os.Stderr, "xdatad: drained cleanly (admitted %d, completed %d, partial %d, shed %d)\n",
		c.Admitted, c.Completed, c.Partial, c.Shed)
	return 0
}
