// Command schedd serves the repro scheduling library over HTTP: problems
// arrive as the public JSON interchange (graph + system or topology
// documents), run on a bounded worker pool with any registered algorithm,
// and come back as complete verified schedules. See repro/sched/service
// for the wire API.
//
// Usage:
//
//	schedd [-addr host:port] [-workers N] [-queue N] [-default-algo name]
//	       [-job-ttl d] [-max-body bytes] [-drain-timeout d]
//	       [-store mem|wal] [-data DIR]
//	       [-advertise host:port] [-peers host1:p1,host2:p2]
//	       [-replicas N] [-probe-interval d] [-probe-timeout d]
//	       [-probe-misses N] [-debug-addr host:port]
//
// schedd announces the bound address on stdout ("schedd: listening on
// ADDR") — with -addr :0 the kernel picks the port, which is how the
// end-to-end tests run it. On SIGTERM or SIGINT it drains gracefully:
// the listener stops accepting, queued and running jobs finish, then the
// process exits 0. A second signal — or -drain-timeout expiring — aborts
// the drain and exits nonzero.
//
// -debug-addr serves net/http/pprof's /debug/pprof/ endpoints (heap,
// CPU, goroutine and the other runtime profiles) and expvar's
// /debug/vars on a listener of its own, announced before the main one
// ("schedd: debug listening on ADDR"). Empty, the default, serves none.
// The profiles expose the process's internals, so bind it to a loopback
// or private address.
//
// -store wal -data DIR persists accepted jobs to an append-only log in
// DIR and replays it on boot, so a killed schedd finishes what it
// accepted. -peers lists the other replicas of a cluster; job ownership
// is consistent-hashed across all members and requests are forwarded to
// their owner transparently. -advertise is the address peers use to
// reach this replica (required with -peers unless -addr names a concrete
// host).
//
// -replicas N (cluster mode) makes every accepted job's persistence
// record stream to the owner's N-1 ring successors before the 202, so
// killing any single replica loses nothing: a background failure
// detector (-probe-interval, -probe-timeout, -probe-misses) marks the
// dead owner, its first live successor adopts and re-runs the pending
// jobs byte-identically, and when the owner returns the records
// reconcile back under idempotency keys and terminal-state precedence.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	_ "repro/sched/register"
	"repro/sched/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address (\":0\" picks a free port)")
	workers := flag.Int("workers", 0, "concurrent scheduling runs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "job queue depth (0 = default 512)")
	defaultAlgo := flag.String("default-algo", "bsa", "algorithm for requests that name none")
	jobTTL := flag.Duration("job-ttl", 15*time.Minute, "how long finished jobs stay retrievable")
	maxBody := flag.Int64("max-body", 8<<20, "request body size cap in bytes")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "max time to wait for queued jobs on shutdown")
	storeKind := flag.String("store", "mem", "job store: mem (process lifetime) or wal (disk, survives restarts)")
	dataDir := flag.String("data", "", "data directory for -store wal")
	advertise := flag.String("advertise", "", "address peers reach this replica at (cluster mode)")
	peers := flag.String("peers", "", "comma-separated advertised addresses of the other replicas")
	replicas := flag.Int("replicas", 1, "copies of each job's record across the cluster (1 = no replication)")
	probeInterval := flag.Duration("probe-interval", time.Second, "failure-detector probe period (cluster mode)")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe timeout")
	probeMisses := flag.Int("probe-misses", 3, "consecutive probe misses before a peer is declared dead")
	debugAddr := flag.String("debug-addr", "", "listen address for /debug/pprof (empty = off)")
	flag.Parse()

	// Bind before building the server: in cluster mode the advertised
	// self address may need the kernel-picked port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		dbg := &http.Server{Handler: http.DefaultServeMux}
		go dbg.Serve(dln) //nolint:errcheck // returns once Close below ends it
		defer dbg.Close()
		fmt.Printf("schedd: debug listening on %s\n", dln.Addr())
	}

	cfg := service.Config{
		DefaultAlgo:   *defaultAlgo,
		Workers:       *workers,
		QueueDepth:    *queue,
		MaxBodyBytes:  *maxBody,
		JobTTL:        *jobTTL,
		Replicas:      *replicas,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		ProbeMisses:   *probeMisses,
	}

	switch *storeKind {
	case "mem":
		if *dataDir != "" {
			return fmt.Errorf("-data needs -store wal")
		}
	case "wal":
		if *dataDir == "" {
			return fmt.Errorf("-store wal needs -data DIR")
		}
		wal, err := service.OpenWAL(*dataDir)
		if err != nil {
			return err
		}
		cfg.Store = wal
	default:
		return fmt.Errorf("unknown -store %q (want mem or wal)", *storeKind)
	}

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	if *advertise != "" || len(peerList) > 0 {
		self := *advertise
		if self == "" {
			tcp, ok := ln.Addr().(*net.TCPAddr)
			if !ok || tcp.IP.IsUnspecified() {
				return fmt.Errorf("-peers needs -advertise when -addr does not name a concrete host")
			}
			self = tcp.String()
		}
		cfg.Self = self
		cfg.Peers = peerList
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	srv := service.New(cfg)
	expvar.Publish("schedd", srv.Vars())
	fmt.Printf("schedd: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	fmt.Println("schedd: draining...")

	// Stop accepting connections and finish in-flight handlers, then let
	// the pool run down the queued backlog. A completed Drain also closes
	// the store — the WAL's final compaction.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := srv.Drain(drainCtx); err != nil {
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("schedd: drained, bye")
	return nil
}
