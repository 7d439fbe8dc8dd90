// Command hypard serves the HyPar evaluation library over HTTP/JSON: a
// long-running daemon exposing planning (/v1/plan), simulation
// (/v1/evaluate), strategy comparison (/v1/compare), degraded-array
// replanning (/v1/degrade), streamed parallelism-space sweeps
// (/v1/explore NDJSON), batched evaluation (/v1/batch) and
// asynchronous sweep jobs (/v1/jobs), with request coalescing and a
// sharded bounded result cache in front of a pool of evaluators that
// solve every plan cold. Per-request deadlines (-timeout) and
// admission control (-inflight) keep an overloaded daemon responsive:
// shed work answers 429/503 with Retry-After, exceeded deadlines
// answer 504. See docs/API.md for the request schema, the error
// semantics and curl examples.
//
// Usage:
//
//	hypard -addr :8080
//	hypard -addr :8080 -workers 4 -cache 512 -batch 256 -levels 4
//	hypard -addr :8080 -jobs 128 -rawcache 8388608
//	hypard -addr :8080 -timeout 30s -inflight 64
//	hypard -addr :8081 -self http://h1:8081 -peers http://h1:8081,http://h2:8082
//
// In cluster mode (-self/-peers) each canonical request hash is owned
// by exactly one replica via a consistent-hash ring; non-owners fill
// from the owner over /peer/v1/fetch, so the fleet's caches add instead
// of duplicating and coalescing works fleet-wide. Validate the topology
// first with `hypardctl validate`.
//
// SIGINT/SIGTERM drain in-flight requests — NDJSON streams and async
// jobs included — and exit cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	hypar "repro"
	"repro/internal/runner"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "hypard:", err)
		os.Exit(1)
	}
}

// run parses flags, binds the listener and serves until SIGINT/SIGTERM
// (or, in tests, until the stop func handed to ready is called). Split
// from main for testing.
func run(args []string, w io.Writer, ready func(addr string, stop func())) error {
	fs := flag.NewFlagSet("hypard", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		workers  = fs.Int("workers", 0, "worker pool width (0 = GOMAXPROCS)")
		cache    = fs.Int("cache", service.DefaultCacheEntries, "result cache entries (negative disables)")
		rawBytes = fs.Int("rawcache", service.DefaultRawCacheBytes, "raw-bytes fast-path budget in bytes (negative disables)")
		jobs     = fs.Int("jobs", service.DefaultJobEntries, "async job table entries (negative disables /v1/jobs)")
		batch    = fs.Int("batch", 256, "default mini-batch size")
		levels   = fs.Int("levels", 4, "default hierarchy depth H (2^H accelerators)")
		plat     = fs.String("platform", "hmc", "default platform: hmc | gpu-hbm | tpu-systolic")
		platsPer = fs.String("platforms-per-level", "", `default heterogeneous array: platform per hierarchy level, comma-separated root first, e.g. "gpu-hbm,hmc,hmc,hmc" (empty slots inherit -platform)`)
		topology = fs.String("topology", "", "default topology: htree | torus | ideal (empty: the platform's native fabric)")
		link     = fs.Float64("link", 0, "default NoC link bandwidth, Mb/s (0: the platform's native rate)")
		faults   = fs.String("faults", "", `default degraded-array fault spec, "level:groups" (e.g. 1:2)`)
		search   = fs.String("search", "", "default partition search: hierarchical (exact) | brute | beam")
		beamW    = fs.Int("beam-width", 0, "default beam search width (0 = 64; only with -search beam)")
		timeout  = fs.Duration("timeout", 0, "per-request evaluation deadline (0 = none); exceeded requests answer 504")
		inflight = fs.Int("inflight", 0, "max concurrent evaluations before shedding 429 (0 = 8x pool width, negative = unlimited)")
		drain    = fs.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		self     = fs.String("self", "", `this replica's peer URL, e.g. "http://10.0.0.1:8080" (cluster mode; requires -peers)`)
		peers    = fs.String("peers", "", "comma-separated peer URLs of the whole fleet, including -self (cluster mode)")
		vnodes   = fs.Int("vnodes", 0, "consistent-hash virtual nodes per replica (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := hypar.Config{
		Batch: *batch, Levels: *levels, Platform: *plat, Topology: *topology, LinkMbps: *link,
		SearchMethod: *search, BeamWidth: *beamW,
	}
	if *platsPer != "" {
		spec, err := hypar.ParsePlatformSpec(*platsPer)
		if err != nil {
			return err
		}
		cfg.Platforms = spec
	}
	if *faults != "" {
		f, err := hypar.ParseFaults(*faults)
		if err != nil {
			return err
		}
		cfg.Faults = f
	}

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}

	pool := runner.New(*workers)
	srv, err := service.New(service.Options{
		Config:         cfg,
		Pool:           pool,
		CacheEntries:   *cache,
		RawCacheBytes:  *rawBytes,
		JobEntries:     *jobs,
		RequestTimeout: *timeout,
		MaxInflight:    *inflight,
		Self:           *self,
		Peers:          peerList,
		VNodes:         *vnodes,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "hypard: listening on %s (pool width %d, cache %d entries)\n",
		ln.Addr(), pool.Width(), *cache)

	stop := make(chan struct{})
	var stopOnce sync.Once
	requestStop := func() { stopOnce.Do(func() { close(stop) }) }
	if ready != nil {
		ready(ln.Addr().String(), requestStop)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		go func() {
			s := <-sig
			log.Printf("hypard: received %v, draining", s)
			requestStop()
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-stop:
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return <-errCh
	}
}
