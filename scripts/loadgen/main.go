// Command loadgen drives a running hypard with concurrent POST traffic
// and reports throughput and latency percentiles as one JSON object on
// stdout, for ad-hoc and cluster checks (bench/ is the benchmark).
//
// Modes:
//
//	-mode hot      every request identical (exercises coalescing +
//	               cache: steady state is pure byte replay)
//	-mode mixed    cycles zoo models × strategies × batch sizes
//	               (exercises the evaluator itself; mostly cache misses
//	               until the cycle wraps)
//	-mode beam     cycles the branched workloads plus an inline wide-fan
//	               DAG under "searchMethod":"beam" (exercises the beam
//	               partition search, including a frontier the exact DP
//	               refuses)
//	-mode sweep    one model, strategy hypar, cycling four link
//	               bandwidths (a one-dimension sweep: each bandwidth is
//	               computed once, cold, and its repeats replay from the
//	               caches)
//
// Shed requests (429/503) are retried with jittered exponential
// backoff, honoring the server's Retry-After; requests still shed after
// the retry budget count as "shed" in the report, separately from hard
// errors — load shedding is the server working as designed, not a
// failure, so only hard errors fail the run.
//
// -batch N wraps N of the mode's bodies into one /v1/batch request per
// POST (the same global item sequence the single-request run would
// issue), so `-requests R -batch N` pushes R×N items in R round trips.
//
// -warm N replays the run's first N bodies untimed before measuring,
// so a hot run records steady-state cache throughput instead of
// averaging in the first cold compute.
//
// -cluster spreads the traffic round-robin across a comma-separated
// replica list instead of a single -addr, so a cluster-mode fleet sees
// every replica answer for every key (peer fills included) instead of
// only the key's owner.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:8080 -requests 200 -concurrency 8 -mode hot
//	loadgen -addr 127.0.0.1:8080 -wait 10s -mode mixed
//	loadgen -addr 127.0.0.1:8080 -mode mixed -batch 16 -requests 40
//	loadgen -cluster 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083 -mode hot
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// result is the JSON report. Items/ItemsPerSec count evaluation items:
// for single-request runs they equal Requests/RPS; for -batch N runs
// each request carries N items, so ItemsPerSec is the number to compare
// against a single-request run's RPS.
type result struct {
	Mode        string  `json:"mode"`
	Endpoint    string  `json:"endpoint"`
	Requests    int     `json:"requests"`
	BatchSize   int     `json:"batchSize,omitempty"`
	Items       int     `json:"items"`
	Concurrency int     `json:"concurrency"`
	Errors      int64   `json:"errors"`
	Shed        int64   `json:"shed"`
	Retries     int64   `json:"retries"`
	Seconds     float64 `json:"seconds"`
	RPS         float64 `json:"rps"`
	ItemsPerSec float64 `json:"itemsPerSec"`
	P50Ms       float64 `json:"p50Ms"`
	P90Ms       float64 `json:"p90Ms"`
	P99Ms       float64 `json:"p99Ms"`
}

// zoo mirrors the service's model names; kept literal so loadgen works
// against any hypard build without importing the library.
var zooNames = []string{"SFC", "SCONV", "Lenet-c", "Cifar-c", "AlexNet", "VGG-A", "VGG-B", "VGG-C", "VGG-D", "VGG-E"}

var strategies = []string{"hypar", "dp", "mp", "trick"}

// branchedNames are the DAG workload zoo names; the empty sentinel
// selects the inline wide-fan model below.
var branchedNames = []string{"SRES-8", "Incep-2", ""}

// wideFanModel is an inline DAG whose 18 parallel branches put its
// partition frontier past the exact graph DP's cap — only the beam
// search can plan it. Kept literal like zooNames so loadgen stays
// daemon-agnostic; built once at init.
var wideFanModel = func() string {
	var sb strings.Builder
	sb.WriteString(`{"name":"lg-wide","input":{"h":8,"w":8,"c":3},"layers":[` +
		`{"name":"stem","type":"conv","k":3,"pad":1,"cout":4}`)
	var ins []string
	for i := 0; i < 18; i++ {
		name := fmt.Sprintf("b%02d", i)
		fmt.Fprintf(&sb, `,{"name":%q,"type":"conv","k":3,"pad":1,"cout":4,"inputs":["stem"]}`, name)
		ins = append(ins, fmt.Sprintf("%q", name))
	}
	fmt.Fprintf(&sb, `,{"name":"join","type":"fc","cout":10,"inputs":[%s]}]}`, strings.Join(ins, ","))
	return sb.String()
}()

// sweepLinks are the link bandwidths (Mb/s) the sweep mode cycles: a
// one-dimension sweep whose partition inputs never change.
var sweepLinks = []float64{800, 1600, 3200, 6400}

// body renders the i-th request body for the mode.
func body(mode string, i int) string {
	switch mode {
	case "hot":
		return `{"zoo":"VGG-A","strategy":"hypar"}`
	case "beam":
		// The branched zoo names plus the wide-fan model the exact DP
		// refuses, all under the beam search.
		name := branchedNames[i%len(branchedNames)]
		batch := 64 << uint((i/len(branchedNames))%3) // 64, 128, 256
		if name == "" {
			return fmt.Sprintf(`{"model":%s,"strategy":"hypar","config":{"batch":%d,"levels":2,"searchMethod":"beam"}}`, wideFanModel, batch)
		}
		return fmt.Sprintf(`{"zoo":%q,"strategy":"hypar","config":{"batch":%d,"searchMethod":"beam"}}`, name, batch)
	case "sweep":
		// One model, one strategy, one dimension moving: the
		// traffic shape of a bandwidth sweep.
		link := sweepLinks[i%len(sweepLinks)]
		return fmt.Sprintf(`{"zoo":"VGG-A","strategy":"hypar","config":{"linkMbps":%g}}`, link)
	}
	name := zooNames[i%len(zooNames)]
	strat := strategies[(i/len(zooNames))%len(strategies)]
	batch := 64 << uint((i/(len(zooNames)*len(strategies)))%3) // 64, 128, 256
	return fmt.Sprintf(`{"zoo":%q,"strategy":%q,"config":{"batch":%d}}`, name, strat, batch)
}

// batchBody wraps size consecutive mode bodies, starting at global item
// index first, into one /v1/batch request.
func batchBody(mode string, first, size int) string {
	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for k := 0; k < size; k++ {
		if k > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(body(mode, first+k))
	}
	sb.WriteString(`]}`)
	return sb.String()
}

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "hypard host:port (ignored with -cluster)")
		cluster = flag.String("cluster", "", "comma-separated replica host:port list; requests round-robin across the fleet")
		path    = flag.String("endpoint", "/v1/evaluate", "endpoint to hit (ignored with -batch)")
		n       = flag.Int("requests", 200, "total requests")
		batch   = flag.Int("batch", 0, "items per request through /v1/batch (0 = single requests)")
		conc    = flag.Int("concurrency", 8, "concurrent clients")
		mode    = flag.String("mode", "hot", "hot | mixed | beam | sweep")
		warm    = flag.Int("warm", 0, "untimed warmup requests before measuring (replays the run's first bodies so hot runs record steady-state cache throughput, not the first compute)")
		wait    = flag.Duration("wait", 15*time.Second, "wait for /healthz before starting")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		retries = flag.Int("retries", 4, "retry budget per request for shed (429/503) responses")
	)
	flag.Parse()
	switch *mode {
	case "hot", "mixed", "beam", "sweep":
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown -mode %q (want hot, mixed, beam or sweep)\n", *mode)
		os.Exit(2)
	}
	if *batch > 0 {
		*path = "/v1/batch"
	}

	// Targets: one base URL per replica; request i goes to target
	// i%len(targets), so a -cluster run exercises every replica —
	// including the peer-fill path on non-owners — with the same global
	// item sequence a single-target run would issue.
	targets := []string{"http://" + *addr}
	if *cluster != "" {
		targets = targets[:0]
		for _, a := range strings.Split(*cluster, ",") {
			if a = strings.TrimSpace(a); a != "" {
				targets = append(targets, "http://"+a)
			}
		}
		if len(targets) == 0 {
			fmt.Fprintln(os.Stderr, "loadgen: -cluster names no replicas")
			os.Exit(1)
		}
	}
	client := &http.Client{Timeout: *timeout}
	for _, base := range targets {
		if err := waitHealthy(client, base, *wait); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
	}

	// Warmup: replay the exact bodies the timed run will open with, so
	// their computations (and the daemon's raw-bytes fast path) are
	// primed. Failures here are the measured run's problem to report.
	for i := 0; i < *warm; i++ {
		reqBody := body(*mode, i)
		if *batch > 0 {
			reqBody = batchBody(*mode, i*(*batch), *batch)
		}
		resp, err := client.Post(targets[i%len(targets)]+*path, "application/json", bytes.NewReader([]byte(reqBody)))
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	var (
		next    atomic.Int64
		errs    atomic.Int64
		shed    atomic.Int64
		retried atomic.Int64
		mu      sync.Mutex
		lats    = make([]float64, 0, *n)
		wg      sync.WaitGroup
		started = time.Now()
	)
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(time.Now().UnixNano()))
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				reqBody := body(*mode, i)
				if *batch > 0 {
					reqBody = batchBody(*mode, i*(*batch), *batch)
				}
				t0 := time.Now()
				ok := false
				for attempt := 0; ; attempt++ {
					resp, err := client.Post(targets[i%len(targets)]+*path, "application/json",
						bytes.NewReader([]byte(reqBody)))
					if err != nil {
						errs.Add(1)
						break
					}
					// Shed (429) and refused (503) responses mean the
					// server is protecting itself — back off and retry
					// within the budget, honoring Retry-After; a request
					// still shed afterwards counts as shed, not failed.
					if resp.StatusCode == http.StatusTooManyRequests ||
						resp.StatusCode == http.StatusServiceUnavailable {
						retryAfter := resp.Header.Get("Retry-After")
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if attempt >= *retries {
							shed.Add(1)
							break
						}
						retried.Add(1)
						time.Sleep(backoff(rng, attempt, retryAfter))
						continue
					}
					// /v1/batch answers 200 with per-item failures as
					// in-band {"error":...} NDJSON lines; a benchmark that
					// discarded them would happily measure error-rendering
					// throughput. Count any failed line as a failed request.
					failedItems := false
					if *batch > 0 {
						sc := bufio.NewScanner(resp.Body)
						sc.Buffer(make([]byte, 1<<20), 1<<20)
						for sc.Scan() {
							if bytes.HasPrefix(sc.Bytes(), []byte(`{"error":`)) {
								failedItems = true
							}
						}
						if sc.Err() != nil {
							failedItems = true
						}
					} else {
						_, _ = io.Copy(io.Discard, resp.Body)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || failedItems {
						errs.Add(1)
						break
					}
					ok = true
					break
				}
				if !ok {
					continue
				}
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				mu.Lock()
				lats = append(lats, ms)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(started).Seconds()

	sort.Float64s(lats)
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		idx := int(p * float64(len(lats)-1))
		return lats[idx]
	}
	perReq := 1
	if *batch > 0 {
		perReq = *batch
	}
	out := result{
		Mode:        *mode,
		Endpoint:    *path,
		Requests:    *n,
		BatchSize:   *batch,
		Items:       *n * perReq,
		Concurrency: *conc,
		Errors:      errs.Load(),
		Shed:        shed.Load(),
		Retries:     retried.Load(),
		Seconds:     elapsed,
		RPS:         float64(len(lats)) / elapsed,
		ItemsPerSec: float64(len(lats)*perReq) / elapsed,
		P50Ms:       pct(0.50),
		P90Ms:       pct(0.90),
		P99Ms:       pct(0.99),
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if out.Errors > 0 {
		os.Exit(2)
	}
}

// backoff picks the delay before retrying a shed request: jittered
// exponential (25ms · 2^attempt, up to ~1.6s, ±50% jitter), but never
// less than the server's Retry-After when it names one.
func backoff(rng *rand.Rand, attempt int, retryAfter string) time.Duration {
	if attempt > 6 {
		attempt = 6
	}
	base := 25 * time.Millisecond << uint(attempt)
	d := base/2 + time.Duration(rng.Int63n(int64(base)))
	if s, err := strconv.Atoi(retryAfter); err == nil && s > 0 {
		if min := time.Duration(s) * time.Second; d < min {
			d = min
		}
	}
	return d
}

// waitHealthy polls /healthz until the daemon answers or the budget is
// spent.
func waitHealthy(client *http.Client, base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hypard at %s not healthy within %s", base, budget)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
