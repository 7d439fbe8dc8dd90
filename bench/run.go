package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// A run spawns and warms a daemon at least minSetups times, and more
// until setupBudget is spent or maxSetups is reached. setup_s is the
// median cycle, so one slow spawn moves it little; the last cycle's
// daemon serves the window.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	workload  string
	attempted int
	failed    int
	firstErr  string
	metrics   map[string]metric
	notes     map[string]string // sample counts and percentiles, for the table
}

func (r *runResult) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runResult) fail(n int, err string) {
	r.failed += n
	if r.firstErr == "" && n > 0 {
		r.firstErr = err
	}
}

// target is a running hypard: a spawned daemon, or an in-process server
// in tests.
type target interface {
	url() string
	pid() int
	stop()
}

// runConfig is what every run of an invocation shares.
type runConfig struct {
	start    func() (target, error)
	traceDir string
	seed     int64
	window   time.Duration
}

// keepSample picks the replies checked after the window: the first 50
// and every 97th request.
func keepSample(i int) bool { return i < 50 || i%97 == 0 }

// runWorkload spawns hypard, warms it, drives the measured window,
// checks sampled replies against the library and runs the traced pass.
func runWorkload(w *workload, rc runConfig) (*runResult, error) {
	res := &runResult{workload: w.name, metrics: map[string]metric{}, notes: map[string]string{}}
	var (
		setups []float64
		spent  time.Duration
		d      target
		want   [][]byte // evaluate-hot: each body's set-up reply
	)
	for c := 0; c < maxSetups && (c < minSetups || spent < setupBudget); c++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = rc.start(); err != nil {
			return nil, err
		}
		keep := func(int) bool { return w.replay }
		warm := drive(d.url(), w, warmBase, w.warmN, time.Time{}, keep, nil)
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
		res.fail(warm.failed, "warm-up: "+warm.firstErr)
		if w.replay {
			want = make([][]byte, w.warmN)
			for _, s := range warm.samples {
				want[w.key(s.i)] = s.resp
			}
		}
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	before, err := getStatsz(d.url())
	if err != nil {
		return nil, err
	}
	daemonCPU0, err := cpuTime(d.pid())
	if err != nil {
		return nil, err
	}
	selfCPU0 := selfCPU()
	rssStop, rssDone := make(chan struct{}), make(chan []float64)
	go sampleRSS(d.pid(), rssStop, rssDone)
	lr := drive(d.url(), w, 0, 0, time.Now().Add(rc.window), keepSample, want)
	close(rssStop)
	rssSamples := <-rssDone
	selfCPU := selfCPU() - selfCPU0
	daemonCPU, err := cpuTime(d.pid())
	if err != nil {
		return nil, err
	}
	daemonCPU -= daemonCPU0
	after, err := getStatsz(d.url())
	if err != nil {
		return nil, err
	}
	peak, err := statusMB(d.pid(), "VmHWM:")
	if err != nil {
		return nil, err
	}
	d.stop()
	d = nil

	res.attempted = lr.attempted
	res.fail(lr.failed, lr.firstErr)
	for _, s := range lr.samples {
		it := w.item(w.key(s.i))
		if err := checkReply(it, s.resp); err != nil {
			res.fail(1, fmt.Sprintf("request %d (%s): %v", s.i, it.endpoint, err))
		}
	}
	for k, reply := range want {
		if err := checkReply(w.item(k), reply); err != nil {
			res.fail(1, fmt.Sprintf("set-up reply %d: %v", k, err))
		}
	}
	res.notes["checked"] = fmt.Sprintf("%d sampled replies", len(lr.samples)+len(want))

	ok := len(lr.latsMs)
	rps, p50 := lr.windowSlices()
	res.set("throughput_rps", median(rps), "1/s")
	res.notes["throughput_rps"] = fmt.Sprintf("median of %d slices, %d replies", len(rps), ok)
	res.set("latency_p50_ms", median(p50), "ms")
	res.notes["latency_p50_ms"] = fmt.Sprintf("median of %d slices", len(p50))
	tailPct, tailMs := tail(sorted(lr.latsMs))
	res.set("latency_p99_ms", tailMs, "ms")
	res.notes["latency_p99_ms"] = fmt.Sprintf("p%.2f of %d replies", tailPct, ok)
	res.set("rss_mb", median(rssSamples), "MB")
	res.notes["rss_mb"] = fmt.Sprintf("median of %d samples, peak %.1f MB", len(rssSamples), peak)
	res.set("setup_s", median(setups), "s")
	res.notes["setup_s"] = fmt.Sprintf("median of %d", len(setups))

	win := statszDelta(before, after)
	handler := win.handlerMeanMs()
	res.set("http.overhead_ms", mean(lr.latsMs)-handler, "ms")
	res.set("service.handler_mean_ms", handler, "ms")
	res.set("service.fast_hit_ratio", win.share(win.fastHits), "ratio")
	res.set("service.cache_hit_ratio", win.share(win.cacheHits), "ratio")
	res.set("service.compute_ratio", win.share(win.computes), "ratio")
	res.set("service.coalesced_ratio", win.share(win.coalesced), "ratio")
	res.set("service.shed_count", float64(after.Resilience.Shed-before.Resilience.Shed), "count")
	res.set("service.raw_resident_mb", float64(after.RawCache.Bytes)/(1<<20), "MB")
	res.set("service.lru_entries", float64(after.CacheEntries), "count")
	res.set("service.sessions", float64(after.Sessions), "count")
	if ok > 0 {
		res.set("bench.daemon_cpu_ms_per_kreq", daemonCPU.Seconds()*1e3/(float64(ok)/1e3), "ms/kreq")
	}
	res.set("bench.generator_cpu_share", selfCPU.Seconds()/(lr.elapsed.Seconds()*float64(runtime.NumCPU())), "ratio")

	if err := tracedPass(w, rc, win, res); err != nil {
		return nil, err
	}
	return res, nil
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleRSS reads the daemon's resident set every rssEvery until stop
// closes, then sends the samples.
func sampleRSS(pid int, stop <-chan struct{}, out chan<- []float64) {
	var mb []float64
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			out <- mb
			return
		case <-tick.C:
			if v, err := statusMB(pid, "VmRSS:"); err == nil {
				mb = append(mb, v)
			}
		}
	}
}

const rssEvery = 250 * time.Millisecond
