package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	hypar "repro"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/runner"
	"repro/internal/service"
)

// span is one timed call into a layer's public function.
type span struct {
	name    string // the public call, e.g. "hypar.NewPlanOpts"
	layer   string // the module it belongs to
	variant string
	id      int // 1-based; parent 0 is the trace root
	parent  int
	req     int // request index
	start   int64
	end     int64 // ns since the pass began
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(layer, name, variant string, parent, req int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, layer: layer, variant: variant,
		id: id, parent: parent, req: req, start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.end = int64(time.Since(t.t0))
	return time.Duration(s.end - s.start)
}

func (t *tracer) time(layer, name, variant string, parent, req int, f func()) time.Duration {
	id := t.begin(layer, name, variant, parent, req)
	f()
	return t.end(id)
}

// selfTimes returns each span's duration minus the part of it that its
// children's intervals cover.
func selfTimes(spans []span) []int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make([]int64, len(spans))
	for k, s := range spans {
		iv := kids[s.id]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[k] = s.end - s.start - covered
	}
	return out
}

// traceEvent is a Chrome trace-event "X" record, the format hypar
// -trace writes.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the spans as a Chrome trace-event list.
func writeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	events := make([]traceEvent, len(spans))
	for k, s := range spans {
		events[k] = traceEvent{Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: 1,
			Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req,
				"variant": s.variant, "self_us": float64(self[k]) / 1e3}}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// sink is a reusable in-memory http.ResponseWriter.
type sink struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (s *sink) Header() http.Header {
	if s.hdr == nil {
		s.hdr = http.Header{}
	}
	return s.hdr
}

func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

func (s *sink) Write(b []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	return s.body.Write(b)
}

func (s *sink) Flush() {}

func (s *sink) reset() {
	clear(s.hdr)
	s.code = 0
	s.body.Reset()
}

// prepared is one traced request with its library inputs resolved.
type prepared struct {
	i      int
	it     item
	body   []byte
	r      *resolved
	inline []byte // the request's inline model, nil for zoo references
	canon  []byte // nn.EncodeModel of the model
	units  []unit
	cold   *hypar.Plan // the probe's cold HyPar plan
	warm   *hypar.Plan // the previous cold plan of the same model, if any
}

// unit is one (strategy, config) evaluation the service runs for a
// request: one for plan and evaluate, four for compare, eight for
// degrade (healthy and degraded per strategy).
type unit struct {
	st       hypar.Strategy
	cfg      hypar.Config
	simulate bool
}

func unitsFor(endpoint string, r *resolved) []unit {
	switch endpoint {
	case "plan":
		return []unit{{r.strategy, r.cfg, false}}
	case "evaluate":
		return []unit{{r.strategy, r.cfg, true}}
	case "compare", "degrade":
		healthy := r.cfg
		healthy.Faults = hypar.Faults{}
		var us []unit
		for _, st := range hypar.Strategies {
			if endpoint == "degrade" {
				us = append(us, unit{st, healthy, true})
			}
			us = append(us, unit{st, r.cfg, true})
		}
		return us
	}
	return nil
}

// prepare resolves the first w.traced requests of the stream. Models
// are interned by canonical bytes, as hypard pins its zoo and interns
// inline models, so shape inference memoizes the same way.
func prepare(w *workload) ([]*prepared, error) {
	models := map[string]*hypar.Model{}
	ps := make([]*prepared, w.traced)
	for i := range ps {
		it := w.item(w.key(i))
		r, err := resolve(it.req)
		if err != nil {
			return nil, fmt.Errorf("traced request %d: %w", i, err)
		}
		canon, err := nn.EncodeModel(r.model)
		if err != nil {
			return nil, err
		}
		if m, ok := models[string(canon)]; ok {
			r.model = m
		} else {
			models[string(canon)] = r.model
		}
		ps[i] = &prepared{i: i, it: it, body: it.body(), r: r, inline: it.req.Model,
			canon: canon, units: unitsFor(it.endpoint, r)}
	}
	return ps, nil
}

// sweepProbes is how many requests of a non-explore workload also time
// an explore sweep of their model over sweepFree.
const sweepProbes = 8

// sweepFree is the free-variable set of the sweep probes on workloads
// without sweeps of their own: the top-level choice of the first 8
// layers, the paper's Figure 9 shape. It is the benchmark's own choice;
// nothing requires it to match what hypard sweeps by default.
func sweepFree(m *hypar.Model) []partition.FreeVar {
	free := make([]partition.FreeVar, 0, 8)
	for l := 0; l < len(m.Layers) && l < 8; l++ {
		free = append(free, partition.FreeVar{Level: 0, Layer: l})
	}
	return free
}

// tier is one in-process service whose cache configuration makes every
// timed request land on one path.
type tier struct {
	metric string
	srv    http.Handler
	prime  bool // serve the body once, untimed, before timing it
}

// tracedPass runs the first w.traced requests in-process, timing each
// call into a layer's public functions, and adds the per-layer ledger
// to res. win is the untraced daemon's window, whose handler mean the
// ledger must reproduce.
func tracedPass(w *workload, rc runConfig, win window, res *runResult) error {
	ps, err := prepare(w)
	if err != nil {
		return err
	}
	var tiers []tier
	for _, o := range []struct {
		metric     string
		cache, raw int
	}{
		{"service.fast", 0, 0},           // the body was served before: raw-bytes hit
		{"service.canonical_hit", 0, -1}, // no raw tier: decode, hash, LRU hit
		{"service.miss", -1, -1},         // no caches: the full miss path
	} {
		srv, err := service.New(service.Options{Config: baseConfig(), CacheEntries: o.cache, RawCacheBytes: o.raw})
		if err != nil {
			return err
		}
		tiers = append(tiers, tier{metric: o.metric, srv: srv.Handler(), prime: o.cache == 0})
	}

	t := &tracer{t0: time.Now()}
	var (
		out        sink
		selfMiss   []float64
		cells      []float64
		tasks      int
		simNs      int64
		mirrorWarm = map[string]*hypar.Plan{} // the service evaluator's warm-start store
		probeWarm  = map[string]*hypar.Plan{}
		mirrorEv   = hypar.NewEvaluator()
		probeEv    = hypar.NewEvaluator()
		pooled     = map[hypar.Config]*experiments.Session{}
		serial     = map[hypar.Config]*experiments.Session{}
		swept      []*prepared // requests whose pooled sweep was timed
	)
	fail := func(p *prepared, what string, err error) {
		res.fail(1, fmt.Sprintf("traced request %d (%s): %s: %v", p.i, p.it.endpoint, what, err))
	}
	// call times f as one span under parent and counts its error.
	call := func(p *prepared, parent int, layer, name, variant string, f func() error) time.Duration {
		var err error
		d := t.time(layer, name, variant, parent, p.i, func() { err = f() })
		if err != nil {
			fail(p, name+" "+variant, err)
		}
		return d
	}
	session := func(cache map[hypar.Config]*experiments.Session, cfg hypar.Config, pool *runner.Pool) *experiments.Session {
		s, ok := cache[cfg]
		if !ok {
			s = experiments.NewSessionWithPool(cfg, pool)
			cache[cfg] = s
		}
		return s
	}
	sweep := func(s *experiments.Session, p *prepared, free []partition.FreeVar) func() error {
		return func() error { return exploreAll(s, p.r.model, free) }
	}

	for _, p := range ps {
		m, cfg := p.r.model, p.r.cfg
		for _, tr := range tiers {
			if tr.prime {
				out.reset()
				tr.srv.ServeHTTP(&out, newRequest(p))
			}
		}
		root := t.begin("bench", "request", p.it.endpoint, 0, p.i)

		// Service: the same body through each cache tier. The three
		// replies must be byte-identical.
		var replies [][]byte
		var missDur time.Duration
		for _, tr := range tiers {
			req := newRequest(p)
			out.reset()
			d := t.time("service", "Handler.ServeHTTP", tr.metric, root, p.i, func() { tr.srv.ServeHTTP(&out, req) })
			if out.code != http.StatusOK {
				fail(p, tr.metric, fmt.Errorf("status %d: %.200s", out.code, out.body.Bytes()))
			}
			replies = append(replies, bytes.Clone(out.body.Bytes()))
			if tr.metric == "service.miss" {
				missDur = d
			}
		}
		if !bytes.Equal(replies[0], replies[2]) || !bytes.Equal(replies[1], replies[2]) {
			fail(p, "replies", fmt.Errorf("cache tiers answered different bytes"))
		}

		// Library: the calls hypard's miss path makes, one span each.
		lib := t.begin("bench", "library", "", root, p.i)
		var libDur time.Duration
		libCall := func(layer, name, variant string, f func() error) {
			libDur += call(p, lib, layer, name, variant, f)
		}
		if p.inline != nil {
			libCall("nn", "nn.DecodeModel", "service", func() error { _, err := nn.DecodeModel(p.inline); return err })
		}
		libCall("nn", "nn.EncodeModel", "service", func() error { _, err := nn.EncodeModel(m); return err })
		libCall("hypar", "hypar.Config.Canonical+Validate", "service", func() error { return p.r.raw.Canonical().Validate() })
		for _, u := range p.units {
			var plan *hypar.Plan
			libCall("partition", "hypar.NewPlanOpts", "service", func() error {
				var opt hypar.PlanOptions
				if u.st == hypar.HyPar {
					opt.Warm = mirrorWarm[m.Name]
				}
				var err error
				plan, err = hypar.NewPlanOpts(context.Background(), m, u.st, u.cfg, opt)
				return err
			})
			if plan == nil {
				continue
			}
			if u.st == hypar.HyPar {
				mirrorWarm[m.Name] = plan
			}
			if u.simulate {
				libCall("sim", "hypar.Evaluator.Simulate", "service", func() error { _, err := mirrorEv.Simulate(m, u.st, plan, u.cfg); return err })
			}
		}
		if p.it.endpoint == "explore" {
			s := session(pooled, cfg, runner.Default())
			libCall("experiments", "Session.ExploreStream", "pooled", sweep(s, p, p.r.free))
			swept = append(swept, p)
		}
		t.end(lib)
		selfMiss = append(selfMiss, float64(missDur-libDur)/1e3)

		// Probes: the layer metrics measured the same way on every
		// workload.
		probe := t.begin("bench", "probe", "", root, p.i)
		call(p, probe, "nn", "nn.DecodeModel", "canonical", func() error { _, err := nn.DecodeModel(p.canon); return err })
		c0 := partition.DPCells()
		call(p, probe, "partition", "hypar.NewPlanOpts", "cold", func() error {
			var err error
			p.cold, err = hypar.NewPlanOpts(context.Background(), m, hypar.HyPar, cfg, hypar.PlanOptions{})
			return err
		})
		cells = append(cells, float64(partition.DPCells()-c0))
		if p.cold != nil {
			if p.warm = probeWarm[m.Name]; p.warm != nil {
				call(p, probe, "partition", "hypar.NewPlanOpts", "warm", func() error {
					_, err := hypar.NewPlanOpts(context.Background(), m, hypar.HyPar, cfg, hypar.PlanOptions{Warm: p.warm})
					return err
				})
			}
			probeWarm[m.Name] = p.cold
			simNs += int64(call(p, probe, "sim", "hypar.Evaluator.Simulate", "probe", func() error {
				r, err := probeEv.Simulate(m, hypar.HyPar, p.cold, cfg)
				if err == nil {
					tasks += r.Stats.Tasks
				}
				return err
			}))
		}
		if p.it.endpoint == "explore" {
			call(p, probe, "experiments", "Session.ExploreStream", "serial", sweep(session(serial, cfg, runner.Serial()), p, p.r.free))
		} else if len(swept) < sweepProbes && cfg.Faults.IsZero() {
			free := sweepFree(m)
			call(p, probe, "experiments", "Session.ExploreStream", "pooled", sweep(session(pooled, cfg, runner.Default()), p, free))
			call(p, probe, "experiments", "Session.ExploreStream", "serial", sweep(session(serial, cfg, runner.Serial()), p, free))
			swept = append(swept, p)
		}
		t.end(probe)
		t.end(root)
	}
	res.attempted += len(ps)

	us := func(layer, name, variant string) []float64 {
		var out []float64
		for _, s := range t.spans {
			if s.layer == layer && s.name == name && s.variant == variant {
				out = append(out, float64(s.end-s.start)/1e3)
			}
		}
		return out
	}
	tierUs := map[string][]float64{}
	for _, tr := range tiers {
		tierUs[tr.metric] = us("service", "Handler.ServeHTTP", tr.metric)
		res.set(tr.metric+"_us", median(tierUs[tr.metric]), "us")
	}
	res.set("service.parse_key_us", res.metrics["service.canonical_hit_us"].Value-res.metrics["service.fast_us"].Value, "us")
	res.set("service.self_miss_us", median(selfMiss), "us")
	res.set("nn.decode_model_us", median(us("nn", "nn.DecodeModel", "canonical")), "us")
	res.set("nn.encode_model_us", median(us("nn", "nn.EncodeModel", "service")), "us")
	res.set("hypar.canonical_us", median(us("hypar", "hypar.Config.Canonical+Validate", "service")), "us")
	res.set("partition.plan_us", median(us("partition", "hypar.NewPlanOpts", "cold")), "us")
	res.set("partition.plan_warm_us", median(us("partition", "hypar.NewPlanOpts", "warm")), "us")
	res.set("partition.dp_cells_per_req", mean(cells), "cells/req")
	res.set("sim.step_us", median(us("sim", "hypar.Evaluator.Simulate", "probe")), "us")
	if steps := len(us("sim", "hypar.Evaluator.Simulate", "probe")); steps > 0 && tasks > 0 {
		res.set("sim.tasks_per_step", float64(tasks)/float64(steps), "tasks/step")
		res.set("sim.ns_per_task", float64(simNs)/float64(tasks), "ns/task")
	}
	sweepMs := median(us("experiments", "Session.ExploreStream", "pooled")) / 1e3
	serialMs := median(us("experiments", "Session.ExploreStream", "serial")) / 1e3
	res.set("experiments.sweep_ms", sweepMs, "ms")
	res.set("experiments.sweep_serial_ms", serialMs, "ms")
	if sweepMs > 0 {
		res.set("runner.speedup", serialMs/sweepMs, "x")
	}
	// The ledger: the daemon's handler mean, predicted from the traced
	// per-tier means weighted by the share of window requests the daemon
	// answered from each tier.
	if handler := win.handlerMeanMs() * 1e3; handler > 0 {
		predicted := mean(tierUs["service.fast"])*win.share(win.fastHits) +
			mean(tierUs["service.canonical_hit"])*win.share(win.cacheHits) +
			mean(tierUs["service.miss"])*win.share(win.computes+win.coalesced)
		res.set("ledger.gap_pct", 100*math.Abs(handler-predicted)/handler, "%")
	}

	allocations(ps, tiers, swept, pooled, res)
	res.notes["self_time"] = selfTimeShares(t.spans)
	return writeTrace(filepath.Join(rc.traceDir, fmt.Sprintf("%s-%d.trace.json", w.name, rc.seed)), t.spans)
}

// exploreAll runs a whole sweep, discarding its points.
func exploreAll(s *experiments.Session, m *hypar.Model, free []partition.FreeVar) error {
	return s.ExploreStream(m, free, nil, func(experiments.ExplorePoint) error { return nil })
}

func newRequest(p *prepared) *http.Request {
	return httptest.NewRequest(http.MethodPost, p.it.path(), bytes.NewReader(p.body))
}

// allocChunk bounds how many requests the allocation pass primes before
// measuring them, so every primed body is still in the service's caches
// (256 LRU entries) when its call is counted.
const allocChunk = 64

// allocations repeats each timed call, untimed, between
// runtime.MemStats reads and records heap allocations per call.
func allocations(ps []*prepared, tiers []tier, swept []*prepared, pooled map[hypar.Config]*experiments.Session, res *runResult) {
	// perOp runs before (outside the count) and then op over each chunk
	// of subset; op reports whether it made the call.
	perOp := func(name string, subset []*prepared, before func(p *prepared), op func(p *prepared) bool) {
		var mallocs uint64
		n := 0
		for lo := 0; lo < len(subset); lo += allocChunk {
			chunk := subset[lo:min(lo+allocChunk, len(subset))]
			if before != nil {
				for _, p := range chunk {
					before(p)
				}
			}
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			for _, p := range chunk {
				if op(p) {
					n++
				}
			}
			runtime.ReadMemStats(&b)
			mallocs += b.Mallocs - a.Mallocs
		}
		if n > 0 {
			res.set(name, float64(mallocs)/float64(n), "allocs/op")
		}
	}
	var out sink
	out.body.Grow(64 << 10)
	reqs := make([]*http.Request, len(ps))
	for _, tr := range tiers {
		perOp(tr.metric+"_allocs", ps, func(p *prepared) {
			if tr.prime {
				out.reset()
				tr.srv.ServeHTTP(&out, newRequest(p))
			}
			reqs[p.i] = newRequest(p)
		}, func(p *prepared) bool {
			out.reset()
			tr.srv.ServeHTTP(&out, reqs[p.i])
			return true
		})
	}
	perOp("nn.decode_model_allocs", ps, nil, func(p *prepared) bool { _, err := nn.DecodeModel(p.canon); return err == nil })
	perOp("nn.encode_model_allocs", ps, nil, func(p *prepared) bool { _, err := nn.EncodeModel(p.r.model); return err == nil })
	perOp("hypar.canonical_allocs", ps, nil, func(p *prepared) bool { return p.r.raw.Canonical().Validate() == nil })
	perOp("partition.plan_allocs", ps, nil, func(p *prepared) bool {
		_, err := hypar.NewPlanOpts(context.Background(), p.r.model, hypar.HyPar, p.r.cfg, hypar.PlanOptions{})
		return err == nil
	})
	perOp("partition.plan_warm_allocs", ps, nil, func(p *prepared) bool {
		if p.warm == nil {
			return false
		}
		_, err := hypar.NewPlanOpts(context.Background(), p.r.model, hypar.HyPar, p.r.cfg, hypar.PlanOptions{Warm: p.warm})
		return err == nil
	})
	ev := hypar.NewEvaluator()
	perOp("sim.step_allocs", ps, nil, func(p *prepared) bool {
		if p.cold == nil {
			return false
		}
		_, err := ev.Simulate(p.r.model, hypar.HyPar, p.cold, p.r.cfg)
		return err == nil
	})
	perOp("experiments.sweep_allocs", swept, nil, func(p *prepared) bool {
		free := p.r.free
		if free == nil {
			free = sweepFree(p.r.model)
		}
		return exploreAll(pooled[p.r.cfg], p.r.model, free) == nil
	})
}

// selfTimeShares renders each layer's share of the traced pass's self
// time: where the request path's time went, layer by layer.
func selfTimeShares(spans []span) string {
	self := selfTimes(spans)
	byLayer := map[string]int64{}
	var total int64
	for k, s := range spans {
		byLayer[s.layer] += self[k]
		total += self[k]
	}
	var b strings.Builder
	b.WriteString("self time by layer:")
	for _, l := range slices.Sorted(maps.Keys(byLayer)) {
		fmt.Fprintf(&b, " %s %.1f%%", l, 100*float64(byLayer[l])/float64(max(total, 1)))
	}
	return b.String()
}
