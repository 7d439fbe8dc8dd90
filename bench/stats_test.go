package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	for _, c := range []struct {
		n       int
		wantPct float64
		wantV   float64
	}{
		{2000, 99, 1979}, // p99 has 20 beyond it
		{1000, 99, 989},  // exactly 10 beyond
		{500, 98, 489},   // p99 would leave 5: fall back to 10 beyond
		{11, 100.0 / 11, 0},
		{5, 100, 4}, // too few samples for any tail: the maximum
	} {
		pct, v := tail(ramp(c.n))
		if math.Abs(pct-c.wantPct) > 1e-9 || v != c.wantV {
			t.Errorf("tail(n=%d) = p%v %v, want p%v %v", c.n, pct, v, c.wantPct, c.wantV)
		}
		if c.n > tailMinBeyond {
			if beyond := c.n - 1 - int(v); beyond < tailMinBeyond {
				t.Errorf("tail(n=%d) leaves %d samples beyond", c.n, beyond)
			}
		}
	}
}

func TestStatszDeltaArithmetic(t *testing.T) {
	before := &statsz{Endpoints: map[string]endpointCounters{
		"evaluate": {Requests: 10, FastHits: 2, Computes: 8, LatencyNs: 1000},
		"healthz":  {Requests: 5},
	}}
	after := &statsz{Endpoints: map[string]endpointCounters{
		"evaluate": {Requests: 110, FastHits: 52, CacheHits: 10, Computes: 46, Coalesced: 2, LatencyNs: 2_001_000},
		"plan":     {Requests: 100, FastHits: 50, Computes: 50, LatencyNs: 2_000_000},
		"healthz":  {Requests: 500},
		"statsz":   {Requests: 7},
	}}
	w := statszDelta(before, after)
	if w.requests != 200 || w.fastHits != 100 || w.cacheHits != 10 || w.computes != 88 || w.coalesced != 2 {
		t.Fatalf("delta = %+v", w)
	}
	if got := w.share(w.fastHits); got != 0.5 {
		t.Errorf("fast share = %v, want 0.5", got)
	}
	if got := w.handlerMeanMs(); got != 0.02 {
		t.Errorf("handler mean = %v ms, want 4e6 ns / 200 = 0.02", got)
	}
	if got := (window{}).share(1); got != 0 {
		t.Errorf("empty window share = %v", got)
	}
}

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 30},
		{id: 3, parent: 1, start: 20, end: 50},  // overlaps span 2
		{id: 4, parent: 1, start: 90, end: 120}, // runs past its parent
		{id: 5, parent: 3, start: 25, end: 35},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10}
	got := selfTimes(spans)
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("self time of span %d = %d, want %d", k+1, got[k], want[k])
		}
	}
}

// checkTraceFile parses a written trace as a Chrome trace-event list and
// requires every event to carry a span name.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string          `json:"name"`
		Ph   string          `json:"ph"`
		Ts   *float64        `json:"ts"`
		Dur  *float64        `json:"dur"`
		Args json.RawMessage `json:"args"`
	}
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("%s is not a trace-event list: %v", path, err)
	}
	if len(events) == 0 {
		t.Fatalf("%s holds no events", path)
	}
	for k, e := range events {
		if e.Name == "" || e.Ph != "X" || e.Ts == nil || e.Dur == nil {
			t.Fatalf("%s event %d = %+v", path, k, e)
		}
	}
}

func TestWriteTraceParses(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	root := tr.begin("bench", "request", "evaluate", 0, 7)
	tr.time("partition", "hypar.NewPlanOpts", "cold", root, 7, func() {})
	tr.end(root)
	path := filepath.Join(t.TempDir(), "out", "t.trace.json")
	if err := writeTrace(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	checkTraceFile(t, path)
}
