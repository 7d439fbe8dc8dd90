package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

// These tests pin the hot path's allocation behavior. CI runs them in a
// dedicated `go test -run TestAllocs` stage so an accidental allocation
// regression fails loudly instead of only showing up as benchmark
// drift. Bounds are small constants, not zeros: testing.AllocsPerRun
// amortizes pool refills after its initial GC, so a strict-zero bound
// would be flaky by construction.

// TestAllocsFastPathHit bounds the raw-bytes lookup: a hot hit builds
// one key string and touches nothing else — no JSON decode, no hashing,
// no config marshal.
func TestAllocsFastPathHit(t *testing.T) {
	srv, ts, _ := newFastTestServer(t, 0)
	body := []byte(`{"zoo":"Lenet-c","strategy":"hypar"}`)
	if code, resp := postJSON(t, ts.URL+"/v1/evaluate", string(body)); code != http.StatusOK {
		t.Fatalf("seed request: status %d: %s", code, resp)
	}
	if _, ok := srv.tryFast("evaluate", body); !ok {
		t.Fatal("seed request did not populate the fast path")
	}

	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := srv.tryFast("evaluate", body); !ok {
			t.Fatal("fast-path entry evicted mid-measurement")
		}
	})
	if allocs > 2 {
		t.Errorf("fast-path hit allocates %.1f objects per lookup, want <= 2 (one key string)", allocs)
	}
}

// TestAllocsRequestKey bounds the canonical request hash: the pooled
// hasher keeps the preimage buffer, digest and hex arrays across
// requests, so deriving a key allocates only the returned string.
func TestAllocsRequestKey(t *testing.T) {
	srv, _, _ := newFastTestServer(t, 0)
	p, err := srv.resolveRequest(request{Zoo: "VGG-A"}, true, false)
	if err != nil {
		t.Fatal(err)
	}
	want := p.key("evaluate")

	allocs := testing.AllocsPerRun(200, func() {
		if got := p.key("evaluate"); got != want {
			t.Fatalf("key drift: %s != %s", got, want)
		}
	})
	if allocs > 2 {
		t.Errorf("key() allocates %.1f objects per call, want <= 2 (the key string)", allocs)
	}
}

// TestAllocsZeroConfigMarshals proves base-config requests never
// re-marshal the config: they reuse the JSON rendered once at New. The
// package-level counter covers every request on the connection,
// including bodies whose explicit config canonicalizes back to base.
func TestAllocsZeroConfigMarshals(t *testing.T) {
	_, ts, _ := newFastTestServer(t, 0)
	before := configMarshals.Load()

	baseBodies := []string{
		`{"zoo":"Lenet-c","strategy":"hypar"}`,
		`{"zoo":"Lenet-c"}`,
		`{"zoo":"VGG-A","strategy":"dp","config":{}}`,
	}
	for _, body := range baseBodies {
		for i := 0; i < 3; i++ {
			if code, resp := postJSON(t, ts.URL+"/v1/evaluate", body); code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, code, resp)
			}
		}
	}
	if got := configMarshals.Load() - before; got != 0 {
		t.Errorf("base-config requests marshaled the config %d times, want 0", got)
	}

	// Sanity check the counter is live: a genuinely non-base config
	// must marshal (once per parse; replays skip it on both cache tiers).
	if code, resp := postJSON(t, ts.URL+"/v1/evaluate", `{"zoo":"Lenet-c","config":{"batch":64}}`); code != http.StatusOK {
		t.Fatalf("non-base config: status %d: %s", code, resp)
	}
	if got := configMarshals.Load() - before; got != 1 {
		t.Errorf("non-base config marshals = %d, want 1", got)
	}
}

// TestAllocsBodyBufferReuse pins the pool hygiene rules: body buffers
// recycle below the cap and are dropped once grown past it, so one
// hostile request cannot pin megabytes in the pool.
func TestAllocsBodyBufferReuse(t *testing.T) {
	small := getBodyBuf()
	small.WriteString(strings.Repeat("x", 1024))
	putBodyBuf(small)

	big := getBodyBuf()
	big.WriteString(strings.Repeat("x", bodyBufMax+1))
	if big.Cap() <= bodyBufMax {
		t.Fatalf("test setup: buffer cap %d did not exceed bodyBufMax", big.Cap())
	}
	putBodyBuf(big)

	reused := getBodyBuf()
	defer putBodyBuf(reused)
	if reused == big {
		t.Error("oversized buffer was pooled; putBodyBuf must drop it")
	}
	if reused.Len() != 0 {
		t.Errorf("pooled buffer not reset: %d bytes resident", reused.Len())
	}
}

// TestAllocsZeroZooModelEncodes proves zoo requests never encode their
// model: they hash the canonical bytes pinned at New. The counter is
// live for inline models, which must encode once per parse.
func TestAllocsZeroZooModelEncodes(t *testing.T) {
	_, ts, _ := newFastTestServer(t, -1)
	before := modelEncodes.Load()
	for _, body := range []string{
		`{"zoo":"Lenet-c","strategy":"hypar"}`,
		`{"zoo":"VGG-A","config":{"batch":64}}`,
		`{"zoo":"SRES-8","strategy":"dp"}`,
	} {
		for _, ep := range []string{"/v1/plan", "/v1/evaluate"} {
			if code, resp := postJSON(t, ts.URL+ep, body); code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", ep, body, code, resp)
			}
		}
	}
	if got := modelEncodes.Load() - before; got != 0 {
		t.Errorf("zoo requests encoded a model %d times, want 0", got)
	}
	inline := `{"model":{"name":"enc","input":{"h":8,"w":8,"c":1},"layers":[{"name":"f","type":"fc","cout":4}]},"config":{"batch":8,"levels":1}}`
	if code, resp := postJSON(t, ts.URL+"/v1/plan", inline); code != http.StatusOK {
		t.Fatalf("inline model: status %d: %s", code, resp)
	}
	if got := modelEncodes.Load() - before; got != 1 {
		t.Errorf("inline model encodes = %d, want 1", got)
	}
}

// discardWriter is a reusable http.ResponseWriter, so the allocations
// counted are the handler's, not a recorder's.
type discardWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// TestAllocsColdMiss bounds the full miss path of a zoo /v1/evaluate
// with both cache tiers disabled: decode, canonicalize, key, plan,
// simulate and render all run on every call.
func TestAllocsColdMiss(t *testing.T) {
	srv, err := New(Options{CacheEntries: -1, RawCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	body := []byte(`{"zoo":"AlexNet","strategy":"hypar"}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", nil)
	req.Body = io.NopCloser(rd)
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		rd.Reset(body)
		w.body.Reset()
		w.code = http.StatusOK
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d: %s", w.code, w.body.Bytes())
		}
	}
	serve()
	allocs := testing.AllocsPerRun(100, serve)
	t.Logf("cold zoo /v1/evaluate: %.0f allocs/op", allocs)
	if allocs > 300 {
		t.Errorf("cold zoo /v1/evaluate allocates %.0f objects per request, want <= 300", allocs)
	}
}

// TestAllocsExploreSweep bounds a whole /v1/explore sweep body —
// VGG-A's default 256-point sweep, BenchmarkExploreSweep's input — at
// 1.5 allocations per point, fixed costs included, on a two-worker pool:
// the sweep's volume table and step program are built once and shared
// by the workers, so stepping a point allocates nothing (sim's
// TestAllocsSweepStep). The per-sweep costs — base and DP plans, the
// tables, the program, the body — measured 0.89 per point before the
// program replaced each worker's Simulator.
func TestAllocsExploreSweep(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's own allocations inflate the per-point count; CI gates it in the un-instrumented pass")
	}
	srv, err := New(Options{Pool: runner.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	p, err := srv.resolveRequest(request{Zoo: "VGG-A"}, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := finishExploreParse(p); err != nil {
		t.Fatal(err)
	}
	points := 1 << uint(len(p.free))
	sweep := func() {
		if _, err := srv.exploreBody(context.Background(), p, nil); err != nil {
			t.Fatal(err)
		}
	}
	sweep()
	perPoint := testing.AllocsPerRun(10, sweep) / float64(points)
	t.Logf("%.2f allocations per point over %d points", perPoint, points)
	if perPoint > 1.5 {
		t.Errorf("a VGG-A sweep allocates %.2f objects per point, want <= 1.5", perPoint)
	}
}

// TestPostRecordsLatencyOnDisconnect checks the handler mean counts a
// request whose client went away mid-wait: post must still add its
// latency, and must not answer a client that is gone.
func TestPostRecordsLatencyOnDisconnect(t *testing.T) {
	srv, _, _ := newFastTestServer(t, 0)
	m := srv.metrics["plan"]
	latency, errs := m.latencyNs.Load(), m.errors.Load()
	const wait = 2 * time.Millisecond
	h := srv.post("plan", func(http.ResponseWriter, *http.Request) error {
		time.Sleep(wait)
		return context.Canceled
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", nil).WithContext(ctx))
	if got := m.latencyNs.Load() - latency; got < int64(wait) {
		t.Errorf("latency grew by %v for a disconnected client, want >= %v", time.Duration(got), wait)
	}
	if got := m.errors.Load() - errs; got != 1 {
		t.Errorf("errors grew by %d, want 1", got)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("answered a disconnected client: %q", rec.Body.String())
	}
}
