package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// newFastTestServer builds a server with an explicit raw-bytes budget
// and a compute counter.
func newFastTestServer(t *testing.T, rawBytes int) (*Server, *httptest.Server, *atomic.Int64) {
	t.Helper()
	var computes atomic.Int64
	srv, err := New(Options{
		RawCacheBytes: rawBytes,
		OnCompute:     func(string, string) { computes.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, &computes
}

// TestFastPathByteReplay proves the tentpole equivalence on every
// cached endpoint: replaying the exact same body returns exactly the
// same bytes via the raw fast path — one compute, one fast hit, and no
// drift between the slow-path and fast-path renderings.
func TestFastPathByteReplay(t *testing.T) {
	cases := []struct {
		endpoint string
		body     string
	}{
		{"plan", `{"zoo":"Lenet-c"}`},
		{"evaluate", `{"zoo":"Lenet-c","strategy":"hypar"}`},
		{"compare", `{"zoo":"Lenet-c"}`},
		{"degrade", `{"zoo":"Lenet-c","config":{"faults":{"level":1,"groups":2}}}`},
	}
	for _, tc := range cases {
		t.Run(tc.endpoint, func(t *testing.T) {
			srv, ts, computes := newFastTestServer(t, 0)
			url := ts.URL + "/v1/" + tc.endpoint

			code, first := postJSON(t, url, tc.body)
			if code != http.StatusOK {
				t.Fatalf("first request: status %d: %s", code, first)
			}
			n := computes.Load()
			if n == 0 {
				t.Fatal("first request did not compute")
			}
			if got := srv.metrics[tc.endpoint].fastHits.Load(); got != 0 {
				t.Fatalf("first request fastHits = %d, want 0", got)
			}

			code, second := postJSON(t, url, tc.body)
			if code != http.StatusOK {
				t.Fatalf("replay: status %d: %s", code, second)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("replay bytes differ from slow path:\nfirst:  %s\nsecond: %s", first, second)
			}
			if got := computes.Load(); got != n {
				t.Errorf("replay computed: computes %d -> %d", n, got)
			}
			if got := srv.metrics[tc.endpoint].fastHits.Load(); got != 1 {
				t.Errorf("replay fastHits = %d, want 1", got)
			}
		})
	}
}

// TestFastPathVariants pins the two-tier semantics: a reformatted body
// (field order, whitespace) misses the raw map but hits the canonical
// cache without recomputing — and once served, its exact bytes fast-path
// on repeat.
func TestFastPathVariants(t *testing.T) {
	srv, ts, computes := newFastTestServer(t, 0)
	url := ts.URL + "/v1/evaluate"
	base := `{"zoo":"VGG-A","strategy":"hypar"}`
	variant := ` {"strategy": "hypar",  "zoo": "VGG-A"} `

	code, first := postJSON(t, url, base)
	if code != http.StatusOK {
		t.Fatalf("base: status %d: %s", code, first)
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("base computes = %d, want 1", got)
	}

	// Variant: raw miss (different bytes), canonical hit (same meaning).
	code, got := postJSON(t, url, variant)
	if code != http.StatusOK {
		t.Fatalf("variant: status %d: %s", code, got)
	}
	if !bytes.Equal(first, got) {
		t.Errorf("variant response differs:\nbase:    %s\nvariant: %s", first, got)
	}
	m := srv.metrics["evaluate"]
	if f := m.fastHits.Load(); f != 0 {
		t.Errorf("variant fastHits = %d, want 0 (different bytes must miss the raw map)", f)
	}
	if c := m.cacheHits.Load(); c != 1 {
		t.Errorf("variant cacheHits = %d, want 1 (same canonical hash)", c)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("variant recomputed: computes = %d, want 1", n)
	}

	// The variant's own bytes were seeded on resolution: replaying them
	// now lands on the fast path.
	code, again := postJSON(t, url, variant)
	if code != http.StatusOK {
		t.Fatalf("variant replay: status %d: %s", code, again)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("variant replay differs from base response")
	}
	if f := m.fastHits.Load(); f != 1 {
		t.Errorf("variant replay fastHits = %d, want 1", f)
	}
}

// TestFastPathByteBudget drives hostile all-unique traffic (every body
// byte-distinct, all meaning the same request) against a small raw
// budget: the canonical cache absorbs the work (one compute) while the
// raw map churns its cold tail instead of growing without bound.
func TestFastPathByteBudget(t *testing.T) {
	const budget = 64 << 10
	srv, ts, computes := newFastTestServer(t, budget)
	url := ts.URL + "/v1/evaluate"

	const unique = 300
	for i := 0; i < unique; i++ {
		// Distinct trailing whitespace keeps every body byte-unique but
		// canonically identical.
		body := `{"zoo":"Lenet-c","strategy":"hypar"}` + strings.Repeat(" ", i)
		code, resp := postJSON(t, url, body)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, resp)
		}
		if got := srv.raw.Cost(); got > budget {
			t.Fatalf("after request %d: raw bytes %d exceed budget %d", i, got, budget)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computes = %d, want 1 (all variants share one canonical entry)", n)
	}
	if n := srv.raw.Len(); n == 0 {
		t.Error("raw map empty after traffic: budget admits nothing")
	} else if n >= unique {
		t.Errorf("raw map holds %d entries for %d unique bodies: no eviction under budget", n, unique)
	}
}

// TestFastPathDisabled covers RawCacheBytes < 0: no raw map, identical
// replays still serve from the canonical cache, byte-identically.
func TestFastPathDisabled(t *testing.T) {
	srv, ts, computes := newFastTestServer(t, -1)
	if srv.raw != nil {
		t.Fatal("negative RawCacheBytes left the raw cache enabled")
	}
	url := ts.URL + "/v1/evaluate"
	body := `{"zoo":"Lenet-c","strategy":"hypar"}`

	_, first := postJSON(t, url, body)
	code, second := postJSON(t, url, body)
	if code != http.StatusOK {
		t.Fatalf("replay: status %d: %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Error("replay bytes differ with fast path disabled")
	}
	m := srv.metrics["evaluate"]
	if f := m.fastHits.Load(); f != 0 {
		t.Errorf("fastHits = %d, want 0 when disabled", f)
	}
	if c := m.cacheHits.Load(); c != 1 {
		t.Errorf("cacheHits = %d, want 1", c)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computes = %d, want 1", n)
	}
	if snap := srv.rawSnapshot(); snap != (rawCacheSnapshot{}) {
		t.Errorf("rawSnapshot = %+v, want zero value when disabled", snap)
	}
}

// TestFastPathTooLarge pins the 413 contract: a body over the endpoint
// limit answers 413 with the uniform error shape, for both the 2 MiB
// single-request bound and the 16 MiB batch bound.
func TestFastPathTooLarge(t *testing.T) {
	_, ts, computes := newFastTestServer(t, 0)

	cases := []struct {
		path string
		size int
	}{
		{"/v1/evaluate", MaxRequestBytes + 1},
		{"/v1/plan", MaxRequestBytes + 1},
		{"/v1/batch", MaxBatchBytes + 1},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			body := `{"pad":"` + strings.Repeat("x", tc.size) + `"}`
			code, resp := postJSON(t, ts.URL+tc.path, body)
			if code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status = %d, want 413", code)
			}
			var e errorResponse
			if err := json.Unmarshal(resp, &e); err != nil {
				t.Fatalf("413 body is not the uniform error shape: %v: %s", err, resp)
			}
			if !strings.Contains(e.Error, "byte limit") {
				t.Errorf("413 error %q does not name the byte limit", e.Error)
			}
		})
	}
	if n := computes.Load(); n != 0 {
		t.Errorf("oversized bodies computed %d times, want 0", n)
	}
}

// TestFastPathStatsz asserts /statsz reports the new counters: per-
// endpoint fastHits and the rawCache occupancy block.
func TestFastPathStatsz(t *testing.T) {
	_, ts, _ := newFastTestServer(t, 0)
	url := ts.URL + "/v1/evaluate"
	body := `{"zoo":"Lenet-c","strategy":"hypar"}`
	postJSON(t, url, body)
	postJSON(t, url, body)

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	ep := stats.Endpoints["evaluate"]
	if ep.FastHits != 1 {
		t.Errorf("statsz evaluate.fastHits = %d, want 1", ep.FastHits)
	}
	if ep.Requests != 2 {
		t.Errorf("statsz evaluate.requests = %d, want 2", ep.Requests)
	}
	rc := stats.RawCache
	if rc.BudgetBytes != DefaultRawCacheBytes {
		t.Errorf("statsz rawCache.budgetBytes = %d, want %d", rc.BudgetBytes, DefaultRawCacheBytes)
	}
	if rc.Entries < 1 || rc.Bytes <= 0 {
		t.Errorf("statsz rawCache occupancy = %+v, want at least one resident entry", rc)
	}
	if rc.Shards != rawShards {
		t.Errorf("statsz rawCache.shards = %d, want %d", rc.Shards, rawShards)
	}
}

// TestFastPathStress hammers a small raw budget from concurrent
// goroutines mixing exact replays and byte-variants — run under -race
// this is the data-race check on the striped raw map, and every
// response must still be byte-identical to the reference.
func TestFastPathStress(t *testing.T) {
	_, ts, _ := newFastTestServer(t, 32<<10)
	url := ts.URL + "/v1/evaluate"

	_, want := postJSON(t, url, `{"zoo":"Lenet-c","strategy":"hypar"}`)

	const workers = 8
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Worker-varied padding mixes raw hits, raw misses that
				// hit the canonical cache, and fresh raw insertions.
				body := `{"zoo":"Lenet-c","strategy":"hypar"}` + strings.Repeat(" ", (w*i)%17)
				resp, err := http.Post(url, "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err.Error()
					return
				}
				b := new(bytes.Buffer)
				_, _ = b.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("worker %d round %d: status %d", w, i, resp.StatusCode)
					return
				}
				if !bytes.Equal(b.Bytes(), want) {
					errs <- fmt.Sprintf("worker %d round %d: response drift", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
