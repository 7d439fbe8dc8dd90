package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// stressKey derives a deterministic pseudo-random key stream without
// math/rand, so the stress workload is reproducible.
func stressKey(seed, i int) string {
	x := uint64(seed)*2654435761 + uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return fmt.Sprintf("k%x", x%512)
}

// TestShardedLRUStress hammers the striped cache from many goroutines
// (run under -race in CI): concurrent Get/Put across all shards while
// the eviction-bound invariant — total entries never exceed the
// configured capacity — is checked continuously and at the end.
func TestShardedLRUStress(t *testing.T) {
	const (
		maxEntries = 64
		workers    = 8
		ops        = 4000
	)
	c := newShardedLRU(maxEntries, lruShardsFor(maxEntries))
	var wg sync.WaitGroup
	var violations atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := stressKey(seed, i)
				switch i % 3 {
				case 0:
					c.Put(key, response{contentType: "t", body: []byte(key)})
				case 1:
					if resp, ok := c.Get(key); ok && string(resp.body) != key {
						t.Errorf("key %q returned body %q", key, resp.body)
						return
					}
				default:
					if c.Len() > maxEntries {
						violations.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if v := violations.Load(); v > 0 {
		t.Errorf("eviction bound violated %d times during stress", v)
	}
	if n := c.Len(); n > maxEntries {
		t.Errorf("final entry count %d exceeds bound %d", n, maxEntries)
	}
	// Every shard individually respects its slice of the bound.
	total := 0
	for i, sh := range c.shards {
		n := sh.Len()
		if n > sh.Max() {
			t.Errorf("shard %d holds %d entries over its %d bound", i, n, sh.Max())
		}
		total += n
	}
	if total != c.Len() {
		t.Errorf("shard sum %d != Len() %d", total, c.Len())
	}
}

// TestShardedLRUCapacityDistribution proves the total capacity is
// divided exactly across shards for awkward (non-divisible) bounds,
// and that degenerate bounds collapse to fewer shards.
func TestShardedLRUCapacityDistribution(t *testing.T) {
	for _, max := range []int{1, 7, 64, 100, 256, 1000} {
		c := newShardedLRU(max, lruShardsFor(max))
		sum := 0
		for _, sh := range c.shards {
			sum += sh.Max()
		}
		if sum != max {
			t.Errorf("max=%d: shard capacities sum to %d", max, sum)
		}
	}
	if got := lruShardsFor(256); got != 16 {
		t.Errorf("lruShardsFor(256)=%d, want 16", got)
	}
	if got := lruShardsFor(4); got != 1 {
		t.Errorf("lruShardsFor(4)=%d, want 1 (small caches keep exact LRU)", got)
	}
	// Disabled cache stores nothing.
	d := newShardedLRU(-1, 1)
	d.Put("x", response{body: []byte("x")})
	if _, ok := d.Get("x"); ok || d.Len() != 0 {
		t.Error("disabled sharded cache stored an entry")
	}
}

// TestShardedFlightStress coalesces many concurrent callers onto few
// keys (run under -race in CI) and proves the singleflight invariant
// holds across shards: no key ever has two computations in flight at
// once, and every caller of a key gets that key's bytes.
func TestShardedFlightStress(t *testing.T) {
	const (
		keys    = 8
		callers = 64
		rounds  = 25
	)
	var g shardedFlight
	var active [keys]atomic.Int64
	var wg sync.WaitGroup
	for cl := 0; cl < callers; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (cl + r) % keys
				key := fmt.Sprintf("key-%d", k)
				resp, err, _ := g.Do(key, func() (response, error) {
					if n := active[k].Add(1); n != 1 {
						t.Errorf("key %q has %d concurrent computations", key, n)
					}
					defer active[k].Add(-1)
					return response{body: []byte(key)}, nil
				})
				if err != nil || string(resp.body) != key {
					t.Errorf("key %q: resp %q err %v", key, resp.body, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
}

// TestShardedReplayEquivalence is the byte-for-byte equivalence proof
// against the old single-lock cache: two servers — one on the striped
// cache New builds, one forced onto a single-shard (global-lock) cache,
// the pre-sharding configuration — serve an identical request sequence
// with byte-identical responses, replay included.
func TestShardedReplayEquivalence(t *testing.T) {
	sharded, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.cache.shards) < 2 {
		t.Fatalf("default cache is not sharded (%d shards)", len(sharded.cache.shards))
	}
	single, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The old implementation was exactly one lruCache behind one mutex;
	// a 1-shard striped cache is that same structure.
	single.cache = newShardedLRU(DefaultCacheEntries, 1)

	tsSharded := httptest.NewServer(sharded.Handler())
	defer tsSharded.Close()
	tsSingle := httptest.NewServer(single.Handler())
	defer tsSingle.Close()

	requests := []struct {
		path string
		body string
	}{
		{"/v1/evaluate", `{"zoo":"SFC","strategy":"hypar"}`},
		{"/v1/plan", `{"zoo":"Lenet-c","strategy":"dp"}`},
		{"/v1/compare", `{"zoo":"SCONV"}`},
		{"/v1/evaluate", `{"zoo":"SFC","strategy":"hypar"}`}, // cache replay
		{"/v1/explore", `{"zoo":"Lenet-c","free":[{"level":0,"layer":0},{"level":0,"layer":1}]}`},
		{"/v1/explore", `{"zoo":"Lenet-c","free":[{"level":0,"layer":0},{"level":0,"layer":1}]}`}, // replay
		{"/v1/evaluate", `{"zoo":"SFC","strategy":"mp","config":{"batch":64}}`},
	}
	for i, rq := range requests {
		codeA, bodyA := postJSON(t, tsSharded.URL+rq.path, rq.body)
		codeB, bodyB := postJSON(t, tsSingle.URL+rq.path, rq.body)
		if codeA != http.StatusOK || codeB != http.StatusOK {
			t.Fatalf("request %d: status %d vs %d", i, codeA, codeB)
		}
		if !bytes.Equal(bodyA, bodyB) {
			t.Errorf("request %d (%s): sharded and single-lock responses differ:\nsharded: %q\nsingle:  %q",
				i, rq.path, bodyA, bodyB)
		}
	}
}

// TestServiceConcurrentMixedStress drives the whole server concurrently
// with a mix of hot (coalescing), distinct (sharded misses) and batch
// traffic — the end-to-end race test over the striped cache, striped
// flight and per-request sweep sessions together.
// Run under -race in CI.
func TestServiceConcurrentMixedStress(t *testing.T) {
	_, ts, _ := newTestServer(t)
	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				var path, body string
				switch (w + i) % 4 {
				case 0: // hot: every worker collides on one key
					path, body = "/v1/evaluate", `{"zoo":"SFC","strategy":"hypar"}`
				case 1: // distinct keys spread over shards
					path, body = "/v1/evaluate",
						fmt.Sprintf(`{"zoo":"SCONV","strategy":"dp","config":{"batch":%d}}`, 8<<uint(w%4))
				case 2: // a non-base-config sweep on its own session
					path, body = "/v1/explore",
						fmt.Sprintf(`{"zoo":"SFC","config":{"batch":128},"free":[{"level":%d,"layer":0}]}`, w%4)
				default: // batch with intra-batch duplicates
					path = "/v1/batch"
					body = `{"items":[{"zoo":"SFC","strategy":"hypar"},{"zoo":"SFC","strategy":"hypar"},{"endpoint":"plan","zoo":"Lenet-c"}]}`
				}
				code, b := postJSON(t, ts.URL+path, body)
				if code != http.StatusOK {
					t.Errorf("worker %d op %d (%s): status %d: %s", w, i, path, code, b)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
