package experiments

import (
	"sync"
	"testing"

	hypar "repro"
	"repro/internal/runner"
)

// cacheCfg resolves a distinct config per batch size, afresh on every
// call: sessions key on the config, not on the resolved value.
func cacheCfg(batch int) *hypar.Resolved {
	c := hypar.DefaultConfig()
	c.Batch = batch
	r, err := hypar.Resolve(c)
	if err != nil {
		panic(err) // the default config at a positive batch is valid
	}
	return r
}

// TestSessionCacheReuse proves repeated Gets for one config return one
// Session instance and build exactly once, including under concurrency.
func TestSessionCacheReuse(t *testing.T) {
	c := NewSessionCache(4, runner.Serial())
	var builds int
	c.SetOnBuild(func(hypar.Config) { builds++ })

	res := cacheCfg(64)
	first := c.Get(res)
	if r, err := first.resolved(); r != res || err != nil {
		t.Errorf("session resolved to %p, %v; want the caller's value %p", r, err, res)
	}
	var wg sync.WaitGroup
	got := make([]*Session, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.Get(cacheCfg(64))
		}(i)
	}
	wg.Wait()
	for i, s := range got {
		if s != first {
			t.Fatalf("Get %d returned a different session", i)
		}
	}
	if builds != 1 {
		t.Errorf("builds=%d for 17 Gets of one config, want 1", builds)
	}
	if c.Builds() != 1 || c.Len() != 1 {
		t.Errorf("Builds()=%d Len()=%d", c.Builds(), c.Len())
	}
}

// TestSessionCacheBound proves LRU eviction beyond the bound: the
// least recently used config's session is dropped and rebuilt on the
// next Get, while the refreshed one survives.
func TestSessionCacheBound(t *testing.T) {
	c := NewSessionCache(2, runner.Serial())
	a := c.Get(cacheCfg(8))
	c.Get(cacheCfg(16))
	if got := c.Get(cacheCfg(8)); got != a { // refresh a
		t.Fatal("a rebuilt while cached")
	}
	c.Get(cacheCfg(32)) // evicts 16 (8 was refreshed)
	if c.Len() != 2 {
		t.Fatalf("Len()=%d, want 2", c.Len())
	}
	if got := c.Get(cacheCfg(8)); got != a {
		t.Error("a evicted out of LRU order")
	}
	before := c.Builds()
	c.Get(cacheCfg(16)) // rebuilt — it was evicted
	if c.Builds() != before+1 {
		t.Error("evicted config did not rebuild")
	}
}

// TestSessionCacheDisabled proves max <= 0 reverts to a fresh session
// per Get (the pre-cache behavior) without tracking entries.
func TestSessionCacheDisabled(t *testing.T) {
	c := NewSessionCache(-1, runner.Serial())
	a := c.Get(cacheCfg(8))
	b := c.Get(cacheCfg(8))
	if a == b {
		t.Error("disabled cache reused a session")
	}
	if c.Len() != 0 {
		t.Errorf("disabled cache tracked %d entries", c.Len())
	}
}

// TestSessionCacheSharesWork proves the cached session actually
// amortizes evaluation state: the zoo comparison computed through one
// Get is visible through a later Get of the same config.
func TestSessionCacheSharesWork(t *testing.T) {
	c := NewSessionCache(2, runner.Serial())
	cfg := cacheCfg(4) // tiny batch keeps this fast
	s1 := c.Get(cfg)
	cmps, err := s1.CompareZoo()
	if err != nil {
		t.Fatal(err)
	}
	s2 := c.Get(cfg)
	cmps2, err := s2.CompareZoo()
	if err != nil {
		t.Fatal(err)
	}
	if cmps[0] != cmps2[0] {
		t.Error("second Get recomputed the zoo comparison")
	}
}
