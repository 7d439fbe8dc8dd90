package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	hypar "repro"
	"repro/internal/lru"
	"repro/internal/nn"
)

// TestNonBaseConfigSessionReuse is the sessionFor regression test: N
// requests at one identical non-base config must build exactly one
// experiments.Session (counter-hook-verified), where the old code
// built a throwaway session per request.
func TestNonBaseConfigSessionReuse(t *testing.T) {
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	srv.sessions.SetOnBuild(func(hypar.Config) { builds.Add(1) })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Distinct free vars per request defeat the response cache, so each
	// request genuinely reaches sessionFor; the config stays identical
	// and non-base (batch 128 vs the default 256).
	const n = 6
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"zoo":"SFC","config":{"batch":128},"free":[{"level":%d,"layer":0}]}`, i%4)
		if code, b := postJSON(t, ts.URL+"/v1/explore", body); code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, b)
		}
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("%d identical non-base-config requests built %d sessions, want exactly 1", n, got)
	}

	// A request at the base config uses the dedicated base session, not
	// the cache.
	if code, _ := postJSON(t, ts.URL+"/v1/explore", `{"zoo":"SFC","free":[{"level":0,"layer":0}]}`); code != http.StatusOK {
		t.Fatal("base-config request failed")
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("base-config request built a cached session (builds=%d)", got)
	}

	// A different non-base config builds its own (one) session.
	if code, _ := postJSON(t, ts.URL+"/v1/explore", `{"zoo":"SFC","config":{"batch":32},"free":[{"level":0,"layer":0}]}`); code != http.StatusOK {
		t.Fatal("second non-base config failed")
	}
	if got := builds.Load(); got != 2 {
		t.Errorf("builds=%d after a second distinct config, want 2", got)
	}
}

// internModel builds a tiny distinct model for the intern cache tests.
func internModel(t *testing.T, i int) (string, *nn.Model) {
	t.Helper()
	raw := fmt.Sprintf(`{"name":"m%d","input":{"h":8,"w":8,"c":1},"layers":[{"name":"fc","type":"fc","cout":%d}]}`, i, i+1)
	m, err := nn.DecodeModel([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := nn.EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(enc), m
}

// TestModelCacheLRU is the intern-cache regression test: under
// hostile all-unique traffic the hot model must survive (LRU), where
// the old code flushed the entire map when full and evicted the hot
// set with it.
func TestModelCacheLRU(t *testing.T) {
	const max = 8
	c := lru.New[string, *nn.Model](max)
	intern := func(key string, m *nn.Model) *nn.Model {
		got, _ := c.GetOrAdd(key, func() *nn.Model { return m })
		return got
	}

	hotKey, hot := internModel(t, 0)
	if got := intern(hotKey, hot); got != hot {
		t.Fatal("first intern did not store the instance")
	}

	// Hostile all-unique flood, several times the bound, touching the
	// hot model between every insertion (a realistic hot set).
	for i := 1; i <= 4*max; i++ {
		key, m := internModel(t, i)
		intern(key, m)
		_, probe := internModel(t, 0)
		if got := intern(hotKey, probe); got != hot {
			t.Fatalf("hot model evicted after %d unique insertions (flush-style eviction)", i)
		}
		if n := c.Len(); n > max {
			t.Fatalf("cache grew to %d entries past the %d bound", n, max)
		}
	}

	// Cold entries were churned: the oldest flood key is gone, so
	// re-interning it stores a fresh instance.
	coldKey, cold1 := internModel(t, 1)
	_, cold2 := internModel(t, 1)
	if got := intern(coldKey, cold2); got == cold1 {
		t.Error("cold entry survived a flood 4x the bound — eviction is not happening")
	}
}
