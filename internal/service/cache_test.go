package service

import (
	"fmt"
	"testing"

	"repro/internal/lru"
	"repro/internal/nn"
)

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
