package nn

import (
	"reflect"
	"sync"
	"testing"
)

func TestCachedShapesMatchesShapes(t *testing.T) {
	m := VGGA()
	want, err := m.Shapes(256)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.CachedShapes(256)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("CachedShapes differs from Shapes")
	}
	again, err := m.CachedShapes(256)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &again[0] {
		t.Error("second CachedShapes call did not hit the cache")
	}
	other, err := m.CachedShapes(128)
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != len(got) || other[0].In.B != 128 {
		t.Errorf("batch-128 shapes wrong: B=%d", other[0].In.B)
	}
}

func TestCachedShapesErrorNotCached(t *testing.T) {
	m := VGGA()
	if _, err := m.CachedShapes(0); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if _, err := m.CachedShapes(256); err != nil {
		t.Fatalf("valid batch rejected after error: %v", err)
	}
}

func TestCachedShapesConcurrent(t *testing.T) {
	m := LenetC()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 1; b <= 32; b++ {
				if _, err := m.CachedShapes(b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestShapeCacheEviction(t *testing.T) {
	// Push far past the limit with churning instances; the cache must
	// stay correct (eviction only drops memoization, never results).
	for i := 0; i < shapeCacheLimit+64; i++ {
		m := LenetC()
		s, err := m.CachedShapes(8)
		if err != nil {
			t.Fatal(err)
		}
		if len(s) != 4 {
			t.Fatalf("iteration %d: %d shapes", i, len(s))
		}
	}
	if n := ShapeCacheLen(); n > shapeCacheLimit {
		t.Errorf("cache size %d exceeds limit %d", n, shapeCacheLimit)
	}
}

// TestShapeCacheHotEntriesSurviveChurn is the regression test for the
// whole-map flush the cache used to perform when full: a pinned zoo's
// hot entries must survive hostile all-unique-model churn far past the
// limit, as long as they stay hot. Survival is observed structurally —
// a hit returns the identical cached slice, a recompute does not.
func TestShapeCacheHotEntriesSurviveChurn(t *testing.T) {
	zoo := Zoo()
	pinned := make([][]LayerShapes, len(zoo))
	for i, m := range zoo {
		s, err := m.CachedShapes(7)
		if err != nil {
			t.Fatal(err)
		}
		pinned[i] = s
	}
	// Churn 3x the limit in unique instances, touching the zoo entries
	// every touchEvery insertions (any cadence under the limit keeps
	// them hot). The historical flush dropped the zoo at every limit
	// crossing regardless of how hot it was.
	const touchEvery = 256
	for i := 0; i < 3*shapeCacheLimit; i++ {
		m := LenetC()
		if _, err := m.CachedShapes(8); err != nil {
			t.Fatal(err)
		}
		if i%touchEvery == 0 {
			for j, zm := range zoo {
				s, err := zm.CachedShapes(7)
				if err != nil {
					t.Fatal(err)
				}
				if &s[0] != &pinned[j][0] {
					t.Fatalf("churn iteration %d evicted hot zoo entry %s", i, zm.Name)
				}
			}
		}
	}
	if n := ShapeCacheLen(); n > shapeCacheLimit {
		t.Errorf("cache size %d exceeds limit %d", n, shapeCacheLimit)
	}
}

// TestShapeCacheBoundExactUnderRace hammers the cache from many
// goroutines with all-unique models and checks the bound is exact at
// every observation point — the counter-drift regression (a flush's
// reset racing concurrent increments) cannot recur when the LRU is the
// single source of truth. Run with -race for the full guarantee.
func TestShapeCacheBoundExactUnderRace(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*shapeCacheLimit/8; i++ {
				m := LenetC()
				if _, err := m.CachedShapes(8); err != nil {
					t.Error(err)
					return
				}
				if n := ShapeCacheLen(); n > shapeCacheLimit {
					t.Errorf("cache size %d exceeds limit %d", n, shapeCacheLimit)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDropCachedShapes verifies per-model removal: only the dropped
// model's entries (every batch size) leave the cache.
func TestDropCachedShapes(t *testing.T) {
	a, b := LenetC(), CifarC()
	for _, batch := range []int{3, 5, 9} {
		if _, err := a.CachedShapes(batch); err != nil {
			t.Fatal(err)
		}
	}
	sb, err := b.CachedShapes(3)
	if err != nil {
		t.Fatal(err)
	}
	if n := DropCachedShapes(a); n != 3 {
		t.Fatalf("DropCachedShapes dropped %d entries, want 3", n)
	}
	if n := DropCachedShapes(a); n != 0 {
		t.Fatalf("second drop removed %d entries, want 0", n)
	}
	again, err := b.CachedShapes(3)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &sb[0] {
		t.Error("dropping model a evicted model b's entry")
	}
}

// checkShapeIndex asserts the per-model batch index and the shape cache
// agree exactly: every indexed (model, batch) is resident, none is
// listed twice, and the index lists as many entries as the cache holds.
func checkShapeIndex(t *testing.T) {
	t.Helper()
	shapeIdx.mu.Lock()
	snap := make(map[*Model][]int, len(shapeIdx.batches))
	for m, bs := range shapeIdx.batches {
		snap[m] = append([]int(nil), bs...)
	}
	shapeIdx.mu.Unlock()
	total := 0
	for m, bs := range snap {
		seen := map[int]bool{}
		for _, b := range bs {
			if seen[b] {
				t.Errorf("index lists model %p batch %d twice", m, b)
			}
			seen[b] = true
			if _, ok := shapeCache.Get(shapeKey{model: m, batch: b}); !ok {
				t.Errorf("index lists model %p batch %d, which is not cached", m, b)
			}
		}
		total += len(bs)
	}
	if n := ShapeCacheLen(); total != n {
		t.Errorf("index lists %d entries, cache holds %d", total, n)
	}
}

// TestDropCachedShapesFullCache drops one model from a cache filled to
// its limit: exactly its 3 entries leave and every other entry stays.
func TestDropCachedShapesFullCache(t *testing.T) {
	a := CifarC()
	for _, batch := range []int{2, 4, 8} {
		if _, err := a.CachedShapes(batch); err != nil {
			t.Fatal(err)
		}
	}
	others := make([]*Model, shapeCacheLimit-3)
	first := make([]*LayerShapes, len(others))
	for i := range others {
		others[i] = LenetC()
		s, err := others[i].CachedShapes(1)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = &s[0]
	}
	if n := ShapeCacheLen(); n != shapeCacheLimit {
		t.Fatalf("cache holds %d entries, want the limit %d", n, shapeCacheLimit)
	}
	if n := DropCachedShapes(a); n != 3 {
		t.Fatalf("DropCachedShapes dropped %d entries, want 3", n)
	}
	if n := ShapeCacheLen(); n != shapeCacheLimit-3 {
		t.Fatalf("cache holds %d entries after the drop, want %d", n, shapeCacheLimit-3)
	}
	for i, m := range others {
		s, err := m.CachedShapes(1)
		if err != nil {
			t.Fatal(err)
		}
		if &s[0] != first[i] {
			t.Fatalf("dropping one model evicted another model's entry (%d)", i)
		}
	}
	checkShapeIndex(t)
}

// TestShapeCacheStress runs concurrent lookups, drops and capacity
// evictions against the shape cache, then checks that the batch index
// and the cache agree once the goroutines finish. Run with -race.
func TestShapeCacheStress(t *testing.T) {
	pool := make([]*Model, 16)
	for i := range pool {
		pool[i] = LenetC()
	}
	var wg sync.WaitGroup
	run := func(n int, f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				f(i)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		// Fresh models past the limit force capacity evictions.
		run(shapeCacheLimit/3, func(int) {
			if _, err := LenetC().CachedShapes(8); err != nil {
				t.Error(err)
			}
		})
	}
	for g := 0; g < 2; g++ {
		run(4000, func(i int) {
			if _, err := pool[(i*7)%len(pool)].CachedShapes(1 + i%4); err != nil {
				t.Error(err)
			}
		})
		run(1000, func(i int) { DropCachedShapes(pool[(i*5+g)%len(pool)]) })
	}
	wg.Wait()
	checkShapeIndex(t)
	for _, m := range pool {
		DropCachedShapes(m)
	}
	checkShapeIndex(t)
}

// TestAllocsCachedShapesHit pins the lookup every plan and simulated
// step makes: a shape-cache hit allocates nothing.
func TestAllocsCachedShapesHit(t *testing.T) {
	m := AlexNet()
	if _, err := m.CachedShapes(64); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.CachedShapes(64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("shape-cache hit allocates %.1f objects, want 0", allocs)
	}
}
