package nn

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"
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

// TestShapeCacheHotEntriesSurviveChurn pins that a flood of other
// models never evicts a model's memo: each model owns its memo, so a
// hit returns the identical cached slice however many unique models
// run in between.
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
	for i := 0; i < 4096; i++ {
		if _, err := LenetC().CachedShapes(8); err != nil {
			t.Fatal(err)
		}
		if i%256 != 0 {
			continue
		}
		for j, zm := range zoo {
			s, err := zm.CachedShapes(7)
			if err != nil {
				t.Fatal(err)
			}
			if &s[0] != &pinned[j][0] {
				t.Fatalf("churn iteration %d evicted %s's memo", i, zm.Name)
			}
		}
	}
}

// TestShapeMemoBound caches one model at 100 batch sizes: the memo
// keeps at most shapeMemoSize of them, and the latest still hits.
func TestShapeMemoBound(t *testing.T) {
	m := LenetC()
	var last []LayerShapes
	for b := 1; b <= 100; b++ {
		s, err := m.CachedShapes(b)
		if err != nil {
			t.Fatal(err)
		}
		last = s
	}
	if n := m.memo.Load().n; n > shapeMemoSize {
		t.Errorf("memo holds %d batch sizes, want at most %d", n, shapeMemoSize)
	}
	again, err := m.CachedShapes(100)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &last[0] {
		t.Error("latest batch size missed the memo")
	}
}

// TestShapeMemoValueCopy pins that a value copy of a Model, which
// carries the original's memo, never reads it: a copy whose layers are
// then changed gets its own shapes.
func TestShapeMemoValueCopy(t *testing.T) {
	m := LenetC()
	orig, err := m.CachedShapes(8)
	if err != nil {
		t.Fatal(err)
	}
	cp := new(Model)
	reflect.ValueOf(cp).Elem().Set(reflect.ValueOf(m).Elem()) // copies memo too
	cp.Layers = append([]Layer(nil), m.Layers...)
	cp.Layers[0].Cout *= 2
	got, err := cp.CachedShapes(8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cp.Shapes(8)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] == &orig[0] || !reflect.DeepEqual(got, want) {
		t.Fatal("value copy read the original model's memo")
	}
	if again, _ := m.CachedShapes(8); &again[0] != &orig[0] {
		t.Error("the copy's miss replaced the original's memo")
	}
}

// TestShapeMemoFreedWithModel pins that the memo retains nothing: a
// model that becomes unreachable after CachedShapes is collected.
func TestShapeMemoFreedWithModel(t *testing.T) {
	m := VGGA()
	if _, err := m.CachedShapes(64); err != nil {
		t.Fatal(err)
	}
	w := weak.Make(m)
	m = nil
	for i := 0; i < 5 && w.Value() != nil; i++ {
		runtime.GC()
	}
	if w.Value() != nil {
		t.Fatal("model survived GC after CachedShapes: something retains it")
	}
}

// TestShapeMemoStress runs goroutines that look up shared models at
// overlapping batch sizes, so misses race to publish snapshots while
// hits read them; every lookup must return its own batch's shapes.
// Run with -race.
func TestShapeMemoStress(t *testing.T) {
	models := []*Model{LenetC(), CifarC(), AlexNet()}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m := models[(i+g)%len(models)]
				b := 1 + (i*7+g)%6
				s, err := m.CachedShapes(b)
				if err != nil {
					t.Error(err)
					return
				}
				if len(s) != len(m.Layers) || s[0].In.B != b {
					t.Errorf("%s batch %d: got %d layers at batch %d", m.Name, b, len(s), s[0].In.B)
					return
				}
			}
		}()
	}
	wg.Wait()
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
