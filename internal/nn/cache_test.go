package nn

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"
)

// TestCachedShapesMatchesShapes pins Derive's shapes against Shapes,
// a second call at the same batch returning the memoized slice.
func TestCachedShapesMatchesShapes(t *testing.T) {
	m := VGGA()
	want, err := m.Shapes(256)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := m.Derive(256)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Derive's shapes differ from Shapes")
	}
	again, _, err := m.Derive(256)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &again[0] {
		t.Error("second Derive call did not hit the memo")
	}
	other, _, err := m.Derive(128)
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != len(got) || other[0].In.B != 128 {
		t.Errorf("batch-128 shapes wrong: B=%d", other[0].In.B)
	}
}

func TestCachedShapesErrorNotCached(t *testing.T) {
	m := VGGA()
	if _, _, err := m.Derive(0); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if _, _, err := m.Derive(256); err != nil {
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
				if _, _, err := m.Derive(b); err != nil {
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
		s, _, err := m.Derive(7)
		if err != nil {
			t.Fatal(err)
		}
		pinned[i] = s
	}
	for i := 0; i < 4096; i++ {
		if _, _, err := LenetC().Derive(8); err != nil {
			t.Fatal(err)
		}
		if i%256 != 0 {
			continue
		}
		for j, zm := range zoo {
			s, _, err := zm.Derive(7)
			if err != nil {
				t.Fatal(err)
			}
			if &s[0] != &pinned[j][0] {
				t.Fatalf("churn iteration %d evicted %s's memo", i, zm.Name)
			}
		}
	}
}

// TestShapeMemoBound derives one model at 100 batch sizes: the memo
// keeps at most memoSize of them, and the latest still hits.
func TestShapeMemoBound(t *testing.T) {
	m := LenetC()
	var last []LayerShapes
	for b := 1; b <= 100; b++ {
		s, _, err := m.Derive(b)
		if err != nil {
			t.Fatal(err)
		}
		last = s
	}
	if n := m.memo.Load().n; n > memoSize {
		t.Errorf("memo holds %d batch sizes, want at most %d", n, memoSize)
	}
	again, _, err := m.Derive(100)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &last[0] {
		t.Error("latest batch size missed the memo")
	}
}

// TestShapeMemoValueCopy pins that a value copy of a Model, which
// carries the original's memo, shares its snapshot while its content
// is equal and derives afresh once it differs: a copy whose layer is
// then changed gets its own shapes, a copy with a layer fewer or with
// rewired inputs its own graph, and the original keeps its memo.
func TestShapeMemoValueCopy(t *testing.T) {
	valueCopy := func(m *Model) *Model {
		cp := new(Model)
		reflect.ValueOf(cp).Elem().Set(reflect.ValueOf(m).Elem()) // copies the memo too
		cp.Layers = cloneLayers(m.Layers)
		return cp
	}
	for _, c := range []struct {
		name   string
		m      *Model
		change func(*Model)
	}{
		{"cout", LenetC(), func(m *Model) { m.Layers[0].Cout *= 2 }},
		{"short", LenetC(), func(m *Model) { m.Layers = m.Layers[:len(m.Layers)-1] }},
		{"rewired", graphModel(), func(m *Model) { m.Layers[2].Inputs[0] = "b1" }}, // b2 now reads b1, not a
	} {
		orig, origGraph, err := c.m.Derive(8)
		if err != nil {
			t.Fatal(err)
		}
		cp := valueCopy(c.m)
		if got, g, err := cp.Derive(8); err != nil || &got[0] != &orig[0] || g != origGraph {
			t.Errorf("%s: an equal value copy derived afresh (err %v)", c.name, err)
		}
		c.change(cp)
		got, g, err := cp.Derive(8)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := cp.Shapes(8)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] == &orig[0] || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(g, freshGraph(t, cp)) {
			t.Errorf("%s: changed value copy read the original's memo: edges %v", c.name, g.Edges)
		}
		if again, g, _ := c.m.Derive(8); &again[0] != &orig[0] || g != origGraph {
			t.Errorf("%s: the copy's miss replaced the original's memo", c.name)
		}
	}
}

// freshGraph resolves m's graph on a new model with m's fields, so no
// memo is read.
func freshGraph(t *testing.T, m *Model) *Graph {
	t.Helper()
	_, g, err := (&Model{Name: m.Name, Input: m.Input, Layers: m.Layers}).Derive(1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCachedGraph pins Derive's graph against LayerPreds: the
// predecessors, the canonical edges and the per-layer edge indices of
// a chain and a fork/join model, a hit returning the same graph, and
// an error that is not memoized.
func TestCachedGraph(t *testing.T) {
	for _, c := range []struct {
		m     *Model
		edges []Edge
		out   [][]int
		in    [][]int
		chain bool
	}{
		{LenetC(), []Edge{{0, 1}, {1, 2}, {2, 3}}, [][]int{{0}, {1}, {2}, {}}, [][]int{{}, {0}, {1}, {2}}, true},
		{graphModel(), []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}},
			[][]int{{0, 1}, {2}, {3}, {4}, {}}, [][]int{{}, {0}, {1}, {2, 3}, {4}}, false},
	} {
		_, g, err := c.m.Derive(1)
		if err != nil {
			t.Fatal(err)
		}
		preds, err := c.m.LayerPreds()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Preds, preds) || !reflect.DeepEqual(g.Edges, c.edges) ||
			!reflect.DeepEqual(g.Out, c.out) || !reflect.DeepEqual(g.In, c.in) || g.Chain != c.chain {
			t.Errorf("%s: graph %+v, want preds %v edges %v out %v in %v chain %v",
				c.m.Name, *g, preds, c.edges, c.out, c.in, c.chain)
		}
		if _, again, _ := c.m.Derive(1); again != g {
			t.Errorf("%s: second Derive call missed the memo", c.m.Name)
		}
	}
	// The model input as an extra input is no edge: still a chain for
	// the step simulator, though not for ChainPreds.
	extra := graphModel()
	extra.Layers = []Layer{extra.Layers[0], {Name: "b", Type: Conv, K: 3, Pad: 1, Cout: 4, Inputs: []string{InputName, "a"}}}
	if _, g, err := extra.Derive(1); err != nil || !g.Chain || ChainPreds(g.Preds) {
		t.Errorf("input-reading chain: graph %+v, err %v", g, err)
	}
	one := &Model{Name: "one", Input: Input{H: 1, W: 1, C: 4}, Layers: []Layer{{Type: FC, Cout: 2}}}
	if _, g, err := one.Derive(1); err != nil || g.Edges != nil || !g.Chain {
		t.Errorf("one-layer model: graph %+v, err %v; want nil edges and a chain", g, err)
	}

	bad := graphModel()
	bad.Layers[1].Inputs = []string{"nope"}
	if _, _, err := bad.Derive(1); err == nil {
		t.Fatal("unknown input accepted")
	}
	bad.Layers[1].Inputs = []string{"a"}
	if _, _, err := bad.Derive(1); err != nil {
		t.Fatalf("mended model still refused: %v", err)
	}
}

// TestShapeMemoFreedWithModel pins that the memo retains nothing: a
// model that becomes unreachable after Derive is collected.
func TestShapeMemoFreedWithModel(t *testing.T) {
	m := VGGA()
	if _, _, err := m.Derive(64); err != nil {
		t.Fatal(err)
	}
	w := weak.Make(m)
	m = nil
	for i := 0; i < 5 && w.Value() != nil; i++ {
		runtime.GC()
	}
	if w.Value() != nil {
		t.Fatal("model survived GC after Derive: something retains it")
	}
}

// TestShapeMemoStress runs goroutines that derive shared models at
// overlapping batch sizes, so misses race to publish snapshots while
// hits read them; every call must return its own batch's shapes. Then
// 8 goroutines race the first Derive of one fresh model at a time, and
// every graph must equal a fresh resolution. Run with -race.
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
				s, _, err := m.Derive(b)
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

	for _, m := range []*Model{LenetC(), graphModel(), AlexNet(), graphModel()} {
		want := freshGraph(t, m)
		start := make(chan struct{})
		graphs := make([]*Graph, 8)
		for g := range graphs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				var err error
				if _, graphs[g], err = m.Derive(4); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		for g, gr := range graphs {
			if gr == nil || !reflect.DeepEqual(gr.Preds, want.Preds) || !reflect.DeepEqual(gr.Edges, want.Edges) ||
				!reflect.DeepEqual(gr.Out, want.Out) || !reflect.DeepEqual(gr.In, want.In) || gr.Chain != want.Chain {
				t.Errorf("%s goroutine %d: raced graph differs from a fresh one", m.Name, g)
			}
		}
	}
}

// TestAllocsDeriveHit pins the lookup every plan and simulated step
// makes: a hit, which compares the model's content with the memo's
// copy, allocates nothing, on a chain and on a branched model.
func TestAllocsDeriveHit(t *testing.T) {
	for _, m := range []*Model{AlexNet(), SRES8()} {
		if _, _, err := m.Derive(64); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := m.Derive(64); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a Derive hit allocates %.1f objects, want 0", m.Name, allocs)
		}
	}
}

// TestAllocsFirstDerive pins what a new model's first plan pays for its
// shapes and graph: one resolution of the layer predecessors, one
// inference reusing one input buffer across layers, and the memo's
// copy of the model's content.
func TestAllocsFirstDerive(t *testing.T) {
	for _, c := range []struct {
		m   *Model
		max float64
	}{{VGGA(), 17}, {LenetC(), 15}, {SRES8(), 29}, {Incep2(), 26}} {
		const runs = 20
		fresh := make([]*Model, runs+1) // AllocsPerRun calls once more to warm up
		for i := range fresh {
			fresh[i] = &Model{Name: c.m.Name, Input: c.m.Input, Layers: c.m.Layers}
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			m := fresh[next]
			next++
			if _, _, err := m.Derive(256); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: first Derive allocates %.0f objects", c.m.Name, allocs)
		if allocs > c.max {
			t.Errorf("%s: first Derive allocates %.0f objects, want <= %.0f", c.m.Name, allocs, c.max)
		}
	}
}

// BenchmarkDeriveHit times the content check a Derive hit makes, on
// the deepest chain and a branched model.
func BenchmarkDeriveHit(b *testing.B) {
	for _, m := range []*Model{VGGE(), SRES8()} {
		b.Run(m.Name, func(b *testing.B) {
			if _, _, err := m.Derive(64); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := m.Derive(64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
