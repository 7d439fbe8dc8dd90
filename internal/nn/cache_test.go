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
// carries the original's memos, never reads them: a copy whose layers
// are then changed gets its own shapes, and a copy whose layers or
// their inputs are changed gets its own graph.
func TestShapeMemoValueCopy(t *testing.T) {
	valueCopy := func(m *Model) *Model {
		cp := new(Model)
		reflect.ValueOf(cp).Elem().Set(reflect.ValueOf(m).Elem()) // copies the memos too
		cp.Layers = append([]Layer(nil), m.Layers...)
		return cp
	}
	m := LenetC()
	orig, err := m.CachedShapes(8)
	if err != nil {
		t.Fatal(err)
	}
	origGraph, err := m.CachedGraph()
	if err != nil {
		t.Fatal(err)
	}
	cp := valueCopy(m)
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

	// A copy with a layer fewer, and a copy of a branched model whose
	// layer inputs are rewired, each resolve their own graph.
	short := valueCopy(m)
	short.Layers = short.Layers[:len(short.Layers)-1]
	g := graphModel()
	gOrig, err := g.CachedGraph()
	if err != nil {
		t.Fatal(err)
	}
	rewired := valueCopy(g)
	rewired.Layers[2].Inputs = []string{"b1"} // b2 now reads b1, not a
	for _, c := range []struct {
		name       string
		orig, copy *Model
		origGraph  *Graph
	}{{"short", m, short, origGraph}, {"rewired", g, rewired, gOrig}} {
		got, err := c.copy.CachedGraph()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got == c.origGraph || !reflect.DeepEqual(got.Edges, freshGraph(t, c.copy).Edges) ||
			reflect.DeepEqual(got.Edges, c.origGraph.Edges) {
			t.Errorf("%s: value copy read the original model's graph: edges %v", c.name, got.Edges)
		}
		if again, _ := c.orig.CachedGraph(); again != c.origGraph {
			t.Errorf("%s: the copy's miss replaced the original's graph", c.name)
		}
	}
}

// freshGraph resolves m's graph on a new model with m's fields, so no
// memo is read.
func freshGraph(t *testing.T, m *Model) *Graph {
	t.Helper()
	g, err := (&Model{Name: m.Name, Input: m.Input, Layers: m.Layers}).CachedGraph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCachedGraph pins the graph memo against LayerPreds: the
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
		g, err := c.m.CachedGraph()
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
		if again, _ := c.m.CachedGraph(); again != g {
			t.Errorf("%s: second CachedGraph call missed the memo", c.m.Name)
		}
	}
	// The model input as an extra input is no edge: still a chain for
	// the step simulator, though not for ChainPreds.
	extra := graphModel()
	extra.Layers = []Layer{extra.Layers[0], {Name: "b", Type: Conv, K: 3, Pad: 1, Cout: 4, Inputs: []string{InputName, "a"}}}
	if g, err := extra.CachedGraph(); err != nil || !g.Chain || ChainPreds(g.Preds) {
		t.Errorf("input-reading chain: graph %+v, err %v", g, err)
	}
	if g, err := (&Model{Name: "one", Layers: []Layer{{Type: FC, Cout: 2}}}).CachedGraph(); err != nil || g.Edges != nil || !g.Chain {
		t.Errorf("one-layer model: graph %+v, err %v; want nil edges and a chain", g, err)
	}

	bad := graphModel()
	bad.Layers[1].Inputs = []string{"nope"}
	if _, err := bad.CachedGraph(); err == nil {
		t.Fatal("unknown input accepted")
	}
	bad.Layers[1].Inputs = []string{"a"}
	if _, err := bad.CachedGraph(); err != nil {
		t.Fatalf("mended model still refused: %v", err)
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
// Then 8 goroutines race the first graph and shape lookups of one
// fresh model at a time, and every graph must equal a fresh
// resolution. Run with -race.
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

	for _, m := range []*Model{LenetC(), graphModel(), AlexNet(), graphModel()} {
		want := freshGraph(t, m)
		start := make(chan struct{})
		graphs := make([]*Graph, 8)
		for g := range graphs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := m.CachedShapes(4); err != nil {
					t.Error(err)
				}
				graphs[g], _ = m.CachedGraph()
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
