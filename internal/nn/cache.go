package nn

import (
	"cmp"
	"slices"
)

// shapeMemoSize is how many batch sizes a model's shape memo holds.
// Reuse comes from a plan, sweep or request running one model at one
// batch size many times, so a handful suffices.
const shapeMemoSize = 4

// shapeMemo is an immutable snapshot of a model's latest shape
// inferences, most recent first. owner is the model it was built for:
// a value copy of a Model carries the original's snapshot, and must
// not read shapes that belong to different layers.
type shapeMemo struct {
	owner   *Model
	n       int
	batches [shapeMemoSize]int
	shapes  [shapeMemoSize][]LayerShapes
}

// CachedShapes is Shapes with memoization per (model, batch). The
// returned slice is shared between all callers and must be treated as
// read-only; every consumer in this repository (the partition search,
// the simulator, the training substrate) only reads it. A model must
// not be mutated after its shapes have been cached. Errors are not
// memoized. A miss also publishes the model's graph from the
// predecessors it resolved, when CachedGraph holds none yet, so a
// model's first plan resolves them once.
//
// The memo lives on the model, so it is freed with it. A hit takes no
// lock; concurrent misses may both infer, and the last snapshot stored
// wins, which is harmless because their shapes are identical.
func (m *Model) CachedShapes(batch int) ([]LayerShapes, error) {
	var prev shapeMemo
	if old := m.memo.Load(); old != nil && old.owner == m {
		for i := range old.n {
			if old.batches[i] == batch {
				return old.shapes[i], nil
			}
		}
		prev = *old
	}
	preds, err := m.validatePreds()
	if err != nil {
		return nil, err
	}
	shapes, err := m.shapes(preds, batch)
	if err != nil {
		return nil, err
	}
	if g := m.graph.Load(); g == nil || g.owner != m {
		m.graph.Store(m.newGraph(preds))
	}
	next := &shapeMemo{owner: m, n: min(prev.n+1, shapeMemoSize)}
	next.batches[0], next.shapes[0] = batch, shapes
	copy(next.batches[1:next.n], prev.batches[:])
	copy(next.shapes[1:next.n], prev.shapes[:])
	m.memo.Store(next)
	return shapes, nil
}

// Edge is one producer→consumer connection between weighted layers of
// a model graph. A linear chain has edges (l, l+1); branched models add
// skip and branch edges. Edges from the model input carry no partition
// cost and are not recorded.
type Edge struct {
	Src int // producing layer index
	Dst int // consuming layer index
}

// Graph is a model's layer graph resolved once: the partition search,
// its baselines and sweeps, and the step simulator all read the same
// one. It is shared between all callers and must be treated as
// read-only.
type Graph struct {
	// Preds is LayerPreds' resolution: each layer's inputs as layer
	// indices, -1 for the model input.
	Preds [][]int
	// Edges lists the layer-to-layer edges in canonical (Src, then Dst)
	// order; nil for a one-layer model.
	Edges []Edge
	// Out[l] and In[l] index layer l's outgoing and incoming edges in
	// Edges, in edge order.
	Out, In [][]int
	// Chain reports that Edges are exactly (0, 1), (1, 2), …, (L-2,
	// L-1). A layer that also reads the model input still counts, since
	// that input is no edge, so Chain can hold where ChainPreds does not.
	Chain bool

	owner *Model // the model it was resolved for, as shapeMemo's
}

// CachedGraph is LayerPreds resolved once per model, with the edges
// and per-layer edge indices derived from it. Like CachedShapes, the
// memo lives on the model, a value copy of a model resolves its own
// graph, a model must not be mutated after first use, and errors are
// not memoized. A hit takes no lock; concurrent misses may both
// resolve, and the last graph stored wins, which is harmless because
// the graphs are identical.
func (m *Model) CachedGraph() (*Graph, error) {
	if g := m.graph.Load(); g != nil && g.owner == m {
		return g, nil
	}
	preds, err := m.LayerPreds()
	if err != nil {
		return nil, err
	}
	g := m.newGraph(preds)
	m.graph.Store(g)
	return g, nil
}

// newGraph derives m's graph from its resolved predecessors, which it
// keeps.
func (m *Model) newGraph(preds [][]int) *Graph {
	g := &Graph{Preds: preds, Edges: edgesOf(preds), owner: m}
	g.Out, g.In = IndexEdges(g.Edges, len(preds))
	g.Chain = len(g.Edges) == len(preds)-1
	for l, ed := range g.Edges {
		g.Chain = g.Chain && ed.Src == l && ed.Dst == l+1
	}
	return g
}

// edgesOf derives the layer-to-layer edges from resolved predecessors,
// in canonical (Src, then Dst) order, nil when there are none.
func edgesOf(preds [][]int) []Edge {
	var edges []Edge
	for v, ps := range preds {
		for _, u := range ps {
			if u >= 0 {
				edges = append(edges, Edge{Src: u, Dst: v})
			}
		}
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return edges
}

// IndexEdges lists each of nl layers' outgoing and incoming edges as
// indices into edges, in edge order, which must be edges of an nl-layer
// model (0 <= Src < Dst < nl, as LayerPreds guarantees).
func IndexEdges(edges []Edge, nl int) (out, in [][]int) {
	return cutIndex(edges, nl, func(ed Edge) int { return ed.Src }),
		cutIndex(edges, nl, func(ed Edge) int { return ed.Dst })
}

// cutIndex lists, for each of nl layers l, the indices of the edges
// whose end is l, in edge order, each list a window of one array.
func cutIndex(edges []Edge, nl int, end func(Edge) int) [][]int {
	at := make([]int, nl+1)
	for _, ed := range edges {
		at[end(ed)+1]++
	}
	for l := range nl {
		at[l+1] += at[l]
	}
	ids, lists := make([]int, len(edges)), make([][]int, nl)
	for l := range lists {
		lists[l] = ids[at[l]:at[l]:at[l+1]]
	}
	for e, ed := range edges {
		lists[end(ed)] = append(lists[end(ed)], e)
	}
	return lists
}
