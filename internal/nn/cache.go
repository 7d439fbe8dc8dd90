package nn

import (
	"cmp"
	"slices"
)

// memoSize is how many batch sizes a model's memo holds. Reuse comes
// from a plan, sweep or request running one model at one batch size
// many times, so a handful suffices.
const memoSize = 4

// snapshot is an immutable record of what a model derives: its layer
// graph and its latest shape inferences, most recent first, with a deep
// copy of the name, input and layers they were derived from.
type snapshot struct {
	name   string
	input  Input
	layers []Layer // Inputs lists included
	graph  *Graph

	n       int
	batches [memoSize]int
	shapes  [memoSize][]LayerShapes
}

// Derive returns m's layer shapes at batch, as Shapes infers them, and
// its layer graph, both shared between all callers and read-only. They
// are memoized on the model, keyed on its content: a call hits only
// while the model's name, input and layers equal the copy its memo was
// derived from, so a model changed between calls is derived afresh,
// and a value copy shares the memo until its content differs. Errors
// are not memoized. A hit takes no lock; concurrent misses may both
// derive, and the last snapshot stored wins, which is harmless because
// their answers are equal.
func (m *Model) Derive(batch int) ([]LayerShapes, *Graph, error) {
	s := m.memo.Load()
	if s != nil && s.holds(m) {
		for i := range s.n {
			if s.batches[i] == batch {
				return s.shapes[i], s.graph, nil
			}
		}
	} else {
		preds, err := m.validatePreds()
		if err != nil {
			return nil, nil, err
		}
		s = &snapshot{name: m.Name, input: m.Input, layers: cloneLayers(m.Layers), graph: newGraph(preds)}
	}
	shapes, err := m.shapes(s.graph.Preds, batch)
	if err != nil {
		return nil, nil, err
	}
	next := *s
	next.n = min(s.n+1, memoSize)
	next.batches[0], next.shapes[0] = batch, shapes
	copy(next.batches[1:next.n], s.batches[:])
	copy(next.shapes[1:next.n], s.shapes[:])
	m.memo.Store(&next)
	return shapes, next.graph, nil
}

// holds reports whether m's content equals the content s was derived
// from. Each layer's eight int fields are compared in one branch, which
// makes a hit on VGG-E's 19 layers a quarter cheaper than a field by
// field compare.
func (s *snapshot) holds(m *Model) bool {
	if s.name != m.Name || s.input != m.Input || len(s.layers) != len(m.Layers) {
		return false
	}
	for i := range s.layers {
		a, b := &s.layers[i], &m.Layers[i]
		ints := int(a.Type^b.Type) | int(a.Join^b.Join) | int(a.Act^b.Act) |
			(a.K ^ b.K) | (a.Stride ^ b.Stride) | (a.Pad ^ b.Pad) | (a.Cout ^ b.Cout) | (a.Pool ^ b.Pool)
		if ints != 0 || a.Name != b.Name || !slices.Equal(a.Inputs, b.Inputs) {
			return false
		}
	}
	return true
}

// cloneLayers copies layers with Inputs lists of their own.
func cloneLayers(layers []Layer) []Layer {
	cp := slices.Clone(layers)
	for i := range cp {
		cp[i].Inputs = slices.Clone(cp[i].Inputs)
	}
	return cp
}

// Edge is one producer→consumer connection between weighted layers of
// a model graph. A linear chain has edges (l, l+1); branched models add
// skip and branch edges. Edges from the model input carry no partition
// cost and are not recorded.
type Edge struct {
	Src int // producing layer index
	Dst int // consuming layer index
}

// Graph is a model's layer graph, resolved by Derive once per content:
// the partition search, its baselines and sweeps, and the step
// simulator all read the same one. It is shared between all callers
// and must be treated as read-only.
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
}

// newGraph derives a model's graph from its resolved predecessors,
// which it keeps.
func newGraph(preds [][]int) *Graph {
	g := &Graph{Preds: preds, Edges: edgesOf(preds)}
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
