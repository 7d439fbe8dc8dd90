package nn

import (
	"fmt"
	"sync/atomic"

	"repro/internal/tensor"
)

// Input describes the geometry of one training sample.
type Input struct {
	H int // height
	W int // width
	C int // channels
}

// Validate checks the input geometry.
func (in Input) Validate() error {
	if in.H <= 0 || in.W <= 0 || in.C <= 0 {
		return fmt.Errorf("%w: input %dx%dx%d", ErrModel, in.H, in.W, in.C)
	}
	return nil
}

// Model is a feed-forward DNN: an ordered list of weighted layers fed by
// a single input tensor. All ten zoo networks, and any user network
// handled by the public API, are Models.
//
// When no layer declares explicit Inputs the model is a linear chain,
// exactly as in the paper. Layers may instead name their producers
// (Layer.Inputs), turning the model into a branched DAG: the layer list
// must then be in topological order (every input names an earlier
// layer or the model input), layer names must be unique, and exactly
// one layer — the last — may be left unconsumed (the single sink the
// loss attaches to).
//
// A Model is plain data. Any field may change between calls, and the
// next call sees the change: what the model derives is memoized on it
// but keyed on its content (Derive). Only a change made while a call
// is reading the model is a data race.
type Model struct {
	Name   string
	Input  Input
	Layers []Layer

	memo atomic.Pointer[snapshot] // Derive's latest
}

// IsGraph reports whether any layer declares explicit inputs, i.e.
// whether the model is written in graph form. A graph-form model may
// still resolve to a plain chain — see ChainPreds for the semantic
// test.
func (m *Model) IsGraph() bool {
	for _, l := range m.Layers {
		if len(l.Inputs) > 0 {
			return true
		}
	}
	return false
}

// DefaultPreds reports whether ps is layer i's implicit default wiring
// — exactly the previous layer, or the model input for the first layer.
// It is the single definition of "default" shared by the canonical
// encoder and ChainPreds.
func DefaultPreds(i int, ps []int) bool {
	if len(ps) != 1 {
		return false
	}
	if i == 0 {
		return ps[0] == -1
	}
	return ps[0] == i-1
}

// ChainPreds reports whether resolved predecessors (LayerPreds form)
// describe a plain linear chain — every layer consuming exactly the
// previous one — even when layers spell that wiring out explicitly.
func ChainPreds(preds [][]int) bool {
	for i, ps := range preds {
		if !DefaultPreds(i, ps) {
			return false
		}
	}
	return true
}

// SkipEdges returns how many layer-to-layer edges the model has beyond
// a plain chain's L-1 — the one-number summary of its branching (0 for
// chains). The single definition every surface (CLI listing, branched
// table, examples) reports.
func (m *Model) SkipEdges() (int, error) {
	preds, err := m.LayerPreds()
	if err != nil {
		return 0, err
	}
	edges := 0
	for _, ps := range preds {
		for _, p := range ps {
			if p >= 0 {
				edges++
			}
		}
	}
	return edges - (len(m.Layers) - 1), nil
}

// LayerPreds resolves every layer's inputs to layer indices, in input
// order; -1 denotes the model input. A chain resolves to [[-1], [0],
// [1], ...]. The resolution validates the graph wiring (unknown or
// forward references, duplicate names, multiple sinks) but not the
// full model — call Validate for that.
func (m *Model) LayerPreds() ([][]int, error) {
	preds := make([][]int, len(m.Layers))
	if !m.IsGraph() {
		// One backing array for the whole chain; each capacity-capped
		// window copies on append, so the lists stay independent.
		flat := make([]int, len(m.Layers))
		for i := range m.Layers {
			flat[i] = i - 1
			preds[i] = flat[i : i+1 : i+1]
		}
		return preds, nil
	}
	index := make(map[string]int, len(m.Layers))
	for i, l := range m.Layers {
		if l.Name == "" {
			return nil, fmt.Errorf("%w: model %q: branched models need a name on every layer (layer %d)", ErrModel, m.Name, i)
		}
		if l.Name == InputName {
			return nil, fmt.Errorf("%w: model %q: layer name %q is reserved for the model input", ErrModel, m.Name, InputName)
		}
		if _, dup := index[l.Name]; dup {
			return nil, fmt.Errorf("%w: model %q: duplicate layer name %q", ErrModel, m.Name, l.Name)
		}
		index[l.Name] = i
	}
	consumers := make([]int, len(m.Layers))
	for i, l := range m.Layers {
		if len(l.Inputs) == 0 {
			if i == 0 {
				preds[i] = []int{-1}
			} else {
				preds[i] = []int{i - 1}
				consumers[i-1]++
			}
			continue
		}
		seen := make(map[string]bool, len(l.Inputs))
		for _, name := range l.Inputs {
			if seen[name] {
				return nil, fmt.Errorf("%w: model %q layer %q: duplicate input %q", ErrModel, m.Name, l.Name, name)
			}
			seen[name] = true
			if name == InputName {
				preds[i] = append(preds[i], -1)
				continue
			}
			j, ok := index[name]
			if !ok {
				return nil, fmt.Errorf("%w: model %q layer %q: unknown input %q", ErrModel, m.Name, l.Name, name)
			}
			if j >= i {
				return nil, fmt.Errorf("%w: model %q layer %q: input %q is not an earlier layer (layers must be topologically ordered)",
					ErrModel, m.Name, l.Name, name)
			}
			preds[i] = append(preds[i], j)
			consumers[j]++
		}
	}
	for i := range m.Layers {
		if consumers[i] == 0 && i != len(m.Layers)-1 {
			return nil, fmt.Errorf("%w: model %q: layer %q is never consumed (only the final layer may be the sink)",
				ErrModel, m.Name, m.Layers[i].Name)
		}
	}
	return preds, nil
}

// Validate checks the model and every layer. For linear chains it also
// checks that fc layers are only followed by fc layers (the zoo and the
// paper's networks all satisfy this); for branched models the same
// constraint applies per edge — a convolutional layer cannot consume a
// fully-connected layer's flattened output — along with the graph
// wiring rules of LayerPreds.
func (m *Model) Validate() error {
	_, err := m.validatePreds()
	return err
}

// validatePreds is Validate returning the resolved predecessors, so
// callers needing both (Shapes, EncodeModel) resolve the graph once.
func (m *Model) validatePreds() ([][]int, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil model", ErrModel)
	}
	if m.Name == "" {
		return nil, fmt.Errorf("%w: model without name", ErrModel)
	}
	if err := m.Input.Validate(); err != nil {
		return nil, fmt.Errorf("model %q: %w", m.Name, err)
	}
	if len(m.Layers) == 0 {
		return nil, fmt.Errorf("%w: model %q has no weighted layers", ErrModel, m.Name)
	}
	for i, l := range m.Layers {
		if err := l.Validate(); err != nil {
			return nil, fmt.Errorf("model %q layer %d: %w", m.Name, i, err)
		}
	}
	if !m.IsGraph() {
		seenFC := false
		for _, l := range m.Layers {
			if l.Type == FC {
				seenFC = true
			} else if seenFC {
				return nil, fmt.Errorf("%w: model %q has conv layer %q after an fc layer", ErrModel, m.Name, l.Name)
			}
		}
		return m.LayerPreds()
	}
	preds, err := m.LayerPreds()
	if err != nil {
		return nil, err
	}
	for i, ps := range preds {
		for _, p := range ps {
			if p >= 0 && m.Layers[p].Type == FC && m.Layers[i].Type == Conv {
				return nil, fmt.Errorf("%w: model %q has conv layer %q consuming fc layer %q",
					ErrModel, m.Name, m.Layers[i].Name, m.Layers[p].Name)
			}
		}
	}
	return preds, nil
}

// NumWeighted returns the number of weighted layers L.
func (m *Model) NumWeighted() int { return len(m.Layers) }

// LayerShapes captures the inferred tensor geometry of one weighted
// layer at a given batch size: the input feature map F_l, the immediate
// (pre-pooling) output F_{l+1}, the tensor handed to the next layer
// (post-pooling), and the kernel W_l. Errors E_l and E_{l+1} share the
// geometry of F_l and F_{l+1}.
type LayerShapes struct {
	Layer Layer

	In      tensor.FeatureMap // F_l as consumed by this layer
	Out     tensor.FeatureMap // F_{l+1} immediately after the weighted op
	Carried tensor.FeatureMap // tensor passed to layer l+1 (after pooling)
	Kernel  tensor.Kernel     // W_l (∆W_l has the same geometry)
}

// joinInputs combines the feature maps arriving at layer l (given in
// input order) into the single map its weighted op consumes.
func (m *Model) joinInputs(l Layer, ins []tensor.FeatureMap) (tensor.FeatureMap, error) {
	if len(ins) == 1 {
		return ins[0], nil
	}
	switch l.Join {
	case Add:
		for _, in := range ins[1:] {
			if in != ins[0] {
				return tensor.FeatureMap{}, fmt.Errorf("%w: model %q layer %q: add join over mismatched shapes %v and %v",
					ErrModel, m.Name, l.Name, ins[0], in)
			}
		}
		return ins[0], nil
	default: // Concat
		if l.Type == FC {
			// A fully-connected consumer flattens each producer anyway;
			// concatenation is over the flattened neuron vectors.
			var elems int64
			for _, in := range ins {
				elems += in.SliceElems()
			}
			return tensor.FeatureMap{B: ins[0].B, H: 1, W: 1, C: int(elems)}, nil
		}
		out := ins[0]
		for _, in := range ins[1:] {
			if in.H != out.H || in.W != out.W {
				return tensor.FeatureMap{}, fmt.Errorf("%w: model %q layer %q: channel concat over mismatched spatial extents %v and %v",
					ErrModel, m.Name, l.Name, ins[0], in)
			}
			out.C += in.C
		}
		return out, nil
	}
}

// Shapes runs shape inference over the model for the given batch size,
// walking the layers in topological (declaration) order. It returns one
// LayerShapes per weighted layer; a layer's In is the joined feature
// map after fork duplication and concat/add joins.
func (m *Model) Shapes(batch int) ([]LayerShapes, error) {
	preds, err := m.validatePreds()
	if err != nil {
		return nil, err
	}
	return m.shapes(preds, batch)
}

// shapes is Shapes over the predecessors validatePreds resolved.
func (m *Model) shapes(preds [][]int, batch int) ([]LayerShapes, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("%w: model %q batch=%d", ErrModel, m.Name, batch)
	}
	input := tensor.FeatureMap{B: batch, H: m.Input.H, W: m.Input.W, C: m.Input.C}
	shapes := make([]LayerShapes, 0, len(m.Layers))
	ins := make([]tensor.FeatureMap, 0, 2) // every layer's inputs, in turn
	for i, l := range m.Layers {
		ins = ins[:0]
		for _, p := range preds[i] {
			if p < 0 {
				ins = append(ins, input)
			} else {
				ins = append(ins, shapes[p].Carried)
			}
		}
		cur, err := m.joinInputs(l, ins)
		if err != nil {
			return nil, err
		}
		var s LayerShapes
		s.Layer = l
		switch l.Type {
		case Conv:
			s.In = cur
			st := l.stride()
			oh := (cur.H+2*l.Pad-l.K)/st + 1
			ow := (cur.W+2*l.Pad-l.K)/st + 1
			if oh <= 0 || ow <= 0 {
				return nil, fmt.Errorf("%w: model %q layer %q (%d): conv output %dx%d from input %v",
					ErrModel, m.Name, l.Name, i, oh, ow, cur)
			}
			s.Out = tensor.FeatureMap{B: batch, H: oh, W: ow, C: l.Cout}
			k, err := tensor.NewConvKernel(l.K, cur.C, l.Cout)
			if err != nil {
				return nil, fmt.Errorf("model %q layer %q: %w", m.Name, l.Name, err)
			}
			s.Kernel = k
			p := l.pool()
			s.Carried = tensor.FeatureMap{B: batch, H: oh / p, W: ow / p, C: l.Cout}
			if s.Carried.H <= 0 || s.Carried.W <= 0 {
				return nil, fmt.Errorf("%w: model %q layer %q: pooling %d collapses %dx%d",
					ErrModel, m.Name, l.Name, p, oh, ow)
			}
		case FC:
			// Flatten whatever arrives into a neuron vector.
			cin := int(cur.SliceElems())
			s.In = tensor.FeatureMap{B: batch, H: 1, W: 1, C: cin}
			s.Out = tensor.FeatureMap{B: batch, H: 1, W: 1, C: l.Cout}
			s.Carried = s.Out
			k, err := tensor.NewFCKernel(cin, l.Cout)
			if err != nil {
				return nil, fmt.Errorf("model %q layer %q: %w", m.Name, l.Name, err)
			}
			s.Kernel = k
		}
		shapes = append(shapes, s)
	}
	return shapes, nil
}

// Params returns the total number of weights in the model.
func (m *Model) Params(batch int) (int64, error) {
	shapes, err := m.Shapes(batch)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, s := range shapes {
		n += s.Kernel.Elems()
	}
	return n, nil
}

// String implements fmt.Stringer.
func (m *Model) String() string {
	return fmt.Sprintf("%s(%d weighted layers, input %dx%dx%d)",
		m.Name, len(m.Layers), m.Input.H, m.Input.W, m.Input.C)
}
