package train

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
)

// ShardedFC executes real hybrid-parallel training of a fully-connected
// network across two accelerator groups, implementing the exact tensor
// partitioning of the paper's §3.1 worked example:
//
//   - dp: the mini-batch rows are split, the weight matrix is
//     replicated, and gradient partial sums are exchanged (⊕ in
//     Figure 1a);
//   - mp: the weight matrix is split along its input dimension, the
//     activations are split along columns, and output partial sums are
//     exchanged (⊕ in Figure 1b).
//
// Every element fetched from the peer group is counted, per layer and
// per category (forward partial sums, gradient partial sums, F and E
// boundary conversions), so tests can check the measured traffic
// against the analytic model of Tables 1-2 — and check that the
// sharded computation is numerically identical to single-device
// training.
//
// Convolutional layers under dp are the same row-split mathematics; the
// validator is restricted to fc networks to keep the mp column algebra
// exact and auditable. The architectural simulator covers conv mp
// analytically.
type ShardedFC struct {
	model  *nn.Model
	batch  int
	assign []comm.Parallelism
	shapes []nn.LayerShapes

	groups [2]*fcGroup

	// Measured remote element counts, both directions summed.
	IntraFwd  []float64 // mp output partial-sum exchanges per layer
	IntraGrad []float64 // dp gradient partial-sum exchanges per layer
	InterF    []float64 // F boundary conversions (index = producing layer)
	InterE    []float64 // E boundary conversions (index = producing layer)
}

// fcGroup is one accelerator group's state.
type fcGroup struct {
	id int
	// Per layer: the weight shard ([Cin,Cout] replicated under dp,
	// [Cin/2,Cout] rows under mp) and its gradient.
	w  []*Tensor
	dw []*Tensor
	// Forward caches per layer.
	in   []*Tensor // input in the layer's representation
	out  []*Tensor // activation output in the layer's representation
	mask [][]bool  // ReLU masks over out
}

// NewShardedFC splits the reference network's weights across two groups
// according to the single-level assignment. The reference network is
// not modified.
func NewShardedFC(ref *Network, assign []comm.Parallelism) (*ShardedFC, error) {
	for _, l := range ref.Model.Layers {
		if l.Type != nn.FC {
			return nil, fmt.Errorf("%w: ShardedFC supports fc layers only, got %q", ErrTrain, l.Name)
		}
	}
	if len(assign) != ref.Layers() {
		return nil, fmt.Errorf("%w: %d assignments for %d layers", ErrTrain, len(assign), ref.Layers())
	}
	if ref.Batch%2 != 0 {
		return nil, fmt.Errorf("%w: batch %d not divisible by two groups", ErrTrain, ref.Batch)
	}
	shapes, err := ref.Model.Shapes(ref.Batch)
	if err != nil {
		return nil, err
	}
	s := &ShardedFC{
		model:  ref.Model,
		batch:  ref.Batch,
		assign: append([]comm.Parallelism(nil), assign...),
		shapes: shapes,
	}
	nl := ref.Layers()
	s.IntraFwd = make([]float64, nl)
	s.IntraGrad = make([]float64, nl)
	s.InterF = make([]float64, nl)
	s.InterE = make([]float64, nl)
	for g := 0; g < 2; g++ {
		grp := &fcGroup{
			id: g, w: make([]*Tensor, nl), dw: make([]*Tensor, nl),
			in: make([]*Tensor, nl), out: make([]*Tensor, nl), mask: make([][]bool, nl),
		}
		for l := 0; l < nl; l++ {
			full := ref.Weights(l)
			cin, cout := shapes[l].Kernel.Cin, shapes[l].Kernel.Cout
			if assign[l] == comm.DP {
				grp.w[l] = full.Clone()
			} else {
				if cin%2 != 0 {
					return nil, fmt.Errorf("%w: layer %d Cin %d not divisible for mp", ErrTrain, l, cin)
				}
				half, err := NewTensor(cin/2, cout)
				if err != nil {
					return nil, err
				}
				copy(half.Data, full.Data[g*(cin/2)*cout:(g+1)*(cin/2)*cout])
				grp.w[l] = half
			}
			grp.dw[l] = grp.w[l].Clone()
			grp.dw[l].Zero()
		}
		s.groups[g] = grp
	}
	return s, nil
}

// TotalRemote returns the total measured remote elements, both
// directions summed.
func (s *ShardedFC) TotalRemote() float64 {
	var t float64
	for l := range s.IntraFwd {
		t += s.IntraFwd[l] + s.IntraGrad[l] + s.InterF[l] + s.InterE[l]
	}
	return t
}

// matmul computes out = a [r×k] · b [k×c].
func matmul(a, b *Tensor, r, k, c int) (*Tensor, error) {
	out, err := NewTensor(r, c)
	if err != nil {
		return nil, err
	}
	for i := 0; i < r; i++ {
		for kk := 0; kk < k; kk++ {
			av := a.Data[i*k+kk]
			if av == 0 {
				continue
			}
			row := b.Data[kk*c : (kk+1)*c]
			outRow := out.Data[i*c : (i+1)*c]
			for j := 0; j < c; j++ {
				outRow[j] += av * row[j]
			}
		}
	}
	return out, nil
}

// matmulBT computes out = a [r×c] · bᵀ where b is [k×c] → out [r×k].
func matmulBT(a, b *Tensor, r, c, k int) (*Tensor, error) {
	out, err := NewTensor(r, k)
	if err != nil {
		return nil, err
	}
	for i := 0; i < r; i++ {
		aRow := a.Data[i*c : (i+1)*c]
		for kk := 0; kk < k; kk++ {
			bRow := b.Data[kk*c : (kk+1)*c]
			var acc float64
			for j := 0; j < c; j++ {
				acc += aRow[j] * bRow[j]
			}
			out.Data[i*k+kk] = acc
		}
	}
	return out, nil
}

// matmulAT computes out = aᵀ [k×r]ᵀ... i.e. a is [r×k], g is [r×c],
// out = aᵀ·g [k×c].
func matmulAT(a, g *Tensor, r, k, c int) (*Tensor, error) {
	out, err := NewTensor(k, c)
	if err != nil {
		return nil, err
	}
	for i := 0; i < r; i++ {
		aRow := a.Data[i*k : (i+1)*k]
		gRow := g.Data[i*c : (i+1)*c]
		for kk := 0; kk < k; kk++ {
			av := aRow[kk]
			if av == 0 {
				continue
			}
			outRow := out.Data[kk*c : (kk+1)*c]
			for j := 0; j < c; j++ {
				outRow[j] += av * gRow[j]
			}
		}
	}
	return out, nil
}

// rowsOf extracts rows [lo,hi) of a [r×c] matrix.
func rowsOf(t *Tensor, lo, hi, c int) *Tensor {
	out := &Tensor{Shape: []int{hi - lo, c}, Data: make([]float64, (hi-lo)*c)}
	copy(out.Data, t.Data[lo*c:hi*c])
	return out
}

// colsOf extracts columns [lo,hi) of a [r×c] matrix.
func colsOf(t *Tensor, r, c, lo, hi int) *Tensor {
	w := hi - lo
	out := &Tensor{Shape: []int{r, w}, Data: make([]float64, r*w)}
	for i := 0; i < r; i++ {
		copy(out.Data[i*w:(i+1)*w], t.Data[i*c+lo:i*c+hi])
	}
	return out
}
