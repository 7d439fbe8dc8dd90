package train

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/partition"
)

// HierarchicalFC executes real training of a fully-connected network
// across 2^H workers partitioned by a full hierarchical plan — the
// numerical realization of Algorithm 2's nested sharding. Each worker
// holds, for every layer, the intersection shard selected by its path
// through the hierarchy: dp levels halve its batch-row range, mp levels
// halve its input-column (and weight-row) range.
//
// One training step performs, per layer: the worker-local partial
// product, the partial-sum reduction across each worker's mp-peer set
// (workers sharing a row range whose column ranges tile the input
// dimension), the boundary re-sharding toward the next layer, and in
// backward the exact local errors plus the dp-peer gradient reduction.
// Tests verify the result is numerically identical to single-device
// SGD, which is precisely the property HyPar's partition space assumes.
type HierarchicalFC struct {
	model  *nn.Model
	batch  int
	plan   *partition.Plan
	shapes []nn.LayerShapes

	workers int
	// rowRange[l][w] and colRange[l][w] are [lo,hi) interval pairs.
	rowRange [][][2]int
	colRange [][][2]int

	// w[l][w] is worker w's weight shard: rows colRange, all columns.
	w [][]*Tensor

	// forward caches (global, assembled — the math is per-shard; the
	// assembly is a verification convenience, not a free lunch: every
	// element of an assembled matrix is produced by some worker's local
	// computation and reductions only).
	act  []*Tensor // F_{l+1} after activation, [B × Cout]
	in0  *Tensor   // input batch
	mask [][]bool
}

// NewHierarchicalFC shards the reference network across 2^H workers per
// the plan.
func NewHierarchicalFC(ref *Network, plan *partition.Plan) (*HierarchicalFC, error) {
	for _, l := range ref.Model.Layers {
		if l.Type != nn.FC {
			return nil, fmt.Errorf("%w: HierarchicalFC supports fc layers only, got %q", ErrTrain, l.Name)
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	levels := plan.NumLevels()
	if levels < 1 || levels > 6 {
		return nil, fmt.Errorf("%w: hierarchy depth %d outside [1,6]", ErrTrain, levels)
	}
	if len(plan.Levels[0]) != ref.Layers() {
		return nil, fmt.Errorf("%w: plan is for %d layers, network has %d",
			ErrTrain, len(plan.Levels[0]), ref.Layers())
	}
	shapes, err := ref.Model.Shapes(ref.Batch)
	if err != nil {
		return nil, err
	}
	h := &HierarchicalFC{
		model: ref.Model, batch: ref.Batch, plan: plan, shapes: shapes,
		workers: 1 << uint(levels),
	}
	nl := ref.Layers()
	h.rowRange = make([][][2]int, nl)
	h.colRange = make([][][2]int, nl)
	h.w = make([][]*Tensor, nl)
	h.act = make([]*Tensor, nl)
	h.mask = make([][]bool, nl)
	for l := 0; l < nl; l++ {
		cin, cout := shapes[l].Kernel.Cin, shapes[l].Kernel.Cout
		h.rowRange[l] = make([][2]int, h.workers)
		h.colRange[l] = make([][2]int, h.workers)
		h.w[l] = make([]*Tensor, h.workers)
		for wk := 0; wk < h.workers; wk++ {
			rows := [2]int{0, ref.Batch}
			cols := [2]int{0, cin}
			for lev := 0; lev < levels; lev++ {
				bit := (wk >> uint(levels-1-lev)) & 1
				if plan.At(lev, l) == comm.DP {
					rows, err = halve(rows, bit)
				} else {
					cols, err = halve(cols, bit)
				}
				if err != nil {
					return nil, fmt.Errorf("layer %d level %d: %w", l, lev, err)
				}
			}
			h.rowRange[l][wk] = rows
			h.colRange[l][wk] = cols
			shard, err := NewTensor(cols[1]-cols[0], cout)
			if err != nil {
				return nil, err
			}
			copy(shard.Data, ref.Weights(l).Data[cols[0]*cout:cols[1]*cout])
			h.w[l][wk] = shard
		}
	}
	return h, nil
}

// halve splits an interval in two and picks the side selected by bit.
func halve(iv [2]int, bit int) ([2]int, error) {
	n := iv[1] - iv[0]
	if n%2 != 0 {
		return iv, fmt.Errorf("%w: interval of width %d not halvable", ErrTrain, n)
	}
	mid := iv[0] + n/2
	if bit == 0 {
		return [2]int{iv[0], mid}, nil
	}
	return [2]int{mid, iv[1]}, nil
}

// Step runs one hierarchical-parallel training step and returns the
// loss.
func (h *HierarchicalFC) Step(x *Tensor, labels []int, lr float64) (float64, error) {
	logits, err := h.forward(x)
	if err != nil {
		return 0, err
	}
	loss, dLogits, err := SoftmaxCrossEntropy(logits, labels)
	if err != nil {
		return 0, err
	}
	if err := h.backward(dLogits, lr); err != nil {
		return 0, err
	}
	return loss, nil
}

// forward computes every layer via worker-local partials + peer-set
// reductions and returns the logits.
func (h *HierarchicalFC) forward(x *Tensor) (*Tensor, error) {
	in0 := h.shapes[0].Kernel.Cin
	if x.Len() != h.batch*in0 {
		return nil, fmt.Errorf("%w: input has %d elements, want %d", ErrTrain, x.Len(), h.batch*in0)
	}
	h.in0 = &Tensor{Shape: []int{h.batch, in0}, Data: x.Data}
	cur := h.in0
	nl := len(h.shapes)
	for l := 0; l < nl; l++ {
		cin, cout := h.shapes[l].Kernel.Cin, h.shapes[l].Kernel.Cout
		out, err := NewTensor(h.batch, cout)
		if err != nil {
			return nil, err
		}
		// Each worker contributes its partial product into the global
		// accumulator; workers whose (rows, cols) cells coincide would
		// double-count, so only the canonical worker of each peer set
		// (the one whose remaining mp bits are zero... — equivalently,
		// every worker with a distinct (rowRange, colRange) pair)
		// contributes once.
		seen := map[[4]int]bool{}
		for wk := 0; wk < h.workers; wk++ {
			rows := h.rowRange[l][wk]
			cols := h.colRange[l][wk]
			key := [4]int{rows[0], rows[1], cols[0], cols[1]}
			if seen[key] {
				continue
			}
			seen[key] = true
			for i := rows[0]; i < rows[1]; i++ {
				for k := cols[0]; k < cols[1]; k++ {
					av := cur.Data[i*cin+k]
					if av == 0 {
						continue
					}
					wrow := h.w[l][wk].Data[(k-cols[0])*cout : (k-cols[0]+1)*cout]
					orow := out.Data[i*cout : (i+1)*cout]
					for j := 0; j < cout; j++ {
						orow[j] += av * wrow[j]
					}
				}
			}
		}
		if h.model.Layers[l].Act == nn.ReLU {
			if h.mask[l] == nil || len(h.mask[l]) != out.Len() {
				h.mask[l] = make([]bool, out.Len())
			}
			reluForward(out, h.mask[l])
		}
		h.act[l] = out
		cur = out
	}
	return h.act[nl-1].Clone(), nil
}

// backward propagates errors, reduces gradients across dp-peer sets and
// applies the update to every worker's shard.
func (h *HierarchicalFC) backward(dLogits *Tensor, lr float64) error {
	nl := len(h.shapes)
	grad := dLogits.Clone()
	for l := nl - 1; l >= 0; l-- {
		cin, cout := h.shapes[l].Kernel.Cin, h.shapes[l].Kernel.Cout
		if h.model.Layers[l].Act == nn.ReLU {
			reluBackward(grad, h.mask[l])
		}
		var inAct *Tensor
		if l == 0 {
			inAct = h.in0
		} else {
			inAct = h.act[l-1]
		}
		// Per distinct column range: the true dW rows, as the dp-peer
		// reduction of the workers' row-range partials.
		dwByCols := map[[2]int]*Tensor{}
		for wk := 0; wk < h.workers; wk++ {
			cols := h.colRange[l][wk]
			if _, ok := dwByCols[cols]; ok {
				continue
			}
			dw, err := NewTensor(cols[1]-cols[0], cout)
			if err != nil {
				return err
			}
			// Sum over all batch rows = the union of the dp-peer row
			// ranges; every peer contributes its rows exactly once.
			seenRows := map[[2]int]bool{}
			for peer := 0; peer < h.workers; peer++ {
				if h.colRange[l][peer] != cols {
					continue
				}
				rows := h.rowRange[l][peer]
				if seenRows[rows] {
					continue
				}
				seenRows[rows] = true
				for i := rows[0]; i < rows[1]; i++ {
					grow := grad.Data[i*cout : (i+1)*cout]
					for k := cols[0]; k < cols[1]; k++ {
						av := inAct.Data[i*cin+k]
						if av == 0 {
							continue
						}
						drow := dw.Data[(k-cols[0])*cout : (k-cols[0]+1)*cout]
						for j := 0; j < cout; j++ {
							drow[j] += av * grow[j]
						}
					}
				}
			}
			dwByCols[cols] = dw
		}
		// Error backward before updates (uses pre-update weights).
		if l > 0 {
			prev, err := NewTensor(h.batch, cin)
			if err != nil {
				return err
			}
			seen := map[[2]int]bool{}
			for wk := 0; wk < h.workers; wk++ {
				cols := h.colRange[l][wk]
				if seen[cols] {
					continue
				}
				seen[cols] = true
				w := h.w[l][wk]
				for i := 0; i < h.batch; i++ {
					grow := grad.Data[i*cout : (i+1)*cout]
					for k := cols[0]; k < cols[1]; k++ {
						wrow := w.Data[(k-cols[0])*cout : (k-cols[0]+1)*cout]
						var acc float64
						for j := 0; j < cout; j++ {
							acc += grow[j] * wrow[j]
						}
						prev.Data[i*cin+k] = acc
					}
				}
			}
			grad = prev
		}
		// SGD update on every worker's shard.
		for wk := 0; wk < h.workers; wk++ {
			cols := h.colRange[l][wk]
			dw := dwByCols[cols]
			for i := range h.w[l][wk].Data {
				h.w[l][wk].Data[i] -= lr * dw.Data[i]
			}
		}
	}
	return nil
}

// FullWeights reconstructs layer l's weight matrix from the worker
// shards, verifying that workers sharing a column range agree.
func (h *HierarchicalFC) FullWeights(l int) (*Tensor, error) {
	cin, cout := h.shapes[l].Kernel.Cin, h.shapes[l].Kernel.Cout
	full, err := NewTensor(cin, cout)
	if err != nil {
		return nil, err
	}
	filled := make([]bool, cin)
	for wk := 0; wk < h.workers; wk++ {
		cols := h.colRange[l][wk]
		for k := cols[0]; k < cols[1]; k++ {
			row := h.w[l][wk].Data[(k-cols[0])*cout : (k-cols[0]+1)*cout]
			if filled[k] {
				for j := 0; j < cout; j++ {
					if full.Data[k*cout+j] != row[j] {
						return nil, fmt.Errorf("%w: layer %d replicas disagree at row %d", ErrTrain, l, k)
					}
				}
				continue
			}
			copy(full.Data[k*cout:(k+1)*cout], row)
			filled[k] = true
		}
	}
	for k, ok := range filled {
		if !ok {
			return nil, fmt.Errorf("%w: layer %d row %d uncovered", ErrTrain, l, k)
		}
	}
	return full, nil
}
