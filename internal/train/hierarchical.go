package train

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/partition"
)

// HierarchicalFC executes real hybrid-parallel training of a
// fully-connected network across the 2^H workers of a hierarchical
// plan: Algorithm 2's nested sharding made concrete. A worker's index
// bits are its path through the hierarchy, level 0 the top bit, and at
// every level a layer's choice splits its tensors between the two
// halves:
//
//   - dp cuts the batch. The batch is cut into 2^H blocks whose index
//     bits name the levels, and for layer l a worker holds the blocks
//     that match its own bits at l's dp levels;
//   - mp cuts the input dimension: a worker holds the input columns,
//     and the weight rows, that its bits at l's mp levels pick.
//
// Every worker computes from its own shards only. Whatever crosses
// between workers is an explicit copy, counted by class and by layer or
// edge at the level where the two workers' paths split: the mp
// partial-sum and dp gradient reductions, each a hierarchical allreduce
// (a reduce-scatter from the deepest level up, then an all-gather back
// down), and the F and E conversions between adjacent layers, in which
// every worker fetches what it lacks from the nearest worker that has
// it. Handing out the input batch, assembling the logits for the loss,
// handing back the loss gradient and FullWeights are free, as in the
// paper's model. Tests check that the result equals single-device SGD
// and that the counts meet the plan's own volumes (Traffic).
type HierarchicalFC struct {
	layers []*fcLayer
	levels int
	block  int // batch rows per block: batch / 2^H
	logits *Tensor
	seg    [][2]int // allreduce scratch: each worker's segment

	// moved[h] counts the elements the last Step copied at level h,
	// both directions and every pair summed.
	moved []partition.LevelDetail
}

// fcLayer is one layer's split and every worker's shards of it.
type fcLayer struct {
	dp, mp     int // worker-bit masks of the levels that cut the batch / the input columns
	rows, cols int // a worker's batch rows and input columns
	cin, cout  int
	relu       bool
	// Per worker: the weight rows [cols×cout] and their gradient, the
	// input [rows×cols], the output [rows×cout], its error [rows×cout]
	// and, above the first layer, the input's error [rows×cols].
	w, dw, x, z, dz, dx [][]float64
}

// form is how the workers hold a [batch × width·2^|mp|] matrix: worker
// w holds the batch blocks matching its bits at the levels in dp, in
// block order, and the width columns its bits at the levels in mp pick.
type form struct {
	bufs   [][]float64
	dp, mp int
	width  int
}

// NewHierarchicalFC shards the reference network across the plan's
// 2^H workers. The reference network is not modified.
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
	nl := ref.Layers()
	if len(plan.Levels[0]) != nl {
		return nil, fmt.Errorf("%w: plan is for %d layers, network has %d", ErrTrain, len(plan.Levels[0]), nl)
	}
	// Traffic is comparable with the plan's Details only at its batch.
	if plan.Batch != ref.Batch {
		return nil, fmt.Errorf("%w: plan is for batch %d, network has %d", ErrTrain, plan.Batch, ref.Batch)
	}
	workers := 1 << levels
	if ref.Batch%workers != 0 {
		return nil, fmt.Errorf("%w: batch %d not divisible into %d blocks", ErrTrain, ref.Batch, workers)
	}
	h := &HierarchicalFC{
		levels: levels, block: ref.Batch / workers,
		seg: make([][2]int, workers), moved: make([]partition.LevelDetail, levels),
	}
	for lev := range h.moved {
		h.moved[lev] = partition.LevelDetail{
			IntraFwd: make([]float64, nl), IntraGrad: make([]float64, nl),
			InterF: make([]float64, nl-1), InterE: make([]float64, nl-1),
		}
	}
	for l, s := range ref.shapes {
		L := &fcLayer{cin: s.Kernel.Cin, cout: s.Kernel.Cout, relu: s.Layer.Act == nn.ReLU}
		for lev := range levels {
			if plan.At(lev, l) == comm.MP {
				L.mp |= h.bit(lev)
			} else {
				L.dp |= h.bit(lev)
			}
		}
		parts := 1 << bits.OnesCount(uint(L.mp))
		if L.cin%parts != 0 {
			return nil, fmt.Errorf("%w: layer %d Cin %d not divisible into %d mp parts", ErrTrain, l, L.cin, parts)
		}
		L.rows, L.cols = parts*h.block, L.cin/parts
		full := ref.Weights(l).Data
		for w := range workers {
			lo := pack(w, L.mp) * L.cols * L.cout
			L.w = append(L.w, slices.Clone(full[lo:lo+L.cols*L.cout]))
			L.dw = append(L.dw, make([]float64, L.cols*L.cout))
			L.x = append(L.x, make([]float64, L.rows*L.cols))
			L.z = append(L.z, make([]float64, L.rows*L.cout))
			L.dz = append(L.dz, make([]float64, L.rows*L.cout))
			if l > 0 {
				L.dx = append(L.dx, make([]float64, L.rows*L.cols))
			}
		}
		h.layers = append(h.layers, L)
	}
	top := h.layers[nl-1].cout
	h.logits = &Tensor{Shape: []int{ref.Batch, top}, Data: make([]float64, ref.Batch*top)}
	return h, nil
}

// bit is the worker-index bit of hierarchy level lev.
func (h *HierarchicalFC) bit(lev int) int { return 1 << (h.levels - 1 - lev) }

// pack gathers the bits of x that mask selects into the low bits,
// keeping their order: a worker's column part, or a block's position
// among a worker's blocks.
func pack(x, mask int) int {
	r, out := 0, 1
	for ; mask != 0; mask &= mask - 1 {
		if x&mask&-mask != 0 {
			r |= out
		}
		out <<= 1
	}
	return r
}

// in and out are layer L's input and output layouts over bufs.
func (L *fcLayer) in(bufs [][]float64) form  { return form{bufs, L.dp, L.mp, L.cols} }
func (L *fcLayer) out(bufs [][]float64) form { return form{bufs, L.dp, 0, L.cout} }

// Step runs one hierarchical-parallel training step and returns the
// loss.
func (h *HierarchicalFC) Step(x *Tensor, labels []int, lr float64) (float64, error) {
	batch := h.block << h.levels
	first, top := h.layers[0], h.layers[len(h.layers)-1]
	if x.Len() != batch*first.cin {
		return 0, fmt.Errorf("%w: input has %d elements, want %d", ErrTrain, x.Len(), batch*first.cin)
	}
	for _, d := range h.moved {
		for _, c := range [][]float64{d.IntraFwd, d.IntraGrad, d.InterF, d.InterE} {
			clear(c)
		}
	}
	h.scatter(form{bufs: [][]float64{x.Data}, width: first.cin}, first.in(first.x))
	for l, L := range h.layers {
		for w := range L.z {
			matmul(L.z[w], L.x[w], L.w[w], L.rows, L.cols, L.cout)
		}
		h.allreduce(L.z, L.mp, func(lev, n int) { h.moved[lev].IntraFwd[l] += float64(n) })
		if L.relu {
			for _, z := range L.z {
				for i, v := range z {
					z[i] = max(v, 0)
				}
			}
		}
		if l+1 < len(h.layers) {
			next := h.layers[l+1]
			h.convert(L.out(L.z), next.in(next.x), next.cols,
				func(lev, n int) { h.moved[lev].InterF[l] += float64(n) })
		}
	}
	logits := form{bufs: [][]float64{h.logits.Data}, width: top.cout}
	for k := range 1 << h.levels {
		h.copyTile(top.out(top.z), k&top.dp, logits, 0, k, 0, top.cout)
	}
	loss, dLogits, err := SoftmaxCrossEntropy(h.logits, labels)
	if err != nil {
		return 0, err
	}
	h.scatter(form{bufs: [][]float64{dLogits.Data}, width: top.cout}, top.out(top.dz))
	for l := len(h.layers) - 1; l >= 0; l-- {
		L := h.layers[l]
		for w, dz := range L.dz {
			if L.relu {
				for i, v := range L.z[w] {
					if v <= 0 {
						dz[i] = 0
					}
				}
			}
			matmulAT(L.dw[w], L.x[w], dz, L.rows, L.cols, L.cout)
		}
		h.allreduce(L.dw, L.dp, func(lev, n int) { h.moved[lev].IntraGrad[l] += float64(n) })
		if l > 0 {
			// Errors go back through the pre-update weights.
			for w, dz := range L.dz {
				matmulBT(L.dx[w], dz, L.w[w], L.rows, L.cout, L.cols)
			}
			prev := h.layers[l-1]
			h.convert(L.in(L.dx), prev.out(prev.dz), L.cols,
				func(lev, n int) { h.moved[lev].InterE[l-1] += float64(n) })
		}
		for w, wt := range L.w {
			for i, g := range L.dw[w] {
				wt[i] -= lr * g
			}
		}
	}
	return loss, nil
}

// allreduce sums bufs over the workers whose indices differ only at the
// levels in mask: a reduce-scatter from the deepest of those levels up,
// after which each worker holds one segment of the sum, then an
// all-gather back down. Both directions of every pair's exchange are
// tallied at its level.
func (h *HierarchicalFC) allreduce(bufs [][]float64, mask int, tally func(lev, n int)) {
	seg := h.seg
	for w := range seg {
		seg[w] = [2]int{0, len(bufs[w])}
	}
	for lev := h.levels - 1; lev >= 0; lev-- {
		b := h.bit(lev)
		for w := range bufs {
			if mask&b == 0 || w&b != 0 {
				continue
			}
			q := w | b
			lo, hi := seg[w][0], seg[w][1]
			mid := lo + (hi-lo)/2
			for i := lo; i < mid; i++ {
				bufs[w][i] += bufs[q][i]
			}
			for i := mid; i < hi; i++ {
				bufs[q][i] += bufs[w][i]
			}
			seg[w], seg[q] = [2]int{lo, mid}, [2]int{mid, hi}
			tally(lev, hi-lo)
		}
	}
	for lev := range h.levels {
		b := h.bit(lev)
		for w := range bufs {
			if mask&b == 0 || w&b != 0 {
				continue
			}
			q := w | b
			lo, mid, hi := seg[w][0], seg[w][1], seg[q][1]
			copy(bufs[q][lo:mid], bufs[w][lo:mid])
			copy(bufs[w][mid:hi], bufs[q][mid:hi])
			seg[w], seg[q] = [2]int{lo, hi}, [2]int{lo, hi}
			tally(lev, hi-lo)
		}
	}
}

// convert re-lays a boundary tensor from one layout to another, tile by
// tile: a tile is one batch block by cw columns. A worker that needs a
// tile and lacks it copies it from the nearest worker that has it, one
// that fetched it earlier included, so the tile crosses each level as
// few times as the two layouts allow; each copy is tallied at the level
// where the two workers' paths split.
func (h *HierarchicalFC) convert(from, to form, cw int, tally func(lev, n int)) {
	cols := from.width << bits.OnesCount(uint(from.mp))
	for k := range 1 << h.levels {
		for c0 := 0; c0 < cols; c0 += cw {
			var had, need uint64
			for w := range from.bufs {
				if from.holds(w, k, c0) {
					had |= 1 << w
				}
				if to.holds(w, k, c0) {
					need |= 1 << w
				}
			}
			for own := need & had; own != 0; own &= own - 1 {
				w := bits.TrailingZeros64(own)
				h.copyTile(from, w, to, w, k, c0, cw)
			}
			have := had
			for rest := need &^ had; rest != 0; {
				src, dst, dist := 0, 0, 64
				for u := have; u != 0; u &= u - 1 {
					for v := rest; v != 0; v &= v - 1 {
						a, b := bits.TrailingZeros64(u), bits.TrailingZeros64(v)
						if d := bits.Len(uint(a ^ b)); d < dist {
							src, dst, dist = a, b, d
						}
					}
				}
				f := to
				if had&(1<<src) != 0 {
					f = from
				}
				h.copyTile(f, src, to, dst, k, c0, cw)
				tally(h.levels-dist, h.block*cw)
				have |= 1 << dst
				rest &^= 1 << dst
			}
		}
	}
}

// holds reports whether worker w holds columns [c0, …) of block k.
func (f form) holds(w, k, c0 int) bool {
	lo := pack(w, f.mp) * f.width
	return (w^k)&f.dp == 0 && c0 >= lo && c0 < lo+f.width
}

// copyTile copies cw columns from c0 of block k from worker src's
// buffer in layout from to worker dst's in layout to.
func (h *HierarchicalFC) copyTile(from form, src int, to form, dst, k, c0, cw int) {
	at := func(f form, w int) []float64 {
		j := pack(k, (1<<h.levels-1)&^f.dp)
		return f.bufs[w][j*h.block*f.width+c0-pack(w, f.mp)*f.width:]
	}
	s, d := at(from, src), at(to, dst)
	for r := range h.block {
		copy(d[r*to.width:r*to.width+cw], s[r*from.width:])
	}
}

// scatter hands every worker its part of a matrix held whole by the
// one buffer of all, free of charge.
func (h *HierarchicalFC) scatter(all, f form) {
	for w := range f.bufs {
		lo := pack(w, f.mp) * f.width
		for k := range 1 << h.levels {
			if f.holds(w, k, lo) {
				h.copyTile(all, 0, f, w, k, lo, f.width)
			}
		}
	}
}

// Traffic returns what the last Step copied between workers in the
// plan's own units: for each level, the one-direction elements of one
// group pair by class and by layer or edge, field for field comparable
// with the plan's Details.
func (h *HierarchicalFC) Traffic() []partition.LevelDetail {
	per := func(xs []float64, lev int) []float64 {
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = x / float64(int64(2)<<lev) // both directions of 2^lev pairs
		}
		return ys
	}
	out := make([]partition.LevelDetail, len(h.moved))
	for lev, d := range h.moved {
		out[lev] = partition.LevelDetail{
			IntraFwd: per(d.IntraFwd, lev), IntraGrad: per(d.IntraGrad, lev),
			InterF: per(d.InterF, lev), InterE: per(d.InterE, lev),
		}
	}
	return out
}

// TotalRemote returns the elements the last Step copied between
// workers, both directions and every level summed.
func (h *HierarchicalFC) TotalRemote() float64 {
	var t float64
	for _, d := range h.moved {
		for _, c := range [][]float64{d.IntraFwd, d.IntraGrad, d.InterF, d.InterE} {
			for _, v := range c {
				t += v
			}
		}
	}
	return t
}

// FullWeights reconstructs layer l's weight matrix from the worker
// shards, verifying that the replicas of every shard agree.
func (h *HierarchicalFC) FullWeights(l int) (*Tensor, error) {
	L := h.layers[l]
	full, err := NewTensor(L.cin, L.cout)
	if err != nil {
		return nil, err
	}
	for w, shard := range L.w {
		lo := pack(w, L.mp) * len(shard)
		dst := full.Data[lo : lo+len(shard)]
		// Workers visit their part's first replica (dp bits clear) first.
		if w&L.dp == 0 {
			copy(dst, shard)
		} else if !slices.Equal(dst, shard) {
			return nil, fmt.Errorf("%w: layer %d replicas disagree on worker %d", ErrTrain, l, w)
		}
	}
	return full, nil
}

// matmul sets out [r×c] to a [r×k] · b [k×c].
func matmul(out, a, b []float64, r, k, c int) {
	clear(out)
	for i := range r {
		orow := out[i*c : (i+1)*c]
		for kk, av := range a[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			brow := b[kk*c : (kk+1)*c]
			orow := orow[:len(brow)]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matmulAT sets out [k×c] to aᵀ · g for a [r×k] and g [r×c].
func matmulAT(out, a, g []float64, r, k, c int) {
	clear(out)
	for i := range r {
		grow := g[i*c : (i+1)*c]
		for kk, av := range a[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			orow := out[kk*c : (kk+1)*c]
			orow = orow[:len(grow)]
			for j, gv := range grow {
				orow[j] += av * gv
			}
		}
	}
}

// matmulBT sets out [r×k] to a · bᵀ for a [r×c] and b [k×c].
func matmulBT(out, a, b []float64, r, c, k int) {
	for i := range r {
		arow := a[i*c : (i+1)*c]
		for kk := range k {
			brow := b[kk*c : (kk+1)*c]
			brow = brow[:len(arow)]
			var acc float64
			for j, av := range arow {
				acc += av * brow[j]
			}
			out[i*k+kk] = acc
		}
	}
}
