// Package comm implements HyPar's communication model (paper §3): for a
// pair of accelerator groups and a choice of parallelism per weighted
// layer, it answers where communication comes from and how much of it
// there is.
//
// Communication decouples into two parts:
//
//   - intra-layer: the partial-sum exchange marked ⊕ in Figure 1 —
//     gradient aggregation A(∆W_l) under data parallelism, output
//     feature-map aggregation A(F_{l+1}) under model parallelism
//     (Table 1);
//   - inter-layer: the conversion of R tensors of layer l into L tensors
//     of layer l+1 when adjacent layers use different partitionings
//     (Table 2): dp-dp costs 0, dp-mp costs 0.25A(F_{l+1}) +
//     0.25A(E_{l+1}), and mp-mp / mp-dp cost 0.5A(E_{l+1}).
//
// Amounts are expressed in elements for a single direction of the
// exchange. The paper counts both directions when reporting totals
// (§3.4: the 70×100 fc kernel costs 56 KB = 2·70·100·4 B), so
// ExchangedBytes applies the ×2; transfer time over full-duplex links
// uses the one-direction volume.
package comm

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Parallelism is the per-layer, per-level decision variable: lowercase
// "data parallelism" or "model parallelism" in the paper's terminology.
type Parallelism uint8

const (
	// DP replicates the kernel and shards the batch.
	DP Parallelism = iota
	// MP shards the kernel along its input dimension and the input
	// feature map along channels; outputs are produced as partial sums.
	MP
)

// String implements fmt.Stringer using the paper's lowercase notation.
func (p Parallelism) String() string {
	switch p {
	case DP:
		return "dp"
	case MP:
		return "mp"
	default:
		return fmt.Sprintf("Parallelism(%d)", uint8(p))
	}
}

// Mark returns the compact 0/1 notation of Figures 9 and 10
// (0 = data parallelism, 1 = model parallelism).
func (p Parallelism) Mark() byte {
	if p == MP {
		return '1'
	}
	return '0'
}

// LayerAmounts carries the element counts of one weighted layer's
// tensors as seen by one group pair at some hierarchy level, i.e. after
// the sharding of all levels above (tensor.Shard).
//
// FOut is the layer's immediate (pre-pooling) output — the partial sums
// the mp intra-layer exchange aggregates, matching the paper's conv5
// example (A(F_{l+1}) = 32·512·14·14 before the 2×2 pool). FBound and
// EBound are the tensors actually crossing the boundary to the next
// weighted layer (post-pooling), used by the Table 2 inter-layer
// conversions.
type LayerAmounts struct {
	DW     float64 // A(∆W_l): gradient (= kernel) elements
	FOut   float64 // A(F_{l+1}) pre-pool: mp partial-sum exchange volume
	FBound float64 // boundary feature map handed to layer l+1
	EBound float64 // boundary error handed back from layer l+1
}

// Amounts derives the sharded per-pair element counts for a layer from
// its inferred shapes and hierarchical shard state.
func Amounts(s *nn.LayerShapes, sh tensor.Shard) LayerAmounts {
	return LayerAmounts{
		DW:     sh.KernelElems(s.Kernel),
		FOut:   sh.OutputElems(s.Out),
		FBound: sh.OutputElems(s.Carried),
		EBound: sh.OutputElems(s.Carried),
	}
}

// Intra returns the one-direction intra-layer communication in elements
// for the given parallelism (Table 1).
func Intra(p Parallelism, a LayerAmounts) float64 {
	switch p {
	case DP:
		return a.DW
	case MP:
		return a.FOut
	default:
		return 0
	}
}

// InterF returns the feature-map share of the Table 2 transition cost.
// It is incurred during forward propagation, when layer l+1 gathers the
// parts of F_{l+1} its partitioning needs but layer l did not leave on
// this accelerator.
func InterF(prev, cur Parallelism, a LayerAmounts) float64 {
	if prev == DP && cur == MP {
		return 0.25 * a.FBound
	}
	return 0
}

// InterE returns the error share of the Table 2 transition cost. It is
// incurred during error backward propagation, when layer l gathers the
// parts of E_{l+1} produced under layer l+1's partitioning.
func InterE(prev, cur Parallelism, a LayerAmounts) float64 {
	switch {
	case prev == DP && cur == MP:
		return 0.25 * a.EBound
	case prev == MP:
		// mp-mp and mp-dp both cost 0.5·A(E_{l+1}).
		return 0.5 * a.EBound
	default: // dp-dp
		return 0
	}
}

// ExchangedBytes converts a one-direction element amount into the
// paper's both-direction byte count for the given element type.
func ExchangedBytes(elems float64, d tensor.DType) float64 {
	return 2 * elems * float64(d.Size())
}
