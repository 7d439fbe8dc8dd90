// Package partition implements HyPar's partition search: Algorithm 1
// (the layer-wise dynamic program that chooses data or model parallelism
// for every weighted layer between two accelerator groups, O(L) time)
// and Algorithm 2 (the hierarchical recursion that applies Algorithm 1
// at every level of a 2^H accelerator array, com = com_h + 2·com_n).
//
// The package also scores arbitrary assignments (Evaluate, behind the
// Data Parallelism, Model Parallelism and "one weird trick" baselines)
// and sweeps the parallelism space of Figures 9 and 10 (Sweep, a table
// filled once per sweep, which the brute-force reference runs on too).
package partition

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ErrPlan reports an invalid partition request or assignment.
var ErrPlan = errors.New("partition: invalid plan")

// Assignment is one hierarchy level's parallelism choice per weighted
// layer: P[l] in Algorithm 1.
type Assignment []comm.Parallelism

// String renders the assignment in the 0/1 notation of Figures 9-10.
func (a Assignment) String() string {
	var b strings.Builder
	for _, p := range a {
		b.WriteByte(p.Mark())
	}
	return b.String()
}

// Clone returns a deep copy.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	copy(c, a)
	return c
}

// Edge is one producer→consumer connection between weighted layers of
// a model graph (nn.Edge).
type Edge = nn.Edge

// LevelDetail records, for one hierarchy level, the one-direction
// per-group-pair communication volumes in elements, attributed to the
// training phase that incurs them. The simulator schedules transfers
// from these. The intra arrays are indexed by layer; the inter arrays
// are indexed by edge, parallel to Plan.Edges (for a chain, edge e is
// (e, e+1), so the historical per-producer-layer indexing carries
// over unchanged).
type LevelDetail struct {
	// IntraFwd[l] is the mp partial-sum exchange of F_{l+1} (forward).
	IntraFwd []float64
	// IntraGrad[l] is the dp gradient exchange of ∆W_l (gradient phase).
	IntraGrad []float64
	// InterF[e] is the F conversion on edge Edges[e] (forward).
	InterF []float64
	// InterE[e] is the E conversion on edge Edges[e] (backward).
	InterE []float64
}

// Plan is a complete hierarchical partition: one Assignment per level
// (level 0 splits the whole array in two; level H-1 splits pairs of
// accelerators), together with the communication volumes the plan
// incurs.
type Plan struct {
	Model  string
	Batch  int
	Levels []Assignment

	// Edges lists the model's layer-to-layer edges in canonical
	// (Src, then Dst) order; the per-edge arrays of every LevelDetail
	// are parallel to it.
	Edges []Edge

	// Details[h] holds the per-pair volumes of level h.
	Details []LevelDetail

	// TotalElems is the array-wide one-direction element total:
	// Σ_h 2^h · perPair(h) — Algorithm 2's com = com_h + 2·com_n.
	TotalElems float64

	// levelKeys fingerprints each level's solve inputs (method,
	// objective, weights, sharded amounts, layer graph) for warm-start
	// reuse: a later Solve whose level fingerprints match may adopt the
	// level verbatim (see Request.Warm). Unexported on purpose — plans
	// marshal exactly as before, and only Solve can mint valid keys.
	// Nil on plans built outside Solve; such plans warm nothing.
	levelKeys []uint64
}

// PerPairElems returns level h's total one-direction elements for one
// group pair. The summation interleaves each layer's intra volumes with
// its outgoing edges' conversion volumes, which for chains reproduces
// the historical per-layer addition order exactly.
func (p *Plan) PerPairElems(h int) float64 {
	d := &p.Details[h]
	var t float64
	e := 0
	for l := range d.IntraFwd {
		s := d.IntraFwd[l] + d.IntraGrad[l]
		for e < len(p.Edges) && p.Edges[e].Src == l {
			s += d.InterF[e]
			s += d.InterE[e]
			e++
		}
		t += s
	}
	return t
}

// NumLevels returns the hierarchy depth H.
func (p *Plan) NumLevels() int { return len(p.Levels) }

// NumAccelerators returns 2^H.
func (p *Plan) NumAccelerators() int { return 1 << uint(len(p.Levels)) }

// TotalBytes returns the paper's both-direction byte total for the plan
// (the quantity of Figure 8).
func (p *Plan) TotalBytes(d tensor.DType) float64 {
	return comm.ExchangedBytes(p.TotalElems, d)
}

// At returns the parallelism of layer l at level h.
func (p *Plan) At(h, l int) comm.Parallelism { return p.Levels[h][l] }

// LayerString renders one layer's choices across levels, H1 first, in
// the 0/1 notation of Figures 9-10 (e.g. "0001" = dp,dp,dp,mp).
func (p *Plan) LayerString(l int) string {
	var b strings.Builder
	for h := range p.Levels {
		b.WriteByte(p.Levels[h][l].Mark())
	}
	return b.String()
}

// Validate checks structural consistency of the plan. A plan with zero
// levels is valid: it describes a single accelerator with no partition
// and no communication.
func (p *Plan) Validate() error {
	if p == nil {
		return fmt.Errorf("%w: nil plan", ErrPlan)
	}
	if len(p.Levels) == 0 {
		return nil
	}
	l := len(p.Levels[0])
	for h, a := range p.Levels {
		if len(a) != l {
			return fmt.Errorf("%w: level %d has %d layers, want %d", ErrPlan, h, len(a), l)
		}
		for i, c := range a {
			if c != comm.DP && c != comm.MP {
				return fmt.Errorf("%w: level %d layer %d has parallelism %d", ErrPlan, h, i, c)
			}
		}
	}
	return nil
}
