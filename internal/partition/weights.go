package partition

import (
	"fmt"
	"math"

	"repro/internal/comm"
)

// Weights scales the three communication classes of the training cost
// model, letting an accelerator platform express how expensive each
// class of exchange is relative to raw element counts. The paper's
// HMC + H-tree platform weighs every class identically (UnitWeights);
// other backends charge less for exchanges their fabric or dataflow
// performs natively — a bandwidth-optimal ring allreduce halves the
// per-link gradient volume, an in-array systolic reduction halves the
// partial-sum volume. The weighted amounts are what the dynamic program
// minimizes and what the plan records as its transfer volumes, so the
// DP objective and the simulated schedule stay consistent. Every entry
// point takes one Weights per hierarchy level: a single-platform array
// repeats one entry, a heterogeneous array scores each cut with the
// platform serving it.
type Weights struct {
	// Grad scales the dp gradient allreduce of ∆W_l (Table 1, dp row).
	Grad float64
	// Psum scales the mp output partial-sum aggregation of F_{l+1}
	// (Table 1, mp row).
	Psum float64
	// Convert scales the Table 2 inter-layer conversions (F and E
	// boundary tensors between differently partitioned layers).
	Convert float64
}

// UnitWeights is the paper's cost model: every class at weight 1.
func UnitWeights() Weights { return Weights{Grad: 1, Psum: 1, Convert: 1} }

// Validate checks that every weight is positive and finite.
func (w Weights) Validate() error {
	for _, v := range []float64{w.Grad, w.Psum, w.Convert} {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: cost weight %g", ErrPlan, v)
		}
	}
	return nil
}

// costs abstracts the objective of the layer-wise dynamic program so
// the same search runs for training (Tables 1-2) and inference.
type costs struct {
	intra  func(p comm.Parallelism, a comm.LayerAmounts) float64
	interF func(prev, cur comm.Parallelism, a comm.LayerAmounts) float64
	interE func(prev, cur comm.Parallelism, a comm.LayerAmounts) float64
}

// levelCosts validates a per-level weights vector and compiles it to
// the per-level cost models of the objective. Each distinct run of
// equal weights compiles once: a level whose weights equal the level
// above's shares its cost model, so a single-platform array builds one.
func levelCosts(ws []Weights, o Objective) ([]costs, error) {
	cs := make([]costs, len(ws))
	for h, w := range ws {
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("level %d: %w", h, err)
		}
		if h > 0 && w == ws[h-1] {
			cs[h] = cs[h-1]
		} else {
			cs[h] = w.objectiveCosts(o)
		}
	}
	return cs, nil
}

// objectiveCosts compiles the weights into the cost model of the given
// objective. Training is the paper's full model (Tables 1-2).
// Inference drops everything gradients and errors cause: dp incurs no
// intra-layer exchange (there is no ∆W), and no E tensors flow
// backward. Only mp's output partial sums and the forward F conversions
// remain — which is why §3.3 observes that inference always optimizes
// to pure Data Parallelism (both of its cost sources are zero).
func (w Weights) objectiveCosts(o Objective) costs {
	if o == ObjectiveInference {
		return costs{
			intra: func(p comm.Parallelism, a comm.LayerAmounts) float64 {
				if p == comm.MP {
					return w.Psum * a.FOut
				}
				return 0
			},
			interF: func(prev, cur comm.Parallelism, a comm.LayerAmounts) float64 {
				return w.Convert * comm.InterF(prev, cur, a)
			},
			interE: func(prev, cur comm.Parallelism, a comm.LayerAmounts) float64 { return 0 },
		}
	}
	return costs{
		intra: func(p comm.Parallelism, a comm.LayerAmounts) float64 {
			switch p {
			case comm.DP:
				return w.Grad * a.DW
			case comm.MP:
				return w.Psum * a.FOut
			default:
				return 0
			}
		},
		interF: func(prev, cur comm.Parallelism, a comm.LayerAmounts) float64 {
			return w.Convert * comm.InterF(prev, cur, a)
		},
		interE: func(prev, cur comm.Parallelism, a comm.LayerAmounts) float64 {
			return w.Convert * comm.InterE(prev, cur, a)
		},
	}
}
