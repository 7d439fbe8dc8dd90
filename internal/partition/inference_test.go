package partition

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestInferenceAlwaysDataParallel validates the paper's §3.3
// observation: "for DNN inference, the best option is Data Parallelism"
// — without gradients, dp's intra-layer cost is zero and dp-dp
// transitions are free, so every layer of every network at every level
// optimizes to dp with zero total communication.
func TestInferenceAlwaysDataParallel(t *testing.T) {
	for _, m := range nn.Zoo() {
		p, err := Solve(Request{Model: m, Batch: 256, Levels: unit(4), Objective: ObjectiveInference})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for h, a := range p.Levels {
			for l, c := range a {
				if c != comm.DP {
					t.Errorf("%s inference level %d layer %d = %v, want dp", m.Name, h, l, c)
				}
			}
		}
		if p.TotalElems != 0 {
			t.Errorf("%s inference communicates %g elements, want 0", m.Name, p.TotalElems)
		}
	}
}

// TestInferenceModelParallelStillCosts: the inference cost model is not
// degenerate — model parallelism still pays for output partial sums,
// and the dp-mp forward conversion still costs while the error term is
// gone.
func TestInferenceModelParallelStillCosts(t *testing.T) {
	m := nn.AlexNet()
	shapes, err := m.Shapes(64)
	if err != nil {
		t.Fatal(err)
	}
	inferenceCosts := UnitWeights().objectiveCosts(ObjectiveInference)
	for l := range shapes {
		a := comm.Amounts(&shapes[l], tensor.Shard{})
		if got := inferenceCosts.intra(comm.MP, a); got != a.FOut {
			t.Errorf("layer %d: inference mp intra = %g, want A(F)=%g", l, got, a.FOut)
		}
		if got := inferenceCosts.intra(comm.DP, a); got != 0 {
			t.Errorf("layer %d: inference dp intra = %g, want 0", l, got)
		}
		if got := inferenceCosts.interF(comm.DP, comm.MP, a); got != 0.25*a.FBound {
			t.Errorf("layer %d: inference dp-mp F conversion = %g", l, got)
		}
		if got := inferenceCosts.interE(comm.MP, comm.MP, a); got != 0 {
			t.Errorf("layer %d: inference E conversion = %g, want 0", l, got)
		}
	}
}
