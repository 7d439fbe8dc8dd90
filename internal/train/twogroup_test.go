package train

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/partition"
)

// The tests in this file run HierarchicalFC at H = 1, two groups: the
// §3.1 setting in which every level's traffic is one exchange and the
// measured volumes must equal Tables 1-2 exactly.

// pairFixture builds matched single-device and two-group executors for
// a one-level assignment such as "dmd".
func pairFixture(t *testing.T, m *nn.Model, batch int, assign string) (*Network, *HierarchicalFC, *partition.Plan, *Tensor, []int) {
	t.Helper()
	ref, err := NewNetwork(m, batch, 99)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	plan := planOf(t, m, batch, assign)
	hier, err := NewHierarchicalFC(ref, plan)
	if err != nil {
		t.Fatalf("NewHierarchicalFC: %v", err)
	}
	x, labels, err := SyntheticBatch(m, batch, lastCout(m), 21)
	if err != nil {
		t.Fatalf("SyntheticBatch: %v", err)
	}
	return ref, hier, plan, x, labels
}

func lastCout(m *nn.Model) int { return m.Layers[len(m.Layers)-1].Cout }

// assignments lists every dp/mp string of n layers, layer i's choice
// taken from bit i of the code.
func assignments(n int) []string {
	var out []string
	for code := 0; code < 1<<n; code++ {
		s := make([]byte, n)
		for b := range s {
			s[b] = "dm"[code>>b&1]
		}
		out = append(out, string(s))
	}
	return out
}

// TestShardedEquivalence: for every parallelism assignment of a
// three-layer fc net, hybrid-parallel execution over two groups is
// numerically identical to single-device training, losses and updated
// weights alike, across multiple steps. This is the core soundness
// property behind the whole partition space.
func TestShardedEquivalence(t *testing.T) {
	m := hierNet()
	for _, assign := range assignments(3) {
		t.Run(assign, func(t *testing.T) {
			ref, hier, _, x, labels := pairFixture(t, m, 8, assign)
			stepsMatch(t, ref, hier, x, labels, 3)
		})
	}
}

// stepsMatch trains ref and hier side by side for steps steps and
// fails unless every loss and updated weight agrees within 1e-9.
func stepsMatch(t *testing.T, ref *Network, hier *HierarchicalFC, x *Tensor, labels []int, steps int) {
	t.Helper()
	in := ref.Model.Input
	xNHWC := &Tensor{Shape: []int{ref.Batch, in.H, in.W, in.C}, Data: x.Data}
	for step := 0; step < steps; step++ {
		refLoss, err := ref.TrainStep(xNHWC, labels, 0.1)
		if err != nil {
			t.Fatalf("ref step: %v", err)
		}
		hierLoss, err := hier.Step(x, labels, 0.1)
		if err != nil {
			t.Fatalf("hierarchical step: %v", err)
		}
		if math.Abs(refLoss-hierLoss) > 1e-9 {
			t.Fatalf("step %d losses diverge: %g vs %g", step, refLoss, hierLoss)
		}
		for l := 0; l < ref.Layers(); l++ {
			full, err := hier.FullWeights(l)
			if err != nil {
				t.Fatalf("FullWeights(%d): %v", l, err)
			}
			if d, _ := MaxAbsDiff(ref.Weights(l), full); d > 1e-9 {
				t.Fatalf("step %d layer %d weights diverge by %g", step, l, d)
			}
		}
	}
}

// TestShardedCommMatchesModel: between two groups the measured
// volumes equal the plan's Details (Tables 1-2), class by class and
// layer or edge by layer or edge, for every assignment.
func TestShardedCommMatchesModel(t *testing.T) {
	m := hierNet()
	for _, assign := range assignments(3) {
		t.Run(assign, func(t *testing.T) {
			_, hier, plan, x, labels := pairFixture(t, m, 8, assign)
			if _, err := hier.Step(x, labels, 0.1); err != nil {
				t.Fatalf("Step: %v", err)
			}
			got, want := hier.Traffic()[0], plan.Details[0]
			for _, c := range classes(got, want) {
				for i := range c.want {
					if c.got[i] != c.want[i] {
						t.Errorf("%s[%d] measured %g, modelled %g", c.name, i, c.got[i], c.want[i])
					}
				}
			}
		})
	}
}

// TestPaperWorkedExampleMeasured reruns the §3.1 example with real
// tensors: a 70→100 fc layer at batch 32 across two accelerators moves
// 56 KB under dp and 25.6 KB under mp, measured, not modelled.
func TestPaperWorkedExampleMeasured(t *testing.T) {
	m := &nn.Model{
		Name:  "fc-example",
		Input: nn.Input{H: 1, W: 1, C: 70},
		Layers: []nn.Layer{
			{Name: "fc", Type: nn.FC, Cout: 100, Act: nn.NoAct},
		},
	}
	for _, tc := range []struct {
		assign string
		bytes  float64
	}{
		{"d", 56000}, // 2 × 70×100 × 4 B
		{"m", 25600}, // 2 × 32×100 × 4 B
	} {
		ref, err := NewNetwork(m, 32, 1)
		if err != nil {
			t.Fatal(err)
		}
		hier, err := NewHierarchicalFC(ref, planOf(t, m, 32, tc.assign))
		if err != nil {
			t.Fatal(err)
		}
		x, labels, err := SyntheticBatch(m, 32, 100, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hier.Step(x, labels, 0.01); err != nil {
			t.Fatalf("Step: %v", err)
		}
		if got := hier.TotalRemote() * 4; got != tc.bytes {
			t.Errorf("%s: measured %g bytes, paper says %g", tc.assign, got, tc.bytes)
		}
	}
}

func TestShardedErrors(t *testing.T) {
	conv := &nn.Model{Name: "conv", Input: nn.Input{H: 6, W: 6, C: 1},
		Layers: []nn.Layer{nn.ConvLayer("c", 3, 2)}}
	refConv, err := NewNetwork(conv, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHierarchicalFC(refConv, planOf(t, conv, 2, "d")); !errors.Is(err, ErrTrain) {
		t.Errorf("conv model accepted: %v", err)
	}

	m := hierNet()
	ref, _ := NewNetwork(m, 8, 1)
	short := &partition.Plan{Batch: 8, Levels: []partition.Assignment{{comm.DP, comm.DP}}}
	if _, err := NewHierarchicalFC(ref, short); !errors.Is(err, ErrTrain) {
		t.Errorf("short plan accepted: %v", err)
	}
	refOdd, _ := NewNetwork(m, 7, 1)
	if _, err := NewHierarchicalFC(refOdd, planOf(t, m, 7, "ddd")); !errors.Is(err, ErrTrain) {
		t.Errorf("odd batch accepted: %v", err)
	}
	if _, err := NewHierarchicalFC(ref, planOf(t, m, 16, "ddd")); !errors.Is(err, ErrTrain) {
		t.Errorf("plan for another batch accepted: %v", err)
	}
	// Odd input width under mp.
	odd := &nn.Model{Name: "odd", Input: nn.Input{H: 1, W: 1, C: 7},
		Layers: []nn.Layer{{Name: "fc", Type: nn.FC, Cout: 4, Act: nn.Softmax}}}
	refO, _ := NewNetwork(odd, 4, 1)
	if _, err := NewHierarchicalFC(refO, planOf(t, odd, 4, "m")); !errors.Is(err, ErrTrain) {
		t.Errorf("odd Cin mp accepted: %v", err)
	}

	hier, err := NewHierarchicalFC(ref, planOf(t, m, 8, "ddd"))
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := NewTensor(4, 16)
	if _, err := hier.Step(bad, make([]int, 8), 0.1); !errors.Is(err, ErrTrain) {
		t.Errorf("wrong input size accepted: %v", err)
	}
}

// TestShardedSFCScaled runs the paper's SFC geometry (scaled down) in
// its optimized mostly-mp assignment and confirms training works and
// communicates less than pure dp.
func TestShardedSFCScaled(t *testing.T) {
	m := &nn.Model{
		Name:  "sfc-small",
		Input: nn.Input{H: 1, W: 1, C: 64},
		Layers: []nn.Layer{
			nn.FCLayer("fc1", 128),
			nn.FCLayer("fc2", 128),
			nn.FCLayer("fc3", 128),
			{Name: "fc4", Type: nn.FC, Cout: 10, Act: nn.Softmax},
		},
	}
	run := func(assign string) float64 {
		ref, err := NewNetwork(m, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		hier, err := NewHierarchicalFC(ref, planOf(t, m, 16, assign))
		if err != nil {
			t.Fatal(err)
		}
		x, labels, err := SyntheticBatch(m, 16, 10, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hier.Step(x, labels, 0.05); err != nil {
			t.Fatal(err)
		}
		return hier.TotalRemote()
	}
	dp := run("dddd")
	mp := run("mmmm")
	if mp >= dp {
		t.Errorf("SFC-style net: mp traffic %g should beat dp traffic %g", mp, dp)
	}
}

// TestShardedTrainingConverges: hybrid-parallel training reduces the
// loss just like single-device training does.
func TestShardedTrainingConverges(t *testing.T) {
	m := hierNet()
	ref, err := NewNetwork(m, 16, 13)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := NewHierarchicalFC(ref, planOf(t, m, 16, "dmd"))
	if err != nil {
		t.Fatal(err)
	}
	x, labels, err := SyntheticBatch(m, 16, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	first, err := hier.Step(x, labels, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 60; i++ {
		if last, err = hier.Step(x, labels, 0.5); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if !(last < first*0.5) {
		t.Errorf("two-group loss did not converge: %g → %g", first, last)
	}
}

func ExampleHierarchicalFC() {
	m := &nn.Model{
		Name:  "demo",
		Input: nn.Input{H: 1, W: 1, C: 8},
		Layers: []nn.Layer{
			nn.FCLayer("hidden", 6),
			{Name: "out", Type: nn.FC, Cout: 2, Act: nn.Softmax},
		},
	}
	// One level, two groups: hidden dp, out mp.
	plan, _ := partition.Evaluate(m, 4, []partition.Assignment{{comm.DP, comm.MP}},
		[]partition.Weights{partition.UnitWeights()})
	ref, _ := NewNetwork(m, 4, 1)
	hier, _ := NewHierarchicalFC(ref, plan)
	x, labels, _ := SyntheticBatch(m, 4, 2, 1)
	if _, err := hier.Step(x, labels, 0.1); err != nil {
		fmt.Println("error:", err)
		return
	}
	// dp hidden exchanges its 8×6 gradient (2×48), the dp→mp boundary
	// converts quarters of F and E (12 + 12), and mp out exchanges its
	// 4×2 output partial sums (2×8): 136 elements in total.
	fmt.Printf("remote elements moved: %.0f\n", hier.TotalRemote())
	// Output:
	// remote elements moved: 136
}
