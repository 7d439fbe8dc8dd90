package train

import (
	"errors"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/partition"
)

// hierNet has widths divisible by 4 so two mp levels split exactly.
func hierNet() *nn.Model {
	return &nn.Model{
		Name:  "hier-fc",
		Input: nn.Input{H: 1, W: 1, C: 16},
		Layers: []nn.Layer{
			nn.FCLayer("fc1", 12),
			nn.FCLayer("fc2", 8),
			{Name: "fc3", Type: nn.FC, Cout: 4, Act: nn.Softmax},
		},
	}
}

// unit repeats the paper's unit cost weights for levels hierarchy
// levels: the per-level weights of the single-platform HMC array.
func unit(levels int) []partition.Weights {
	ws := make([]partition.Weights, levels)
	for h := range ws {
		ws[h] = partition.UnitWeights()
	}
	return ws
}

// planOf builds a fixed two-level plan from strings like "dmd"/"mdd".
func planOf(t *testing.T, m *nn.Model, batch int, levels ...string) *partition.Plan {
	t.Helper()
	assigns := make([]partition.Assignment, len(levels))
	for h, s := range levels {
		assigns[h] = make(partition.Assignment, len(s))
		for i, c := range s {
			if c == 'm' {
				assigns[h][i] = comm.MP
			}
		}
	}
	p, err := partition.Evaluate(m, batch, assigns, unit(len(assigns)))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return p
}

// TestHierarchicalEquivalence: four-worker (H=2) hybrid training with
// every combination of per-level assignments matches single-device SGD
// exactly — the numerical statement of Algorithm 2's nested sharding.
func TestHierarchicalEquivalence(t *testing.T) {
	m := hierNet()
	const batch = 8
	levelStrings := []string{"ddd", "dmd", "mdd", "mmd", "dmm", "mmm"}
	for _, l0 := range levelStrings {
		for _, l1 := range levelStrings {
			t.Run(l0+"/"+l1, func(t *testing.T) {
				ref, err := NewNetwork(m, batch, 77)
				if err != nil {
					t.Fatalf("NewNetwork: %v", err)
				}
				plan := planOf(t, m, batch, l0, l1)
				hier, err := NewHierarchicalFC(ref, plan)
				if err != nil {
					t.Fatalf("NewHierarchicalFC: %v", err)
				}
				x, labels, err := SyntheticBatch(m, batch, 4, 31)
				if err != nil {
					t.Fatal(err)
				}
				xNHWC := &Tensor{Shape: []int{batch, 1, 1, 16}, Data: x.Data}
				for step := 0; step < 3; step++ {
					refLoss, err := ref.TrainStep(xNHWC, labels, 0.2)
					if err != nil {
						t.Fatalf("ref step: %v", err)
					}
					hierLoss, err := hier.Step(x, labels, 0.2)
					if err != nil {
						t.Fatalf("hier step: %v", err)
					}
					if math.Abs(refLoss-hierLoss) > 1e-9 {
						t.Fatalf("step %d: losses diverge %g vs %g", step, refLoss, hierLoss)
					}
					for l := 0; l < ref.Layers(); l++ {
						full, err := hier.FullWeights(l)
						if err != nil {
							t.Fatalf("FullWeights: %v", err)
						}
						if d, _ := MaxAbsDiff(ref.Weights(l), full); d > 1e-9 {
							t.Fatalf("step %d layer %d diverged by %g", step, l, d)
						}
					}
				}
			})
		}
	}
}

// TestHierarchicalMatchesTwoGroup: at H=1 the hierarchical executor and
// the explicit two-group executor produce identical weights.
func TestHierarchicalMatchesTwoGroup(t *testing.T) {
	m := hierNet()
	const batch = 8
	for _, assign := range []string{"ddd", "dmd", "mmd", "mmm"} {
		ref1, _ := NewNetwork(m, batch, 55)
		ref2, _ := NewNetwork(m, batch, 55)
		plan := planOf(t, m, batch, assign)
		hier, err := NewHierarchicalFC(ref1, plan)
		if err != nil {
			t.Fatalf("NewHierarchicalFC: %v", err)
		}
		two, err := NewShardedFC(ref2, assignOf(assign))
		if err != nil {
			t.Fatalf("NewShardedFC: %v", err)
		}
		x, labels, _ := SyntheticBatch(m, batch, 4, 3)
		if _, err := hier.Step(x, labels, 0.1); err != nil {
			t.Fatal(err)
		}
		if _, err := two.Step(x, labels, 0.1); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < 3; l++ {
			wh, err := hier.FullWeights(l)
			if err != nil {
				t.Fatal(err)
			}
			wt, err := two.FullWeights(l)
			if err != nil {
				t.Fatal(err)
			}
			if d, _ := MaxAbsDiff(wh, wt); d > 1e-12 {
				t.Errorf("%s layer %d: executors disagree by %g", assign, l, d)
			}
		}
	}
}

// TestHierarchicalPlannedPlan: the executor accepts the planner's own
// output directly.
func TestHierarchicalPlannedPlan(t *testing.T) {
	m := hierNet()
	plan, err := partition.Solve(partition.Request{Model: m, Batch: 8, Levels: unit(2)})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	ref, _ := NewNetwork(m, 8, 9)
	hier, err := NewHierarchicalFC(ref, plan)
	if err != nil {
		t.Fatalf("NewHierarchicalFC: %v", err)
	}
	x, labels, _ := SyntheticBatch(m, 8, 4, 13)
	first, err := hier.Step(x, labels, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 40; i++ {
		if last, err = hier.Step(x, labels, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if !(last < first) {
		t.Errorf("planned-plan training did not improve: %g → %g", first, last)
	}
}

func TestHierarchicalErrors(t *testing.T) {
	m := hierNet()
	ref, _ := NewNetwork(m, 8, 1)

	// Conv layers rejected.
	convM := &nn.Model{Name: "c", Input: nn.Input{H: 6, W: 6, C: 1},
		Layers: []nn.Layer{nn.ConvLayer("c1", 3, 2)}}
	refC, _ := NewNetwork(convM, 2, 1)
	planC := planOf(t, convM, 2, "d")
	if _, err := NewHierarchicalFC(refC, planC); !errors.Is(err, ErrTrain) {
		t.Errorf("conv accepted: %v", err)
	}

	// Zero-level plan rejected.
	empty := &partition.Plan{Model: m.Name, Batch: 8}
	if _, err := NewHierarchicalFC(ref, empty); !errors.Is(err, ErrTrain) {
		t.Errorf("zero-level plan accepted: %v", err)
	}

	// Wrong layer count rejected.
	short := planOf(t, &nn.Model{Name: "s", Input: nn.Input{H: 1, W: 1, C: 4},
		Layers: []nn.Layer{nn.FCLayer("f", 4)}}, 8, "d")
	if _, err := NewHierarchicalFC(ref, short); !errors.Is(err, ErrTrain) {
		t.Errorf("mismatched plan accepted: %v", err)
	}

	// Unhalvable batch under two dp levels rejected.
	refSmall, _ := NewNetwork(m, 6, 1)
	plan2 := planOf(t, m, 6, "ddd", "ddd")
	if _, err := NewHierarchicalFC(refSmall, plan2); !errors.Is(err, ErrTrain) {
		t.Errorf("unhalvable batch accepted: %v", err)
	}

	// Wrong input size at Step.
	hier, err := NewHierarchicalFC(ref, planOf(t, m, 8, "ddd"))
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := NewTensor(8, 7)
	if _, err := hier.Step(bad, make([]int, 8), 0.1); !errors.Is(err, ErrTrain) {
		t.Errorf("bad input accepted: %v", err)
	}
}
