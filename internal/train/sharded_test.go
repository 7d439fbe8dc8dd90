package train

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
)

// assignOf parses "dmmd" into an assignment.
func assignOf(s string) []comm.Parallelism {
	a := make([]comm.Parallelism, len(s))
	for i, c := range s {
		if c == 'm' {
			a[i] = comm.MP
		}
	}
	return a
}

// shardedFixture builds matched single-device and sharded executors.
func shardedFixture(t *testing.T, m *nn.Model, batch int, assign string) (*Network, *ShardedFC, *Tensor, []int) {
	t.Helper()
	ref, err := NewNetwork(m, batch, 99)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	sh, err := NewShardedFC(ref, assignOf(assign))
	if err != nil {
		t.Fatalf("NewShardedFC: %v", err)
	}
	x, labels, err := SyntheticBatch(m, batch, lastCout(m), 21)
	if err != nil {
		t.Fatalf("SyntheticBatch: %v", err)
	}
	return ref, sh, x, labels
}

func lastCout(m *nn.Model) int { return m.Layers[len(m.Layers)-1].Cout }

// evenFCNet has even widths so mp column splits are exact.
func evenFCNet() *nn.Model {
	return &nn.Model{
		Name:  "even-fc",
		Input: nn.Input{H: 1, W: 1, C: 16},
		Layers: []nn.Layer{
			nn.FCLayer("fc1", 12),
			nn.FCLayer("fc2", 8),
			{Name: "fc3", Type: nn.FC, Cout: 4, Act: nn.Softmax},
		},
	}
}

// TestShardedEquivalence: for every parallelism assignment of a
// three-layer fc net, hybrid-parallel execution over two groups is
// numerically identical to single-device training — logits, losses and
// updated weights — across multiple steps. This is the core soundness
// property behind the whole partition space.
func TestShardedEquivalence(t *testing.T) {
	m := evenFCNet()
	for code := 0; code < 8; code++ {
		assign := ""
		for b := 0; b < 3; b++ {
			if code&(1<<uint(b)) != 0 {
				assign += "m"
			} else {
				assign += "d"
			}
		}
		t.Run(assign, func(t *testing.T) {
			ref, sh, x, labels := shardedFixture(t, m, 8, assign)
			xNHWC := &Tensor{Shape: []int{8, 1, 1, 16}, Data: x.Data}
			for step := 0; step < 3; step++ {
				refLogits, err := ref.Forward(xNHWC)
				if err != nil {
					t.Fatalf("ref forward: %v", err)
				}
				shLogits, err := sh.Forward(x)
				if err != nil {
					t.Fatalf("sharded forward: %v", err)
				}
				if d, _ := MaxAbsDiff(refLogits, shLogits); d > 1e-9 {
					t.Fatalf("step %d logits diverge by %g", step, d)
				}
				refLoss, dLogits, err := SoftmaxCrossEntropy(refLogits, labels)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Backward(dLogits); err != nil {
					t.Fatal(err)
				}
				ref.Step(0.1)
				shLoss, err := sh.Backward(labels, 0.1)
				if err != nil {
					t.Fatalf("sharded backward: %v", err)
				}
				if math.Abs(refLoss-shLoss) > 1e-9 {
					t.Fatalf("step %d losses diverge: %g vs %g", step, refLoss, shLoss)
				}
				for l := 0; l < ref.Layers(); l++ {
					full, err := sh.FullWeights(l)
					if err != nil {
						t.Fatalf("FullWeights(%d): %v", l, err)
					}
					if d, _ := MaxAbsDiff(ref.Weights(l), full); d > 1e-9 {
						t.Fatalf("step %d layer %d weights diverge by %g", step, l, d)
					}
				}
			}
		})
	}
}

// TestShardedCommMatchesModel: the executor's measured remote-element
// counts equal the analytic predictions of Tables 1-2, category by
// category and layer by layer, for every assignment.
func TestShardedCommMatchesModel(t *testing.T) {
	m := evenFCNet()
	for code := 0; code < 8; code++ {
		assign := ""
		for b := 0; b < 3; b++ {
			if code&(1<<uint(b)) != 0 {
				assign += "m"
			} else {
				assign += "d"
			}
		}
		t.Run(assign, func(t *testing.T) {
			_, sh, x, labels := shardedFixture(t, m, 8, assign)
			if _, err := sh.Step(x, labels, 0.1); err != nil {
				t.Fatalf("Step: %v", err)
			}
			pf, pg, pif, pie := sh.PredictedExchanges()
			for l := 0; l < len(pf); l++ {
				if sh.IntraFwd[l] != pf[l] {
					t.Errorf("layer %d IntraFwd measured %g, predicted %g", l, sh.IntraFwd[l], pf[l])
				}
				if sh.IntraGrad[l] != pg[l] {
					t.Errorf("layer %d IntraGrad measured %g, predicted %g", l, sh.IntraGrad[l], pg[l])
				}
				if sh.InterF[l] != pif[l] {
					t.Errorf("layer %d InterF measured %g, predicted %g", l, sh.InterF[l], pif[l])
				}
				if sh.InterE[l] != pie[l] {
					t.Errorf("layer %d InterE measured %g, predicted %g", l, sh.InterE[l], pie[l])
				}
			}
		})
	}
}

// TestPaperWorkedExampleMeasured reruns the §3.1 example with real
// tensors: a 70→100 fc layer at batch 32 across two accelerators moves
// 56 KB under dp and 25.6 KB under mp — measured, not modeled.
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
		sh, err := NewShardedFC(ref, assignOf(tc.assign))
		if err != nil {
			t.Fatal(err)
		}
		x, labels, err := SyntheticBatch(m, 32, 100, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Step(x, labels, 0.01); err != nil {
			t.Fatalf("Step: %v", err)
		}
		if got := sh.TotalRemote() * 4; got != tc.bytes {
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
	if _, err := NewShardedFC(refConv, assignOf("d")); !errors.Is(err, ErrTrain) {
		t.Errorf("conv model accepted: %v", err)
	}

	m := evenFCNet()
	ref, _ := NewNetwork(m, 8, 1)
	if _, err := NewShardedFC(ref, assignOf("dd")); !errors.Is(err, ErrTrain) {
		t.Errorf("short assignment accepted: %v", err)
	}
	refOdd, _ := NewNetwork(m, 7, 1)
	if _, err := NewShardedFC(refOdd, assignOf("ddd")); !errors.Is(err, ErrTrain) {
		t.Errorf("odd batch accepted: %v", err)
	}
	// Odd input width under mp.
	odd := &nn.Model{Name: "odd", Input: nn.Input{H: 1, W: 1, C: 7},
		Layers: []nn.Layer{{Name: "fc", Type: nn.FC, Cout: 4, Act: nn.Softmax}}}
	refO, _ := NewNetwork(odd, 4, 1)
	if _, err := NewShardedFC(refO, assignOf("m")); !errors.Is(err, ErrTrain) {
		t.Errorf("odd Cin mp accepted: %v", err)
	}

	sh, err := NewShardedFC(ref, assignOf("ddd"))
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := NewTensor(4, 16)
	if _, err := sh.Forward(bad); !errors.Is(err, ErrTrain) {
		t.Errorf("wrong batch accepted: %v", err)
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
		sh, err := NewShardedFC(ref, assignOf(assign))
		if err != nil {
			t.Fatal(err)
		}
		x, labels, err := SyntheticBatch(m, 16, 10, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Step(x, labels, 0.05); err != nil {
			t.Fatal(err)
		}
		return sh.TotalRemote()
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
	m := evenFCNet()
	ref, err := NewNetwork(m, 16, 13)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShardedFC(ref, assignOf("dmd"))
	if err != nil {
		t.Fatal(err)
	}
	x, labels, err := SyntheticBatch(m, 16, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sh.Step(x, labels, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 60; i++ {
		if last, err = sh.Step(x, labels, 0.5); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if !(last < first*0.5) {
		t.Errorf("sharded loss did not converge: %g → %g", first, last)
	}
}

func ExampleShardedFC() {
	m := &nn.Model{
		Name:  "demo",
		Input: nn.Input{H: 1, W: 1, C: 8},
		Layers: []nn.Layer{
			nn.FCLayer("hidden", 6),
			{Name: "out", Type: nn.FC, Cout: 2, Act: nn.Softmax},
		},
	}
	ref, _ := NewNetwork(m, 4, 1)
	sh, _ := NewShardedFC(ref, []comm.Parallelism{comm.DP, comm.MP})
	x, labels, _ := SyntheticBatch(m, 4, 2, 1)
	if _, err := sh.Step(x, labels, 0.1); err != nil {
		fmt.Println("error:", err)
		return
	}
	// dp fc1 exchanges its 8×6 gradient (2×48), the dp→mp boundary
	// converts quarters of F and E (12 + 12), and mp fc2 exchanges its
	// 4×2 output partial sums (2×8): 136 elements in total.
	fmt.Printf("remote elements moved: %.0f\n", sh.TotalRemote())
	// Output:
	// remote elements moved: 136
}
