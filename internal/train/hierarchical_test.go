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

// planOf builds a fixed plan from one string like "dmd" per level.
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

// class is one traffic class of a level: measured beside modelled.
type class struct {
	name      string
	got, want []float64
}

// classes pairs the four classes of a measured and a modelled level.
func classes(got, want partition.LevelDetail) []class {
	return []class{
		{"IntraFwd", got.IntraFwd, want.IntraFwd},
		{"IntraGrad", got.IntraGrad, want.IntraGrad},
		{"InterF", got.InterF, want.InterF},
		{"InterE", got.InterE, want.InterE},
	}
}

// fcChain builds an fc chain on an in-wide input with the given layer
// widths, the last a softmax.
func fcChain(in int, widths []int) *nn.Model {
	m := &nn.Model{Name: "chain", Input: nn.Input{H: 1, W: 1, C: in}}
	for l, w := range widths {
		m.Layers = append(m.Layers, nn.FCLayer(fmt.Sprintf("fc%d", l+1), w))
	}
	m.Layers[len(widths)-1].Act = nn.Softmax
	return m
}

// checkMeasured trains m under the plan partition.Evaluate builds for
// assigns, beside single-device SGD, and checks every step: losses and
// updated weights agree within 1e-9, the intra-layer volumes equal the
// plan's Details at every level and layer, and the F and E conversions
// stay at or under them at every level and edge, equal at H = 1. It
// reports whether every conversion met its model exactly.
func checkMeasured(t *testing.T, m *nn.Model, batch int, assigns []partition.Assignment, steps int) (exact bool) {
	t.Helper()
	plan, err := partition.Evaluate(m, batch, assigns, unit(len(assigns)))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	ref, err := NewNetwork(m, batch, 5)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	hier, err := NewHierarchicalFC(ref, plan)
	if err != nil {
		t.Fatalf("NewHierarchicalFC: %v", err)
	}
	x, labels, err := SyntheticBatch(m, batch, lastCout(m), 8)
	if err != nil {
		t.Fatal(err)
	}
	exact = true
	for step := 0; step < steps; step++ {
		stepsMatch(t, ref, hier, x, labels, 1)
		for lev, got := range hier.Traffic() {
			for _, c := range classes(got, plan.Details[lev]) {
				inter := c.name == "InterF" || c.name == "InterE"
				for i, want := range c.want {
					switch {
					case c.got[i] == want:
					case inter && c.got[i] < want && len(assigns) > 1:
						exact = false
					default:
						t.Fatalf("plan %v step %d level %d %s[%d]: measured %g, modelled %g",
							assigns, step, lev, c.name, i, c.got[i], want)
					}
				}
			}
		}
	}
	return exact
}

// randomCase draws an fc chain of 1-4 layers with widths that are
// multiples of 8, batch 8 or 16, and a plan of depth 1-3.
func randomCase(r *rng) (*nn.Model, int, []partition.Assignment) {
	width := func() int { return 8 * (1 + int(r.next()%4)) }
	widths := make([]int, 1+r.next()%4)
	for l := range widths {
		widths[l] = width()
	}
	assigns := make([]partition.Assignment, 1+r.next()%3)
	for h := range assigns {
		assigns[h] = make(partition.Assignment, len(widths))
		for l := range widths {
			assigns[h][l] = comm.Parallelism(r.next() % 2)
		}
	}
	return fcChain(width(), widths), 8 << (r.next() % 2), assigns
}

// TestHierarchicalMeasuredMatchesModel checks, over seeded random fc
// chains and plans at H = 1-3, that three steps of the executor equal
// single-device SGD and that what it moves meets the plan's Details:
// Table 1's reductions exactly at every level, Table 2's conversions
// at or under at every level and exactly at H = 1.
func TestHierarchicalMeasuredMatchesModel(t *testing.T) {
	r := newRNG(2019)
	for i := 0; i < 200; i++ {
		m, batch, assigns := randomCase(r)
		checkMeasured(t, m, batch, assigns, 3)
	}
}

// TestConversionGap pins where measured conversions fall short of
// Algorithm 2's charge. Over every plan of a four-layer chain at
// H = 1-3, the plans whose F and E conversions equal the model at
// every level and edge number 16 of 16, 121 of 256 and 720 of 4,096:
// at H >= 2 a dp→mp level below a level that is not dp→dp for the
// edge fetches less than the producer's group tensor the model
// charges.
func TestConversionGap(t *testing.T) {
	m := fcChain(16, []int{16, 16, 16, 8})
	for levels, want := range map[int]int{1: 16, 2: 121, 3: 720} {
		exact, plans := 0, 1<<(4*levels)
		for code := 0; code < plans; code++ {
			assigns := make([]partition.Assignment, levels)
			for h := range assigns {
				assigns[h] = make(partition.Assignment, 4)
				for l := range assigns[h] {
					assigns[h][l] = comm.Parallelism(code >> (4*h + l) & 1)
				}
			}
			if checkMeasured(t, m, 16, assigns, 1) {
				exact++
			}
		}
		if exact != want {
			t.Errorf("H = %d: %d of %d plans convert exactly as modelled, want %d", levels, exact, plans, want)
		}
	}
}

// FuzzHierarchicalFC draws an fc chain (1-4 layers, widths multiples
// of 8), batch 8 or 16 and a plan of depth 1-3 from its inputs, and
// checks one step against single-device SGD and the plan's Details.
func FuzzHierarchicalFC(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 2019, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		m, batch, assigns := randomCase(newRNG(int64(seed)))
		checkMeasured(t, m, batch, assigns, 1)
	})
}
