package partition

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// randomModel generates a structurally valid feed-forward network:
// a conv stack (kernel sizes that keep the map alive, occasional
// pooling) followed by an fc stack.
func randomModel(r *rand.Rand, id int) *nn.Model {
	m := &nn.Model{
		Name: "rand",
		Input: nn.Input{
			H: 8 + r.Intn(3)*8, // 8, 16 or 24
			W: 8 + r.Intn(3)*8,
			C: 1 + r.Intn(3),
		},
	}
	m.Name = "rand-" + string(rune('A'+id%26))
	h, w := m.Input.H, m.Input.W
	nConv := r.Intn(4)
	for i := 0; i < nConv; i++ {
		k := 1 + 2*r.Intn(2) // 1 or 3
		if h-k+1 <= 0 || w-k+1 <= 0 {
			break
		}
		l := nn.Layer{Name: "c", Type: nn.Conv, K: k, Cout: 4 << r.Intn(4), Act: nn.ReLU}
		oh, ow := h-k+1, w-k+1
		if r.Intn(2) == 0 && oh >= 4 && ow >= 4 {
			l.Pool = 2
			oh, ow = oh/2, ow/2
		}
		h, w = oh, ow
		m.Layers = append(m.Layers, l)
	}
	nFC := 1 + r.Intn(3)
	for i := 0; i < nFC; i++ {
		m.Layers = append(m.Layers, nn.FCLayer("f", 8<<r.Intn(6)))
	}
	return m
}

// TestRandomModelsInvariants fuzzes the partition pipeline over many
// random networks, checking the load-bearing invariants:
//  1. Algorithm 1 matches exhaustive single-level search;
//  2. Hierarchical's totals equal the reference evaluator's replay;
//  3. HyPar never communicates more than either uniform baseline;
//  4. per-pair volumes never grow while descending the hierarchy.
func TestRandomModelsInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(20260612))
	batches := []int{2, 16, 64, 256}
	for trial := 0; trial < 60; trial++ {
		m := randomModel(r, trial)
		batch := batches[r.Intn(len(batches))]
		levels := 1 + r.Intn(4)

		shapes, err := m.Shapes(batch)
		if err != nil {
			t.Fatalf("trial %d (%v): shapes: %v", trial, m, err)
		}

		// (1) Algorithm 1 optimality on the unsharded level.
		amounts := make([]comm.LayerAmounts, len(shapes))
		for i := range shapes {
			amounts[i] = comm.Amounts(&shapes[i], tensor.Shard{})
		}
		got, assign := twoWayWith(amounts, unitCosts)
		nl := len(shapes)
		if nl <= 12 {
			best := math.Inf(1)
			a := make(Assignment, nl)
			for code := 0; code < 1<<uint(nl); code++ {
				for b := 0; b < nl; b++ {
					a[b] = comm.DP
					if code&(1<<uint(b)) != 0 {
						a[b] = comm.MP
					}
				}
				if c := assignmentCost(amounts, a); c < best {
					best = c
				}
			}
			if math.Abs(best-got) > 1e-6*math.Max(1, best) {
				t.Errorf("trial %d: TwoWay %g != brute force %g (assign %v)",
					trial, got, best, assign)
			}
		}

		// (2) Hierarchical agrees with its own replay.
		hp := mustHier(t, m, batch, levels)
		replay, err := Evaluate(m, batch, hp.Levels, unit(levels))
		if err != nil {
			t.Fatalf("trial %d: evaluate: %v", trial, err)
		}
		if math.Abs(hp.TotalElems-replay.TotalElems) > 1e-6*math.Max(1, hp.TotalElems) {
			t.Errorf("trial %d: hierarchical %g != replay %g", trial, hp.TotalElems, replay.TotalElems)
		}

		// (3) Never worse than the uniform baselines.
		dp := mustDP(t, m, batch, levels)
		mp := mustMP(t, m, batch, levels)
		if hp.TotalElems > dp.TotalElems*(1+1e-9) || hp.TotalElems > mp.TotalElems*(1+1e-9) {
			t.Errorf("trial %d: HyPar %g vs dp %g mp %g", trial, hp.TotalElems, dp.TotalElems, mp.TotalElems)
		}

		// (4) Per-pair monotonicity down the hierarchy.
		prev := math.Inf(1)
		for h := range hp.Details {
			pp := hp.PerPairElems(h)
			if pp > prev*(1+1e-9) {
				t.Errorf("trial %d: level %d per-pair %g grew from %g", trial, h, pp, prev)
			}
			prev = pp
		}
	}
}

// TestRandomPlansSimulable: random hierarchical plans must always
// produce valid (cycle-free, non-negative) schedules — exercised here
// indirectly through full evaluation; the sim package has its own
// randomized test.
func TestRandomAssignmentsEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := nn.AlexNet()
	for trial := 0; trial < 40; trial++ {
		levels := make([]Assignment, 4)
		for h := range levels {
			levels[h] = make(Assignment, len(m.Layers))
			for l := range levels[h] {
				if r.Intn(2) == 1 {
					levels[h][l] = comm.MP
				}
			}
		}
		p, err := Evaluate(m, 64, levels, unit(4))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if p.TotalElems < 0 || math.IsNaN(p.TotalElems) {
			t.Errorf("trial %d: total %g", trial, p.TotalElems)
		}
		for h := range p.Details {
			if p.PerPairElems(h) < 0 {
				t.Errorf("trial %d level %d: negative per-pair volume", trial, h)
			}
		}
	}
}
