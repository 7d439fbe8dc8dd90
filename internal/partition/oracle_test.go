package partition

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/runner"
	"repro/internal/tensor"
)

// oracleRandomModel builds a random valid conv/fc stack. Conv layers use
// k=3/pad=1 so spatial dims survive any depth; pooling halves even
// dims. Shapes stay tiny — the oracle is about structure, not scale.
func oracleRandomModel(r *rand.Rand, id int) *nn.Model {
	edge := 4 + 2*r.Intn(7) // 4..16, even so pooling stays legal
	m := &nn.Model{
		Name:  fmt.Sprintf("rand-%d", id),
		Input: nn.Input{H: edge, W: edge, C: 1 + r.Intn(4)},
	}
	nConv := r.Intn(4)
	nFC := r.Intn(4)
	if nConv+nFC == 0 {
		nFC = 1
	}
	cur := edge
	for i := 0; i < nConv; i++ {
		l := nn.Layer{
			Name: fmt.Sprintf("conv%d", i), Type: nn.Conv,
			K: 3, Pad: 1, Cout: 1 + r.Intn(8), Act: nn.ReLU,
		}
		if cur%2 == 0 && cur >= 4 && r.Intn(2) == 0 {
			l.Pool = 2
			cur /= 2
		}
		m.Layers = append(m.Layers, l)
	}
	for i := 0; i < nFC; i++ {
		m.Layers = append(m.Layers, nn.FCLayer(fmt.Sprintf("fc%d", i), 1+r.Intn(64)))
	}
	return m
}

// almostEq tolerates float addition-order differences only.
func almostEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// TestTwoWayMatchesExhaustiveOracle is the Algorithm 1 guarantee on
// ~200 random models: the dynamic program's minimum equals the true
// minimum over all 2^L assignments, and its traceback achieves it.
func TestTwoWayMatchesExhaustiveOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := oracleRandomModel(r, trial)
		batch := 1 << uint(r.Intn(4)) // 1..8
		shapes, err := m.Shapes(batch)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, m.Name, err)
		}
		amounts := make([]comm.LayerAmounts, len(shapes))
		var sh tensor.Shard
		for l := range shapes {
			amounts[l] = comm.Amounts(&shapes[l], sh)
		}

		got, assign := twoWayWith(amounts, unitCosts)

		// Exhaustive oracle over every assignment.
		nl := len(amounts)
		want := math.Inf(1)
		var wantA Assignment
		for code := 0; code < 1<<uint(nl); code++ {
			a := make(Assignment, nl)
			for b := 0; b < nl; b++ {
				if code&(1<<uint(b)) != 0 {
					a[b] = comm.MP
				}
			}
			c := assignmentCost(amounts, a)
			if c < want {
				want, wantA = c, a
			}
		}

		if !almostEq(got, want) {
			t.Errorf("trial %d (%s, batch %d): TwoWay=%g oracle=%g (oracle assignment %v, dp %v)",
				trial, m.Name, batch, got, want, wantA, assign)
		}
		if ac := assignmentCost(amounts, assign); !almostEq(ac, got) {
			t.Errorf("trial %d (%s): traceback assignment costs %g, dp claims %g", trial, m.Name, ac, got)
		}
	}
}

// TestHierarchicalNeverBeatsBruteForce is the Algorithm 2 sanity bound
// on random models: the level-greedy hierarchical search can tie but
// never beat the exhaustive minimum over all hierarchical assignments.
func TestHierarchicalNeverBeatsBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pool := runner.Serial()
	trials := 0
	for id := 0; trials < 200; id++ {
		m := oracleRandomModel(r, 1000+id)
		levels := 1 + r.Intn(3) // 1..3
		if levels*len(m.Layers) > 12 {
			continue // keep the exhaustive side ≤ 2^12 plans
		}
		trials++
		batch := 1 << uint(r.Intn(4))

		hier := mustHier(t, m, batch, levels)
		bf, err := Solve(Request{Model: m, Batch: batch, Levels: unit(levels), Pool: pool, Method: MethodBrute})
		if err != nil {
			t.Fatalf("%s: brute force: %v", m.Name, err)
		}
		if hier.TotalElems < bf.TotalElems && !almostEq(hier.TotalElems, bf.TotalElems) {
			t.Errorf("%s (batch %d, levels %d): Hierarchical %g beats BruteForce %g — oracle violated",
				m.Name, batch, levels, hier.TotalElems, bf.TotalElems)
		}
	}
}
