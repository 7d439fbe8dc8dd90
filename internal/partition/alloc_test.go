package partition

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
)

// sweepInputs returns VGG-A's shapes, edges and a mixed assignment at
// the given depth: the inputs one plan is scored from.
func sweepInputs(t *testing.T, levels int) (*nn.Model, []nn.LayerShapes, []Edge, []Assignment) {
	t.Helper()
	m := nn.VGGA()
	shapes, g, err := prepare(m, 256, levels, true)
	if err != nil {
		t.Fatal(err)
	}
	as := make([]Assignment, levels)
	for h := range as {
		as[h] = make(Assignment, len(shapes))
		for l := range as[h] {
			if (h+l)%3 == 0 {
				as[h][l] = comm.MP
			}
		}
	}
	return m, shapes, g.Edges, as
}

// TestAllocsSweepPoint bounds Evaluate's scoring of one plan
// (evaluateShapes): the plan, its level list, one array for every
// level's assignment, the shard and amounts scratch, the Details list
// and one array for every level's volumes — seven allocations whatever
// the depth.
func TestAllocsSweepPoint(t *testing.T) {
	first := -1.0
	for _, levels := range []int{2, 4, 5} {
		m, shapes, edges, as := sweepInputs(t, levels)
		cs, err := levelCosts(unit(levels), ObjectiveTraining)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := evaluateShapes(m, 256, as, shapes, edges, cs); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("H=%d: %.1f allocs per evaluated plan", levels, allocs)
		if allocs > 7 {
			t.Errorf("H=%d: evaluating a plan allocates %.1f objects, want <= 7", levels, allocs)
		}
		if first < 0 {
			first = allocs
		} else if allocs > first {
			t.Errorf("H=%d: %.1f allocations, more than the %.1f at H=2", levels, allocs, first)
		}
	}
}

// TestAllocsSweepRefill gates the sweep's per-point cost: refilling a
// point into a plan the sweep filled before allocates nothing, at any
// depth.
func TestAllocsSweepRefill(t *testing.T) {
	for _, levels := range []int{2, 4, 5} {
		m, shapes, _, as := sweepInputs(t, levels)
		free := []FreeVar{{Level: 0, Layer: 0}, {Level: levels - 1, Layer: len(shapes) - 1}, {Level: 1, Layer: 3}}
		sw, err := NewSweep(m, 256, as, free, unit(levels))
		if err != nil {
			t.Fatal(err)
		}
		plan := sw.Fill(nil, 0)
		code := 0
		allocs := testing.AllocsPerRun(100, func() {
			code = (code + 1) % sw.Points()
			plan = sw.Fill(plan, code)
		})
		if allocs != 0 {
			t.Errorf("H=%d: refilling a sweep point allocates %.1f objects, want 0", levels, allocs)
		}
	}
}

// TestSweepPlanLevelsIndependent: a plan's per-level slices share
// backing arrays but are cap-limited, so an append to one level
// reallocates instead of overwriting the next, and the plan does not
// alias its input levels.
func TestSweepPlanLevelsIndependent(t *testing.T) {
	m, _, _, as := sweepInputs(t, 3)
	plan, err := Evaluate(m, 256, as, unit(3))
	if err != nil {
		t.Fatal(err)
	}
	for h, d := range plan.Details {
		for name, s := range map[string][]float64{
			"IntraFwd": d.IntraFwd, "IntraGrad": d.IntraGrad, "InterF": d.InterF, "InterE": d.InterE,
		} {
			if cap(s) != len(s) {
				t.Errorf("level %d %s: cap %d > len %d", h, name, cap(s), len(s))
			}
		}
		if a := plan.Levels[h]; cap(a) != len(a) {
			t.Errorf("level %d assignment: cap %d > len %d", h, cap(a), len(a))
		}
	}
	as[0][0] = 1 - as[0][0]
	if plan.Levels[0][0] == as[0][0] {
		t.Error("the plan aliases its input assignment")
	}
}
