package partition

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// beamGapBound is the pinned worst-case optimality gap of the
// default-width beam on the 250-DAG oracle set (relative to the exact
// frontier DP's minimum). TestBeamGapOnOracleDAGs fails if a regression
// pushes the beam past it.
const beamGapBound = 0.05

// oracleAmounts computes the unsharded per-layer amounts the oracle
// suite scores single-level searches on.
func oracleAmounts(t *testing.T, m *nn.Model, batch int) ([]comm.LayerAmounts, [][]int) {
	t.Helper()
	preds, err := m.LayerPreds()
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := m.Shapes(batch)
	if err != nil {
		t.Fatal(err)
	}
	amounts := make([]comm.LayerAmounts, len(shapes))
	var sh tensor.Shard
	for l := range shapes {
		amounts[l] = comm.Amounts(&shapes[l], sh)
	}
	return amounts, preds
}

// TestBeamExactOnChains: chains dispatch to the exact O(L) recurrence,
// so the beam's gap is structurally zero on every chain model — cost
// and assignment both.
func TestBeamExactOnChains(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	models := []*nn.Model{nn.AlexNet(), cancelChain(9)}
	for trial := 0; trial < 25; trial++ {
		models = append(models, oracleRandomModel(r, 4000+trial))
	}
	for _, m := range models {
		amounts, preds := oracleAmounts(t, m, 16)
		wantCost, wantA := twoWayWith(amounts, unitCosts)
		gotCost, gotA, err := beamTwoWayWith(nil, amounts, preds, unitCosts, 1)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if gotCost != wantCost || !reflect.DeepEqual(gotA, wantA) {
			t.Errorf("%s: beam (cost %g) != chain DP (cost %g)", m.Name, gotCost, wantCost)
		}
	}
}

// TestBeamGapOnOracleDAGs runs the beam over the same 250 random DAGs
// the exact DP's exhaustive oracle uses: the default width's gap stays
// within the pinned bound, a frontier-covering width is exactly
// optimal, and every reported cost equals its assignment's true cost.
func TestBeamGapOnOracleDAGs(t *testing.T) {
	r := rand.New(rand.NewSource(7)) // same seed as the exhaustive oracle
	worst := 0.0
	for trial := 0; trial < 250; trial++ {
		m := oracleRandomDAG(r, trial)
		batch := 1 << uint(r.Intn(4))
		amounts, preds := oracleAmounts(t, m, batch)

		exact, _, err := twoWayGraphWith(nil, amounts, preds, unitCosts)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, m.Name, err)
		}

		got, assign, err := beamTwoWayWith(nil, amounts, preds, unitCosts, DefaultBeamWidth)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, m.Name, err)
		}
		if ac := assignmentCostGraph(amounts, preds, assign); !almostEq(ac, got) {
			t.Errorf("trial %d (%s): beam assignment costs %g, beam claims %g", trial, m.Name, ac, got)
		}
		if got < exact && !almostEq(got, exact) {
			t.Errorf("trial %d (%s): beam %g beat the exact DP %g — impossible", trial, m.Name, got, exact)
		}
		if exact > 0 {
			if gap := (got - exact) / exact; gap > worst {
				worst = gap
			}
		}

		// A width covering every distinct frontier state makes the beam
		// the exact DP with a different tiebreak: costs must agree.
		wide, _, err := beamTwoWayWith(nil, amounts, preds, unitCosts, 1<<uint(FrontierWidth(preds)))
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, m.Name, err)
		}
		if !almostEq(wide, exact) {
			t.Errorf("trial %d (%s): frontier-covering beam %g != exact %g", trial, m.Name, wide, exact)
		}
	}
	t.Logf("worst default-width beam gap over 250 DAGs: %.4f%%", 100*worst)
	if worst > beamGapBound {
		t.Errorf("worst beam gap %.4f exceeds pinned bound %.4f", worst, beamGapBound)
	}
}

// TestBeamSolvesWideDAG is the acceptance pin for the beam's purpose:
// a frontier-width-18 DAG the exact DP refuses under its cap
// (maxGraphFrontier = 16) plans fine under Method beam, at every level
// of the hierarchy.
func TestBeamSolvesWideDAG(t *testing.T) {
	wide := cancelFork(18)
	preds, err := wide.LayerPreds()
	if err != nil {
		t.Fatal(err)
	}
	if w := FrontierWidth(preds); w < 16 {
		t.Fatalf("fork frontier = %d, want >= 16", w)
	}
	unit := []Weights{UnitWeights(), UnitWeights()}
	if _, err := Solve(Request{Model: wide, Batch: 8, Levels: unit}); !errors.Is(err, ErrTooWide) || !errors.Is(err, ErrPlan) {
		t.Fatalf("exact solve = %v, want ErrTooWide wrapping ErrPlan", err)
	}
	plan, err := Solve(Request{Model: wide, Batch: 8, Levels: unit, Method: MethodBeam})
	if err != nil {
		t.Fatalf("beam solve: %v", err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.NumLevels() != 2 || plan.TotalElems <= 0 {
		t.Fatalf("beam plan: levels %d, total %g", plan.NumLevels(), plan.TotalElems)
	}

	// Determinism: same request, same plan, bit for bit.
	again, err := Solve(Request{Model: wide, Batch: 8, Levels: unit, Method: MethodBeam})
	if err != nil {
		t.Fatal(err)
	}
	if !plansAgree(plan, again) {
		t.Error("beam solve is not deterministic")
	}

	// The beam stays cancelable even where the exact DP never ran.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(Request{Model: wide, Batch: 8, Levels: unit, Method: MethodBeam, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled beam solve = %v, want context.Canceled", err)
	}
}

// TestBeamWidthOrdering: widening the beam never worsens the objective
// (the kept set at width w is a subset of the kept set at width w+k).
func TestBeamWidthOrdering(t *testing.T) {
	m := cancelFork(6)
	amounts, preds := oracleAmounts(t, m, 16)
	prev := 0.0
	for i, width := range []int{1, 2, 8, 64} {
		cost, _, err := beamTwoWayWith(nil, amounts, preds, unitCosts, width)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && cost > prev {
			t.Errorf("width %d cost %g worse than narrower beam %g", width, cost, prev)
		}
		prev = cost
	}
	exact, _, err := twoWayGraphWith(nil, amounts, preds, unitCosts)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(prev, exact) {
		t.Errorf("width-64 beam %g != exact %g on a width-6 fork", prev, exact)
	}
}
