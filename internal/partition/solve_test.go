package partition

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// plansAgree compares the exported content of two plans exactly.
// (reflect.DeepEqual on whole plans would also compare the unexported
// warm-start fingerprints, which legitimately differ across methods.)
func plansAgree(a, b *Plan) bool {
	return a.Model == b.Model && a.Batch == b.Batch &&
		reflect.DeepEqual(a.Levels, b.Levels) &&
		reflect.DeepEqual(a.Edges, b.Edges) &&
		reflect.DeepEqual(a.Details, b.Details) &&
		a.TotalElems == b.TotalElems
}

func TestParseMethod(t *testing.T) {
	for name, want := range map[string]Method{
		"": MethodHierarchical, "hierarchical": MethodHierarchical, "graph": MethodHierarchical,
		"Brute": MethodBrute, "BEAM": MethodBeam,
	} {
		got, err := ParseMethod(name)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseMethod("quantum"); !errors.Is(err, ErrPlan) {
		t.Errorf("ParseMethod(quantum) = %v, want ErrPlan", err)
	}
	for m, s := range map[Method]string{MethodHierarchical: "hierarchical", MethodBrute: "brute", MethodBeam: "beam"} {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
}

func TestSolveValidation(t *testing.T) {
	m := cancelChain(3)
	unit := []Weights{UnitWeights()}
	for name, req := range map[string]Request{
		"nil model":         {Batch: 8, Levels: unit},
		"negative width":    {Model: m, Batch: 8, Levels: unit, Method: MethodBeam, BeamWidth: -2},
		"bad weights":       {Model: m, Batch: 8, Levels: []Weights{{Grad: -1, Psum: 1, Convert: 1}}},
		"unknown method":    {Model: m, Batch: 8, Levels: unit, Method: Method(99)},
		"unknown objective": {Model: m, Batch: 8, Levels: unit, Objective: Objective(7)},
	} {
		if _, err := Solve(req); !errors.Is(err, ErrPlan) {
			t.Errorf("Solve(%s) = %v, want ErrPlan", name, err)
		}
	}
}

// TestWarmStartReusesLevels: a warm solve whose inputs are unchanged
// reuses every level and evaluates zero new DP cells; a sweep that
// mutates one dimension recomputes strictly fewer cells than a cold
// solve while returning the byte-identical plan.
func TestWarmStartReusesLevels(t *testing.T) {
	m := oracleRandomDAG(rand.New(rand.NewSource(42)), 0)
	perLevel := []Weights{UnitWeights(), UnitWeights(), UnitWeights(), UnitWeights()}
	req := Request{Model: m, Batch: 32, Levels: perLevel}

	cells := func(f func()) int64 {
		before := DPCells()
		f()
		return DPCells() - before
	}

	var cold, warm *Plan
	var err error
	coldCells := cells(func() { cold, err = Solve(req) })
	if err != nil {
		t.Fatal(err)
	}
	if coldCells <= 0 {
		t.Fatalf("cold solve evaluated %d DP cells, want > 0", coldCells)
	}

	// Unchanged inputs: full reuse, zero DP work.
	warmReq := req
	warmReq.Warm = cold
	warmCells := cells(func() { warm, err = Solve(warmReq) })
	if err != nil {
		t.Fatal(err)
	}
	if warmCells != 0 {
		t.Errorf("identical warm solve evaluated %d DP cells, want 0", warmCells)
	}
	if !plansAgree(warm, cold) {
		t.Error("warm plan differs from cold plan")
	}

	// One-dimension sweep: mutate only level 2's weights. Levels 0 and 1
	// see identical inputs and must be reused; the changed level (and any
	// level whose shard history diverges) recomputes. Strictly fewer
	// cells than the equivalent cold solve, same plan.
	swept := []Weights{UnitWeights(), UnitWeights(), {Grad: 2, Psum: 1, Convert: 1}, UnitWeights()}
	sweepReq := Request{Model: m, Batch: 32, Levels: swept, Warm: cold}
	var sweptWarm *Plan
	sweptWarmCells := cells(func() { sweptWarm, err = Solve(sweepReq) })
	if err != nil {
		t.Fatal(err)
	}
	sweepCold := sweepReq
	sweepCold.Warm = nil
	var sweptCold *Plan
	sweptColdCells := cells(func() { sweptCold, err = Solve(sweepCold) })
	if err != nil {
		t.Fatal(err)
	}
	if sweptWarmCells >= sweptColdCells {
		t.Errorf("warm sweep evaluated %d DP cells, cold %d: want strictly fewer", sweptWarmCells, sweptColdCells)
	}
	if !plansAgree(sweptWarm, sweptCold) {
		t.Error("warm sweep plan differs from cold sweep plan")
	}

	// A different batch changes every level's amounts: no level may be
	// wrongly reused (the plan must equal its cold counterpart).
	batchReq := Request{Model: m, Batch: 64, Levels: perLevel, Warm: cold}
	warmBatch, err := Solve(batchReq)
	if err != nil {
		t.Fatal(err)
	}
	coldBatch, err := Solve(Request{Model: m, Batch: 64, Levels: perLevel})
	if err != nil {
		t.Fatal(err)
	}
	if !plansAgree(warmBatch, coldBatch) {
		t.Error("batch-changed warm plan differs from cold plan")
	}
}

// TestWarmStartIgnoresForeignPlans: plans built outside Solve carry no
// fingerprints and must warm nothing (no panic, no wrong reuse).
func TestWarmStartIgnoresForeignPlans(t *testing.T) {
	m := cancelChain(4)
	unit := []Weights{UnitWeights(), UnitWeights()}
	foreign, err := Solve(Request{Model: m, Batch: 8, Levels: unit, Method: MethodBrute}) // brute plans have no levelKeys
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(Request{Model: m, Batch: 8, Levels: unit})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(Request{Model: m, Batch: 8, Levels: unit, Warm: foreign})
	if err != nil {
		t.Fatal(err)
	}
	if !plansAgree(warm, cold) {
		t.Error("foreign warm hint changed the plan")
	}
}

// TestWarmStartMethodMismatch: a beam plan must not warm an exact solve
// (and vice versa) — the method is part of the fingerprint seed.
func TestWarmStartMethodMismatch(t *testing.T) {
	m := cancelFork(3)
	unit := []Weights{UnitWeights(), UnitWeights()}
	exact, err := Solve(Request{Model: m, Batch: 8, Levels: unit})
	if err != nil {
		t.Fatal(err)
	}
	before := DPCells()
	if _, err := Solve(Request{Model: m, Batch: 8, Levels: unit, Method: MethodBeam, Warm: exact}); err != nil {
		t.Fatal(err)
	}
	if DPCells() == before {
		t.Error("beam solve reused exact-DP levels: method must invalidate the fingerprint")
	}
}

// TestDPCellsCounts pins the counter's unit on the chain recurrence:
// two cells per layer per level.
func TestDPCellsCounts(t *testing.T) {
	m := cancelChain(6)
	before := DPCells()
	mustHier(t, m, 8, 3)
	if got, want := DPCells()-before, int64(3*2*6); got != want {
		t.Errorf("DPCells delta = %d, want %d (3 levels x 2 choices x 6 layers)", got, want)
	}
}
