package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/partition"
)

// wiringPlans returns the HyPar, DP and a seeded random plan for m.
func wiringPlans(t *testing.T, m *nn.Model, r *rand.Rand) map[string]*partition.Plan {
	t.Helper()
	hy, err := solve(m, 64, unit(4))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := partition.DataParallel(m, 64, unit(4))
	if err != nil {
		t.Fatal(err)
	}
	levels := make([]partition.Assignment, 4)
	for h := range levels {
		levels[h] = make(partition.Assignment, len(m.Layers))
		for l := range levels[h] {
			if r.Intn(2) == 1 {
				levels[h][l] = comm.MP
			}
		}
	}
	rnd, err := partition.Evaluate(m, 64, levels, unit(len(levels)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*partition.Plan{"hypar": hy, "dp": dp, "random": rnd}
}

// TestSimulatorReuseAcrossModels feeds one Simulator models A, B, A —
// a chain and two branched networks, each under several plans — so its
// phase-cost table is refilled as the model changes, each model's
// graph read from its own memo; every result must deep-equal a fresh
// one-shot Simulate.
func TestSimulatorReuseAcrossModels(t *testing.T) {
	arch, err := defaultArch(4)
	if err != nil {
		t.Fatal(err)
	}
	chain, incep, sres := nn.VGGA(), nn.Incep2(), nn.SRES8()
	r := rand.New(rand.NewSource(5))
	s := NewSimulator()
	for _, m := range []*nn.Model{chain, incep, chain, sres, incep, sres, chain} {
		for name, plan := range wiringPlans(t, m, r) {
			want, err := Simulate(m, plan, arch)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				got, err := s.Simulate(m, plan, arch)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s (rep %d): reused Simulator stats differ:\n got %+v\nwant %+v", m.Name, name, rep, got, want)
				}
			}
		}
	}
}

// TestSimulatorReusePermutedEdges checks the plans that miss the
// graph's canonical edge order: a permuted Edges list (with its
// per-edge volumes permuted alongside) simulates to the same Stats,
// and a plan carrying an edge the model does not have fails with
// ErrSim right after a canonical-order step.
func TestSimulatorReusePermutedEdges(t *testing.T) {
	arch, err := defaultArch(4)
	if err != nil {
		t.Fatal(err)
	}
	m := nn.Incep2()
	plan, err := solve(m, 64, unit(4))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulator()
	want, err := s.Simulate(m, plan, arch)
	if err != nil {
		t.Fatal(err)
	}

	// Reverse the edge order and every per-edge volume with it.
	perm := *plan
	n := len(plan.Edges)
	rev := func(xs []float64) []float64 {
		out := make([]float64, n)
		for i := range xs {
			out[n-1-i] = xs[i]
		}
		return out
	}
	perm.Edges = make([]partition.Edge, n)
	for i, ed := range plan.Edges {
		perm.Edges[n-1-i] = ed
	}
	perm.Details = make([]partition.LevelDetail, len(plan.Details))
	for h, d := range plan.Details {
		d.InterF, d.InterE = rev(d.InterF), rev(d.InterE)
		perm.Details[h] = d
	}
	got, err := s.Simulate(m, &perm, arch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("permuted edges: stats differ:\n got %+v\nwant %+v", got, want)
	}

	foreign := perm
	foreign.Edges = append([]partition.Edge(nil), perm.Edges...)
	foreign.Edges[0] = partition.Edge{Src: 0, Dst: len(m.Layers) - 1}
	if _, err := s.Simulate(m, plan, arch); err != nil { // canonical order
		t.Fatal(err)
	}
	_, err = s.Simulate(m, &foreign, arch)
	if !errors.Is(err, ErrSim) || !strings.Contains(err.Error(), "is not an edge of model") {
		t.Errorf("foreign edge after a canonical-order step: err = %v, want the not-an-edge ErrSim", err)
	}
	short := *plan
	short.Edges = plan.Edges[:n-1]
	if _, err := s.Simulate(m, &short, arch); !errors.Is(err, ErrSim) || !strings.Contains(err.Error(), "edges, model has") {
		t.Errorf("short edge list: err = %v, want the edge-count ErrSim", err)
	}
}

// TestAllocsSimulatorSameModel bounds re-simulating one model and plan
// on a reused Simulator: the model's graph memo, the phase-cost table,
// the transfer prices, the builder's scratch and the engine's slab
// leave only the returned Stats and its CommSeconds, on the serial path
// (VGG-A, Lenet-c) and the engine path (Incep-2) alike.
func TestAllocsSimulatorSameModel(t *testing.T) {
	arch, err := defaultArch(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*nn.Model{nn.VGGA(), nn.LenetC(), nn.Incep2()} {
		plan, err := solve(m, 256, unit(4))
		if err != nil {
			t.Fatal(err)
		}
		s := NewSimulator()
		if _, err := s.Simulate(m, plan, arch); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.Simulate(m, plan, arch); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs per reused simulation", m.Name, allocs)
		if allocs > 2 {
			t.Errorf("%s: reused simulation allocates %.1f objects, want <= 2", m.Name, allocs)
		}
	}
}

// TestAllocsSimulatorAlternatingModels holds TestAllocsSimulatorSameModel's
// bound while one Simulator alternates two chain models, as a pooled
// evaluator does: each step reads its model's graph from the model's
// memo, so switching models resolves no graph and allocates only the
// returned Stats and its CommSeconds.
func TestAllocsSimulatorAlternatingModels(t *testing.T) {
	arch, err := defaultArch(4)
	if err != nil {
		t.Fatal(err)
	}
	models := []*nn.Model{nn.VGGA(), nn.LenetC()}
	plans := make([]*partition.Plan, len(models))
	for i, m := range models {
		if plans[i], err = solve(m, 256, unit(4)); err != nil {
			t.Fatal(err)
		}
	}
	s := NewSimulator()
	step := 0
	allocs := testing.AllocsPerRun(50, func() {
		i := step % len(models)
		step++
		if _, err := s.Simulate(models[i], plans[i], arch); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per step alternating %s and %s", allocs, models[0].Name, models[1].Name)
	if allocs > 2 {
		t.Errorf("alternating models allocates %.1f objects per step, want <= 2", allocs)
	}
}
