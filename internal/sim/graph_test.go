package sim

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/partition"
)

// TestSimulateBranchedModels runs one training step of every branched
// zoo network under its HyPar plan: the DAG task graph must schedule
// (no cycles), produce positive times, and carry the plan's full
// communication volume.
func TestSimulateBranchedModels(t *testing.T) {
	arch, err := defaultArch(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range nn.BranchedZoo() {
		plan, err := solve(m, 64, unit(4))
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		stats, err := Simulate(m, plan, arch)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if stats.StepSeconds <= 0 || stats.ComputeSeconds <= 0 {
			t.Errorf("%s: non-positive times %+v", m.Name, stats)
		}
		if stats.CommBytes != plan.TotalBytes(arch.DType) {
			t.Errorf("%s: comm bytes %g, plan says %g", m.Name, stats.CommBytes, plan.TotalBytes(arch.DType))
		}
		if stats.Tasks == 0 {
			t.Errorf("%s: empty task graph", m.Name)
		}
	}
}

// TestBranchedSkipTransfersScheduled forces a plan whose fork edges
// disagree (producer mp, consumers dp at H1) and checks the simulator
// actually schedules the per-edge E conversions: the traced task list
// must contain one bwd-conv per incoming edge of the join layer.
func TestBranchedSkipTransfersScheduled(t *testing.T) {
	m := nn.Incep2()
	_, g, err := m.Derive(8)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges
	// stem(0) mp; branches(1,2) dp — both fork edges are mp-dp
	// transitions charging 0.5·A(E) each.
	assign := partition.Assignment{comm.MP, comm.DP, comm.DP, comm.DP, comm.DP, comm.DP}
	plan, err := partition.Evaluate(m, 8, []partition.Assignment{assign}, unit(1))
	if err != nil {
		t.Fatal(err)
	}
	forkEdges := 0
	for e, ed := range edges {
		if ed.Src == 0 {
			forkEdges++
			if plan.Details[0].InterE[e] == 0 {
				t.Errorf("fork edge %v has zero E conversion", ed)
			}
		}
	}
	if forkEdges != 2 {
		t.Fatalf("stem has %d fork edges, want 2", forkEdges)
	}
	arch, err := defaultArch(1)
	if err != nil {
		t.Fatal(err)
	}
	arch.CollectTrace = true
	stats, err := Simulate(m, plan, arch)
	if err != nil {
		t.Fatal(err)
	}
	// Per-edge names keep the fork's two conversion chains apart.
	seen := map[string]int{}
	for _, r := range stats.Trace {
		if strings.HasPrefix(r.Name, "bwd-conv/stem->") {
			seen[r.Name]++
		}
	}
	if len(seen) != 2 || seen["bwd-conv/stem->b1x1@H1"] != 1 || seen["bwd-conv/stem->b3x3@H1"] != 1 {
		t.Errorf("skip E conversion tasks = %v, want one per fork edge", seen)
	}
}

// TestBranchedDeterministic pins schedule determinism for DAGs: two
// fresh simulations of the same branched plan agree exactly.
func TestBranchedDeterministic(t *testing.T) {
	m := nn.SRES8()
	plan, err := solve(m, 32, unit(3))
	if err != nil {
		t.Fatal(err)
	}
	arch, err := defaultArch(3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Simulate(m, plan, arch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSimulator().Simulate(m, plan, arch)
	if err != nil {
		t.Fatal(err)
	}
	if a.StepSeconds != b.StepSeconds || a.EnergyTotal() != b.EnergyTotal() || a.Tasks != b.Tasks {
		t.Errorf("branched simulation is not deterministic: %+v vs %+v", a, b)
	}
}
