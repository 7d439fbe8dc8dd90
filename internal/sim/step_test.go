package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/hmc"
	"repro/internal/nn"
	"repro/internal/noc"
	"repro/internal/partition"
	"repro/internal/pe"
	"repro/internal/platform"
	"repro/internal/tensor"
)

// newArch is how sim's tests build an Arch, the way hypar.BuildArch
// does: the named platforms, root cut first, on the assignment's topo
// fabric at linkMbps (0: each level's native rate), with the node
// platform's compute and memory and each level's link energy model.
func newArch(names []string, topo string, linkMbps float64, dt tensor.DType) (Arch, error) {
	per := make([]platform.Platform, len(names))
	for h, n := range names {
		p, err := platform.ByName(n)
		if err != nil {
			return Arch{}, err
		}
		per[h] = p
	}
	a, err := platform.NewAssignment(per)
	if err != nil {
		return Arch{}, err
	}
	nt, err := a.NewTopology(topo, linkMbps)
	if err != nil {
		return Arch{}, err
	}
	return Arch{Mem: a.Node().Memory(), Comp: a.Node().Compute(), NoC: nt, DType: dt, LevelMems: a.LevelMemories()}, nil
}

// uniform names platform p at each of levels levels (none below zero).
func uniform(p string, levels int) []string {
	return slices.Repeat([]string{p}, max(levels, 0))
}

// defaultArch returns the paper's evaluation platform: 2^levels
// HMC-based accelerators on an H-tree with 1600 Mb/s links.
func defaultArch(levels int) (Arch, error) {
	return newArch(uniform("hmc", levels), "htree", 1600, tensor.Float32)
}

func arch4(t *testing.T) Arch {
	t.Helper()
	a, err := defaultArch(4)
	if err != nil {
		t.Fatalf("defaultArch: %v", err)
	}
	return a
}

func simulate(t *testing.T, m *nn.Model, plan *partition.Plan, a Arch) *Stats {
	t.Helper()
	s, err := Simulate(m, plan, a)
	if err != nil {
		t.Fatalf("Simulate(%s): %v", m.Name, err)
	}
	return s
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

// solve runs partition.Solve's default search in the baselines' shape.
func solve(m *nn.Model, batch int, ws []partition.Weights) (*partition.Plan, error) {
	return partition.Solve(partition.Request{Model: m, Batch: batch, Levels: ws})
}

func hyparPlan(t testing.TB, m *nn.Model, batch, levels int) *partition.Plan {
	t.Helper()
	p, err := solve(m, batch, unit(levels))
	if err != nil {
		t.Fatalf("Solve(%s): %v", m.Name, err)
	}
	return p
}

func dpPlan(t *testing.T, m *nn.Model, batch, levels int) *partition.Plan {
	t.Helper()
	p, err := partition.DataParallel(m, batch, unit(levels))
	if err != nil {
		t.Fatalf("DataParallel(%s): %v", m.Name, err)
	}
	return p
}

func mpPlan(t *testing.T, m *nn.Model, batch, levels int) *partition.Plan {
	t.Helper()
	p, err := partition.ModelParallel(m, batch, unit(levels))
	if err != nil {
		t.Fatalf("ModelParallel(%s): %v", m.Name, err)
	}
	return p
}

func TestSimulateBasicSanity(t *testing.T) {
	a := arch4(t)
	for _, m := range nn.Zoo() {
		plan := hyparPlan(t, m, 256, 4)
		s := simulate(t, m, plan, a)
		if s.StepSeconds <= 0 {
			t.Errorf("%s: step time %g", m.Name, s.StepSeconds)
		}
		if s.ComputeSeconds <= 0 || s.ComputeSeconds > s.StepSeconds {
			t.Errorf("%s: compute busy %g outside (0, %g]", m.Name, s.ComputeSeconds, s.StepSeconds)
		}
		for h, c := range s.CommSeconds {
			if c < 0 || c > s.StepSeconds {
				t.Errorf("%s: level %d comm busy %g outside [0, %g]", m.Name, h, c, s.StepSeconds)
			}
		}
		if s.EnergyTotal() <= 0 {
			t.Errorf("%s: energy %g", m.Name, s.EnergyTotal())
		}
		if s.EnergyCompute <= 0 || s.EnergySRAM <= 0 || s.EnergyDRAM <= 0 {
			t.Errorf("%s: energy breakdown %+v", m.Name, s)
		}
		if s.CommBytes != plan.TotalBytes(tensor.Float32) {
			t.Errorf("%s: comm bytes %g != plan %g", m.Name, s.CommBytes, plan.TotalBytes(tensor.Float32))
		}
		if s.DRAMBytes <= 0 {
			t.Errorf("%s: dram bytes %g", m.Name, s.DRAMBytes)
		}
		if s.Tasks <= 0 {
			t.Errorf("%s: no tasks", m.Name)
		}
	}
}

// TestHyParFasterThanDP: Figure 6's headline — HyPar outperforms the
// default Data Parallelism on the large conv networks.
func TestHyParFasterThanDP(t *testing.T) {
	a := arch4(t)
	for _, name := range []string{"AlexNet", "VGG-A", "VGG-E", "Lenet-c", "Cifar-c"} {
		m, err := nn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		hp := simulate(t, m, hyparPlan(t, m, 256, 4), a)
		dp := simulate(t, m, dpPlan(t, m, 256, 4), a)
		if hp.StepSeconds >= dp.StepSeconds {
			t.Errorf("%s: HyPar %g s not faster than DP %g s", name, hp.StepSeconds, dp.StepSeconds)
		}
	}
}

// TestMPWorstOnConvNets: Figure 6 — Model Parallelism is almost always
// the worst choice; on conv-heavy networks it must trail DP.
func TestMPWorstOnConvNets(t *testing.T) {
	a := arch4(t)
	for _, name := range []string{"SCONV", "AlexNet", "VGG-A", "VGG-E"} {
		m, err := nn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		dp := simulate(t, m, dpPlan(t, m, 256, 4), a)
		mp := simulate(t, m, mpPlan(t, m, 256, 4), a)
		if mp.StepSeconds <= dp.StepSeconds {
			t.Errorf("%s: MP %g s not slower than DP %g s", name, mp.StepSeconds, dp.StepSeconds)
		}
	}
}

// TestSFCInversion: Figure 6 — on the all-fc extreme case Model
// Parallelism beats Data Parallelism, and HyPar beats both.
func TestSFCInversion(t *testing.T) {
	a := arch4(t)
	m := nn.SFC()
	dp := simulate(t, m, dpPlan(t, m, 256, 4), a)
	mp := simulate(t, m, mpPlan(t, m, 256, 4), a)
	hp := simulate(t, m, hyparPlan(t, m, 256, 4), a)
	if mp.StepSeconds >= dp.StepSeconds {
		t.Errorf("SFC: MP %g s should beat DP %g s", mp.StepSeconds, dp.StepSeconds)
	}
	if hp.StepSeconds > mp.StepSeconds*(1+1e-9) {
		t.Errorf("SFC: HyPar %g s should not trail MP %g s", hp.StepSeconds, mp.StepSeconds)
	}
}

// TestSCONVEqualsDP: Figure 6 — on the all-conv extreme case HyPar
// picks Data Parallelism and performs identically.
func TestSCONVEqualsDP(t *testing.T) {
	a := arch4(t)
	m := nn.SCONV()
	dp := simulate(t, m, dpPlan(t, m, 256, 4), a)
	hp := simulate(t, m, hyparPlan(t, m, 256, 4), a)
	if diff := hp.StepSeconds - dp.StepSeconds; diff > 1e-12 {
		t.Errorf("SCONV: HyPar %g s != DP %g s", hp.StepSeconds, dp.StepSeconds)
	}
}

// TestEnergyOrdering: Figure 7 — HyPar consumes no more energy than DP,
// which consumes less than MP, on conv networks.
func TestEnergyOrdering(t *testing.T) {
	a := arch4(t)
	m := nn.VGGA()
	hp := simulate(t, m, hyparPlan(t, m, 256, 4), a)
	dp := simulate(t, m, dpPlan(t, m, 256, 4), a)
	mp := simulate(t, m, mpPlan(t, m, 256, 4), a)
	if hp.EnergyTotal() > dp.EnergyTotal() {
		t.Errorf("VGG-A: HyPar energy %g > DP %g", hp.EnergyTotal(), dp.EnergyTotal())
	}
	if dp.EnergyTotal() > mp.EnergyTotal() {
		t.Errorf("VGG-A: DP energy %g > MP %g", dp.EnergyTotal(), mp.EnergyTotal())
	}
}

// TestIdealNoCRemovesCommTime: with an infinite-bandwidth fabric the
// step collapses to its compute critical path, and all plans tie.
func TestIdealNoCRemovesCommTime(t *testing.T) {
	a := arch4(t)
	a.NoC = noc.NewIdeal(4)
	m := nn.VGGA()
	hp := simulate(t, m, hyparPlan(t, m, 256, 4), a)
	dp := simulate(t, m, dpPlan(t, m, 256, 4), a)
	if hp.TotalCommSeconds() != 0 || dp.TotalCommSeconds() != 0 {
		t.Errorf("ideal NoC has comm time: hp=%g dp=%g", hp.TotalCommSeconds(), dp.TotalCommSeconds())
	}
	rel := (dp.StepSeconds - hp.StepSeconds) / dp.StepSeconds
	if rel > 0.01 || rel < -0.01 {
		t.Errorf("ideal NoC: HyPar %g s vs DP %g s should be within 1%%", hp.StepSeconds, dp.StepSeconds)
	}
}

// TestTorusSlower: Figure 12 — the torus topology never beats the
// H-tree for HyPar's partitions.
func TestTorusSlower(t *testing.T) {
	aH := arch4(t)
	aT := arch4(t)
	tor, err := noc.NewTorus(4, 1600)
	if err != nil {
		t.Fatalf("NewTorus: %v", err)
	}
	aT.NoC = tor
	for _, name := range []string{"VGG-A", "AlexNet", "Lenet-c"} {
		m, err := nn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plan := hyparPlan(t, m, 256, 4)
		sh := simulate(t, m, plan, aH)
		st := simulate(t, m, plan, aT)
		if st.StepSeconds < sh.StepSeconds {
			t.Errorf("%s: torus %g s beats htree %g s", name, st.StepSeconds, sh.StepSeconds)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	a := arch4(t)
	m := nn.LenetC()
	plan := hyparPlan(t, m, 256, 4)

	// Mismatched plan and model.
	other := nn.SFC()
	if _, err := Simulate(other, plan, a); err == nil {
		t.Error("mismatched plan accepted")
	}
	// Topology shallower than the plan.
	shallow, _ := noc.NewHTree(2, 1600)
	bad := a
	bad.NoC = shallow
	if _, err := Simulate(m, plan, bad); !errors.Is(err, ErrSim) {
		t.Errorf("shallow topology accepted: %v", err)
	}
	// Nil topology.
	bad2 := a
	bad2.NoC = nil
	if _, err := Simulate(m, plan, bad2); !errors.Is(err, ErrSim) {
		t.Errorf("nil topology accepted: %v", err)
	}
	// Structurally invalid (ragged) plan.
	ragged := &partition.Plan{Batch: 256, Levels: []partition.Assignment{
		make(partition.Assignment, 4), make(partition.Assignment, 3),
	}}
	if _, err := Simulate(m, ragged, a); err == nil {
		t.Error("ragged plan accepted")
	}
	// A zero-level plan is a valid single-accelerator run.
	single := &partition.Plan{Model: m.Name, Batch: 256}
	if s, err := Simulate(m, single, a); err != nil || s.StepSeconds <= 0 {
		t.Errorf("single-accelerator plan rejected: %v", err)
	}
	// Invalid compute model.
	badPE := pe.Default()
	badPE.GOPS = 0
	bad3 := a
	bad3.Comp = badPE
	if _, err := Simulate(m, plan, bad3); err == nil {
		t.Error("invalid compute model accepted")
	}
	// Invalid memory model.
	badHMC := hmc.Default()
	badHMC.BandwidthGBs = 0
	bad4 := a
	bad4.Mem = badHMC
	if _, err := Simulate(m, plan, bad4); err == nil {
		t.Error("invalid memory model accepted")
	}
	// Nil cost models.
	bad5 := a
	bad5.Comp = nil
	if _, err := Simulate(m, plan, bad5); !errors.Is(err, ErrSim) {
		t.Errorf("nil compute model accepted: %v", err)
	}
	bad6 := a
	bad6.Mem = nil
	if _, err := Simulate(m, plan, bad6); !errors.Is(err, ErrSim) {
		t.Errorf("nil memory model accepted: %v", err)
	}
	// Per-level memory models must cover the plan's levels.
	for _, mems := range [][]platform.Memory{nil, {}, {a.Mem, a.Mem, a.Mem}} {
		bad7 := a
		bad7.LevelMems = mems
		want := fmt.Sprintf("%d per-level memory models, plan needs 4", len(mems))
		if _, err := Simulate(m, plan, bad7); !errors.Is(err, ErrSim) || !strings.Contains(err.Error(), want) {
			t.Errorf("%d per-level memory models: err %v, want %q", len(mems), err, want)
		}
	}
}

func TestDefaultArchBadLevels(t *testing.T) {
	if _, err := defaultArch(-1); err == nil {
		t.Error("negative levels accepted")
	}
}

// TestGradientOverlapAblation: enabling OverlapGradComm can only
// shorten the step (it relaxes ordering constraints), and on gradient-
// heavy DP plans it must hide a meaningful share of the exchanges.
func TestGradientOverlapAblation(t *testing.T) {
	serialArch := arch4(t)
	overlapArch := arch4(t)
	overlapArch.OverlapGradComm = true
	m := nn.VGGA()
	plan := dpPlan(t, m, 256, 4)
	serial := simulate(t, m, plan, serialArch)
	overlap := simulate(t, m, plan, overlapArch)
	if overlap.StepSeconds > serial.StepSeconds*(1+1e-9) {
		t.Errorf("overlap %g s slower than serial %g s", overlap.StepSeconds, serial.StepSeconds)
	}
	if overlap.StepSeconds > serial.StepSeconds*0.95 {
		t.Errorf("overlap hides <5%% on DP VGG-A: %g vs %g", overlap.StepSeconds, serial.StepSeconds)
	}
	// In the serial schedule the step is at least compute plus the
	// gradient exchanges that sit on the critical path.
	if serial.StepSeconds < serial.ComputeSeconds {
		t.Errorf("step %g < compute busy %g", serial.StepSeconds, serial.ComputeSeconds)
	}
}
