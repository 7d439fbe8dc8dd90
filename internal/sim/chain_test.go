package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/pe"
	"repro/internal/platform"
	"repro/internal/tensor"
)

// statsBits lists every Stats field but Trace as exact bits, so two
// results compare equal only when they are bit-identical.
func statsBits(s *Stats) []uint64 {
	out := []uint64{
		math.Float64bits(s.StepSeconds),
		math.Float64bits(s.ComputeSeconds),
		math.Float64bits(s.EnergyCompute),
		math.Float64bits(s.EnergySRAM),
		math.Float64bits(s.EnergyDRAM),
		math.Float64bits(s.EnergyLink),
		math.Float64bits(s.CommBytes),
		math.Float64bits(s.DRAMBytes),
		math.Float64bits(s.PeakMemoryBytes),
		uint64(s.Tasks),
	}
	if s.FitsMemory {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = append(out, uint64(len(s.CommSeconds)))
	for _, c := range s.CommSeconds {
		out = append(out, math.Float64bits(c))
	}
	return out
}

// sameBits reports whether two results are bit-identical (Trace aside).
func sameBits(a, b *Stats) bool {
	x, y := statsBits(a), statsBits(b)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// archCase is one named hardware configuration of the reference tests.
type archCase struct {
	name   string
	levels int
	arch   Arch
}

// platformArch builds a single-platform Arch at its native link rate.
func platformArch(t *testing.T, name, topo string, levels int, dt tensor.DType) archCase {
	t.Helper()
	arch, err := newArch(uniform(name, levels), topo, 0, dt)
	if err != nil {
		t.Fatal(err)
	}
	return archCase{name: fmt.Sprintf("%s/%s/H%d/%d", name, topo, levels, dt.Size()), levels: levels, arch: arch}
}

// referenceArchs covers levels 1-5 on every platform and fabric, fp16
// and int8, and one heterogeneous per-level platform array.
func referenceArchs(t *testing.T) []archCase {
	t.Helper()
	var cases []archCase
	for levels := 1; levels <= 5; levels++ {
		for _, p := range []string{"hmc", "gpu-hbm", "tpu-systolic"} {
			for _, topo := range []string{"htree", "torus", "ideal"} {
				cases = append(cases, platformArch(t, p, topo, levels, tensor.Float32))
			}
		}
	}
	for _, dt := range []tensor.DType{tensor.Float16, tensor.Int8} {
		cases = append(cases, platformArch(t, "hmc", "htree", 4, dt), platformArch(t, "tpu-systolic", "torus", 2, dt))
	}
	per := []string{"gpu-hbm", "hmc", "tpu-systolic"}
	mixed, err := newArch(per, "htree", 1600, tensor.Float32)
	if err != nil {
		t.Fatal(err)
	}
	return append(cases, archCase{name: "platforms=" + strings.Join(per, ","), levels: len(per), arch: mixed})
}

// referencePlans returns HyPar, DP, MP, the trick and ten seeded random
// plans of m at the given depth.
func referencePlans(t *testing.T, m *nn.Model, batch, levels int, r *rand.Rand) map[string]*partition.Plan {
	t.Helper()
	plans := map[string]*partition.Plan{}
	for name, mk := range map[string]func(*nn.Model, int, []partition.Weights) (*partition.Plan, error){
		"hypar": solve,
		"dp":    partition.DataParallel,
		"mp":    partition.ModelParallel,
		"trick": partition.OneWeirdTrick,
	} {
		p, err := mk(m, batch, unit(levels))
		if err != nil {
			t.Fatal(err)
		}
		plans[name] = p
	}
	for i := 0; i < 10; i++ {
		as := make([]partition.Assignment, levels)
		for h := range as {
			as[h] = make(partition.Assignment, len(m.Layers))
			for l := range as[h] {
				if r.Intn(2) == 1 {
					as[h][l] = comm.MP
				}
			}
		}
		p, err := partition.Evaluate(m, batch, as, unit(len(as)))
		if err != nil {
			t.Fatal(err)
		}
		plans[fmt.Sprintf("random%d", i)] = p
	}
	return plans
}

// TestChainScheduleMatchesEngine is the reference for the serial step:
// without a trace a chain model's phase-serial step is priced as a
// running sum, and with one the engine schedules it; every Stats field
// must be bit-identical. Branched models ride along: they always take
// the engine, so the comparison also fails if the chain check admits a
// fork.
func TestChainScheduleMatchesEngine(t *testing.T) {
	models := append(nn.Zoo(), nn.BranchedZoo()...)
	r := rand.New(rand.NewSource(15))
	plans := map[string]map[string]*partition.Plan{}
	for _, m := range models {
		for levels := 1; levels <= 5; levels++ {
			plans[fmt.Sprintf("%s/%d", m.Name, levels)] = referencePlans(t, m, 64, levels, r)
		}
	}
	serial, traced := NewSimulator(), NewSimulator()
	cases := 0
	for _, ac := range referenceArchs(t) {
		on := ac.arch
		on.CollectTrace = true
		for _, m := range models {
			_, g, err := m.Derive(64)
			if err != nil {
				t.Fatal(err)
			}
			for name, plan := range plans[fmt.Sprintf("%s/%d", m.Name, ac.levels)] {
				serial.eng.Reset()
				got, err := serial.Simulate(m, plan, ac.arch)
				if err != nil {
					t.Fatalf("%s %s %s: %v", ac.name, m.Name, name, err)
				}
				if engineRan := serial.eng.NumTasks() > 0; engineRan == g.Chain {
					t.Fatalf("%s %s: engine ran = %v for chain = %v", ac.name, m.Name, engineRan, g.Chain)
				}
				want, err := traced.Simulate(m, plan, on)
				if err != nil {
					t.Fatalf("%s %s %s traced: %v", ac.name, m.Name, name, err)
				}
				if !sameBits(got, want) {
					t.Fatalf("%s %s %s: untraced stats differ from the engine's:\n got %+v\nwant %+v",
						ac.name, m.Name, name, *got, *want)
				}
				cases++
			}
		}
	}
	t.Logf("%d (arch, model, plan) cases bit-identical", cases)
}

// TestPhaseCostKey alternates each field of the phase-cost key on one
// Simulator — batch, depth, platform, compute model alone, memory model
// alone, precision and model — so a stale table shows as a result that
// differs from a fresh Simulate.
func TestPhaseCostKey(t *testing.T) {
	type setup struct {
		m      *nn.Model
		batch  int
		levels int
		comp   platform.Compute
		mem    platform.Memory
		dt     tensor.DType
	}
	gpuHBM, err := platform.ByName("gpu-hbm")
	if err != nil {
		t.Fatal(err)
	}
	base := setup{nn.VGGA(), 256, 4, pe.Default(), hmc.Default(), tensor.Float32}
	alts := map[string]func(s setup) setup{
		"batch":     func(s setup) setup { s.batch = 64; return s },
		"depth":     func(s setup) setup { s.levels = 2; return s },
		"platform":  func(s setup) setup { s.comp, s.mem = gpuHBM.Compute(), gpuHBM.Memory(); return s },
		"compute":   func(s setup) setup { s.comp = gpu.Default(); return s },
		"memory":    func(s setup) setup { s.mem = gpuHBM.Memory(); return s },
		"precision": func(s setup) setup { s.dt = tensor.Float16; return s },
		"model":     func(s setup) setup { s.m = nn.AlexNet(); return s },
	}
	run := func(t *testing.T, sm *Simulator, s setup) {
		t.Helper()
		arch, err := newArch(uniform("hmc", s.levels), "htree", 1600, s.dt)
		if err != nil {
			t.Fatal(err)
		}
		arch.Mem, arch.Comp = s.mem, s.comp
		for _, mk := range []func(*nn.Model, int, []partition.Weights) (*partition.Plan, error){
			solve, partition.ModelParallel,
		} {
			plan, err := mk(s.m, s.batch, unit(s.levels))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sm.Simulate(s.m, plan, arch)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Simulate(s.m, plan, arch)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("reused Simulator differs from a fresh one:\n got %+v\nwant %+v", *got, *want)
			}
		}
	}
	for field, alt := range alts {
		t.Run(field, func(t *testing.T) {
			sm := NewSimulator()
			for i := 0; i < 4; i++ {
				s := base
				if i%2 == 1 {
					s = alt(base)
				}
				run(t, sm, s)
			}
		})
	}
}

// fixedCompute is a test compute model whose every phase takes d
// seconds.
type fixedCompute struct{ d float64 }

func (c fixedCompute) ComputeTime(float64, *nn.LayerShapes) float64 { return c.d }
func (fixedCompute) DRAMTraffic(_ *nn.LayerShapes, op, res float64) float64 {
	return op + res
}
func (fixedCompute) Validate() error { return nil }

// TestSerialStepRejectsBadDuration: a non-finite phase duration fails
// the serial step with exactly the engine's error.
func TestSerialStepRejectsBadDuration(t *testing.T) {
	m := nn.LenetC()
	plan, err := solve(m, 64, unit(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{math.NaN(), math.Inf(1)} {
		a := arch4(t)
		a.Comp = fixedCompute{d}
		sm := NewSimulator()
		_, err := sm.Simulate(m, plan, a)
		if !errors.Is(err, ErrSim) || sm.eng.NumTasks() != 0 {
			t.Fatalf("duration %g: serial step err %v (engine tasks %d)", d, err, sm.eng.NumTasks())
		}
		a.OverlapGradComm = true // same tasks, unnamed, on the engine
		_, engErr := Simulate(m, plan, a)
		if engErr == nil || err.Error() != engErr.Error() {
			t.Errorf("duration %g: serial error %q, engine error %q", d, err, engErr)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf(`task "" has duration %g`, d)) {
			t.Errorf("duration %g: error %q lacks the task text", d, err)
		}
	}
}
