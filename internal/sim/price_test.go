package sim

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/noc"
	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/tensor"
)

// sweepPlans returns points of a sweep over m's HyPar plan at the given
// depth: the first and last layer free at every level.
func sweepPlans(t *testing.T, m *nn.Model, batch, levels int) []*partition.Plan {
	t.Helper()
	base := hyparPlan(t, m, batch, levels)
	var free []partition.FreeVar
	for h := 0; h < levels; h++ {
		free = append(free, partition.FreeVar{Level: h, Layer: 0}, partition.FreeVar{Level: h, Layer: len(m.Layers) - 1})
	}
	sw, err := partition.NewSweep(m, batch, base.Levels, free, unit(levels))
	if err != nil {
		t.Fatal(err)
	}
	var plans []*partition.Plan
	for code := 0; code < sw.Points(); code += sw.Points()/8 + 1 {
		plans = append(plans, sw.Fill(nil, code))
	}
	return plans
}

// TestTransferPriceKey: one Simulator simulates sweep points under
// interleaved archs — every platform and fabric, a per-level platform
// array, and variants that share an arch's topology but change one
// pricing input: the element type, the leaf level's energy model, the
// node energy model. Each (arch, plan) runs twice in a row, so the arch
// before has always filled the memo (a first step under new inputs
// memoizes nothing). Every result must be bit-identical to a fresh
// Simulator's, so a stale price shows.
func TestTransferPriceKey(t *testing.T) {
	gpuHBM, err := platform.ByName("gpu-hbm")
	if err != nil {
		t.Fatal(err)
	}
	byDepth := map[int][]archCase{}
	for _, ac := range referenceArchs(t) {
		if ac.levels < 2 || ac.levels > 4 {
			continue
		}
		fp16 := ac
		fp16.arch.DType = tensor.Float16
		leaf := ac
		leaf.arch.LevelMems = slices.Clone(ac.arch.LevelMems)
		leaf.arch.LevelMems[ac.levels-1] = gpuHBM.Memory()
		node := ac
		node.arch.Mem = gpuHBM.Memory()
		byDepth[ac.levels] = append(byDepth[ac.levels], ac, fp16, leaf, node)
	}
	sm := NewSimulator()
	cases := 0
	for _, m := range []*nn.Model{nn.LenetC(), nn.VGGA(), nn.SRES8(), nn.Incep2()} {
		for levels, archs := range byDepth {
			for _, plan := range sweepPlans(t, m, 64, levels) {
				for _, ac := range archs {
					want, err := Simulate(m, plan, ac.arch)
					if err != nil {
						t.Fatal(err)
					}
					for run := 0; run < 2; run++ {
						got, err := sm.Simulate(m, plan, ac.arch)
						if err != nil {
							t.Fatalf("%s %s: %v", ac.name, m.Name, err)
						}
						if !sameBits(got, want) {
							t.Fatalf("%s %s run %d: reused Simulator differs from a fresh one:\n got %+v\nwant %+v",
								ac.name, m.Name, run, *got, *want)
						}
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d interleaved (arch, plan) cases bit-identical", cases)
}

// TestArchTransfer: a transfer's price is the fabric's time and link
// bytes billed on that level's energy model, and a level without an
// energy model is an error.
func TestArchTransfer(t *testing.T) {
	a, err := newArch([]string{"gpu-hbm", "hmc", "tpu-systolic"}, "", 0, tensor.Float32)
	if err != nil {
		t.Fatal(err)
	}
	for h := range 3 {
		dur, energy, err := a.Transfer(h, 1e6)
		wantDur, terr := a.NoC.TransferTime(h, 1e6)
		linkBytes, lerr := a.NoC.LinkBytes(h, 1e6)
		if err != nil || terr != nil || lerr != nil || dur != wantDur || energy != a.LevelMems[h].LinkEnergy(linkBytes) {
			t.Errorf("level %d: Transfer = %v, %v, %v; want %v, %v", h, dur, energy, err, wantDur, a.LevelMems[h].LinkEnergy(linkBytes))
		}
	}
	a.LevelMems = a.LevelMems[:2]
	if _, _, err := a.Transfer(2, 1e6); !errors.Is(err, ErrSim) {
		t.Errorf("level without an energy model: err %v, want ErrSim", err)
	}
}

// flakyTopology wraps a fabric, counting transfer pricings and, while
// broken, failing each one with an error or a NaN duration.
type flakyTopology struct {
	noc.Topology
	calls  int
	broken bool
	nan    bool
}

func (f *flakyTopology) TransferTime(level int, exchBytes float64) (float64, error) {
	f.calls++
	switch {
	case !f.broken:
		return f.Topology.TransferTime(level, exchBytes)
	case f.nan:
		return math.NaN(), nil
	}
	return 0, errors.New("link down")
}

// TestTransferPricesMemoized: on one Simulator and arch the first step
// memoizes nothing, so the second prices transfers again while filling
// the memo, and the third prices fewer still. A failed pricing — an
// error or a bad duration — is never memoized: once the fabric
// recovers, the same Simulator and arch give a fresh Simulator's
// result.
func TestTransferPricesMemoized(t *testing.T) {
	m := nn.VGGA()
	plan := hyparPlan(t, m, 256, 4)
	for _, nan := range []bool{false, true} {
		a := arch4(t)
		topo := &flakyTopology{Topology: a.NoC}
		a.NoC = topo
		sm := NewSimulator()
		var want *Stats
		calls := make([]int, 3)
		for i := range calls {
			topo.calls = 0
			got, err := sm.Simulate(m, plan, a)
			if err != nil {
				t.Fatal(err)
			}
			if calls[i] = topo.calls; i > 0 && !sameBits(got, want) {
				t.Fatalf("step %d differs from the first", i)
			}
			want = got
		}
		if calls[1] == 0 || calls[2] >= calls[1] {
			t.Errorf("transfers priced by three steps: %v, want the second > 0 and the third fewer", calls)
		}

		sm = NewSimulator()
		if _, err := sm.Simulate(m, plan, a); err != nil {
			t.Fatal(err)
		}
		topo.broken, topo.nan = true, nan
		if _, err := sm.Simulate(m, plan, a); err == nil {
			t.Fatalf("nan=%v: a failing fabric simulated", nan)
		}
		topo.broken = false
		got, err := sm.Simulate(m, plan, a)
		if err != nil {
			t.Fatalf("nan=%v: the recovered fabric still fails: %v", nan, err)
		}
		if !sameBits(got, want) {
			t.Errorf("nan=%v: after a failed pricing, got %+v, want %+v", nan, *got, *want)
		}
	}
}
