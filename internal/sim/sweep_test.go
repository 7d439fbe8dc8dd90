package sim

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/nn"
	"repro/internal/noc"
	"repro/internal/partition"
	"repro/internal/pe"
	"repro/internal/platform"
	"repro/internal/tensor"
)

// randomChain builds a seeded conv chain with an fc head.
func randomChain(r *rand.Rand, i int) *nn.Model {
	m := &nn.Model{Name: fmt.Sprintf("chain-%d", i), Input: nn.Input{H: 16, W: 16, C: 1 + r.Intn(4)}}
	side := 16
	for c := 0; c < 1+r.Intn(6); c++ {
		k := 1 + 2*r.Intn(3)
		l := nn.Layer{Name: fmt.Sprintf("c%d", c), Type: nn.Conv, K: k, Pad: k / 2, Cout: 2 + r.Intn(31), Act: nn.ReLU}
		if side >= 4 && r.Intn(2) == 0 {
			l.Pool, side = 2, side/2
		}
		m.Layers = append(m.Layers, l)
	}
	for f := 0; f < 1+r.Intn(3); f++ {
		m.Layers = append(m.Layers, nn.Layer{Name: fmt.Sprintf("f%d", f), Type: nn.FC, Cout: 4 + r.Intn(60), Act: nn.ReLU})
	}
	return m
}

// randomSweep returns a sweep of m over a random base of the given depth
// with 1-8 random free cells.
func randomSweep(t *testing.T, r *rand.Rand, m *nn.Model, batch, levels int) *partition.Sweep {
	t.Helper()
	nl := len(m.Layers)
	base := make([]partition.Assignment, levels)
	for h := range base {
		base[h] = make(partition.Assignment, nl)
		for l := range base[h] {
			base[h][l] = comm.Parallelism(r.Intn(2))
		}
	}
	n := min(1+r.Intn(8), levels*nl)
	var free []partition.FreeVar
	for _, c := range r.Perm(levels * nl)[:n] {
		free = append(free, partition.FreeVar{Level: c / nl, Layer: c % nl})
	}
	sw, err := partition.NewSweep(m, batch, base, free, unit(levels))
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestSweepStepMatchesSimulate: every sweep point's SweepStep equals the
// StepSeconds of Simulate on the point's filled plan, in float bits —
// over zoo, random and one-layer chains, depths 1–5, three platforms on
// three fabrics, fp16 and int8, a per-level platform array and degraded
// bases shallower than the fabric, each with a random base and 1–8
// random free cells; branched models, overlap and a sweep past the
// table's cap ride along on the fill path.
//
// One Simulator steps every sweep, in shuffled code order, and now and
// then simulates an unrelated plan, so a table that survives a new
// sweep or arch, or a phase cost read under another key, shows.
func TestSweepStepMatchesSimulate(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	models := append(nn.Zoo(), &nn.Model{Name: "one-layer", Input: nn.Input{H: 1, W: 1, C: 64},
		Layers: []nn.Layer{{Name: "f", Type: nn.FC, Cout: 32}}})
	for i := 0; i < 6; i++ {
		models = append(models, randomChain(r, i))
	}
	other, otherPlan := nn.AlexNet(), hyparPlan(t, nn.AlexNet(), 32, 2)
	otherArch, err := defaultArch(2)
	if err != nil {
		t.Fatal(err)
	}
	sm, ref := NewSimulator(), NewSimulator()
	points, walked := 0, 0
	check := func(name string, m *nn.Model, sw *partition.Sweep, arch Arch) {
		t.Helper()
		var plan *partition.Plan
		for _, code := range r.Perm(sw.Points()) {
			plan = sw.Fill(plan, code)
			want, err := ref.Simulate(m, plan, arch)
			if err != nil {
				t.Fatalf("%s %s code %d: Simulate: %v", name, m.Name, code, err)
			}
			got, err := sm.SweepStep(m, sw, arch, code)
			if err != nil {
				t.Fatalf("%s %s code %d: SweepStep: %v", name, m.Name, code, err)
			}
			if math.Float64bits(got) != math.Float64bits(want.StepSeconds) {
				t.Fatalf("%s %s code %d: SweepStep %v, Simulate %v", name, m.Name, code, got, want.StepSeconds)
			}
			if r.Intn(16) == 0 {
				if _, err := sm.Simulate(other, otherPlan, otherArch); err != nil {
					t.Fatal(err)
				}
			}
			points++
		}
		if sm.sweep.walk {
			walked++
		}
	}
	branched := nn.BranchedZoo()
	for i, ac := range referenceArchs(t) {
		for _, mi := range r.Perm(len(models))[:5] {
			m := models[mi]
			check(ac.name, m, randomSweep(t, r, m, 32, ac.levels), ac.arch)
			if ac.levels > 1 {
				check(ac.name+"/degraded", m, randomSweep(t, r, m, 32, ac.levels-1-r.Intn(ac.levels-1)), ac.arch)
			}
		}
		overlap := ac.arch
		overlap.OverlapGradComm = true
		check(ac.name+"/overlap", models[i%len(models)], randomSweep(t, r, models[i%len(models)], 32, ac.levels), overlap)
		check(ac.name, branched[i%2], randomSweep(t, r, branched[i%2], 32, ac.levels), ac.arch)
	}
	// Freeing every level of one layer takes 2^H blocks for it: at H = 8
	// the table fits, at H = 11 it passes the cap and the points are
	// filled and simulated.
	lenet := nn.LenetC()
	for _, levels := range []int{8, 11} {
		deep, err := defaultArch(levels)
		if err != nil {
			t.Fatal(err)
		}
		var free []partition.FreeVar
		for h := 0; h < levels; h++ {
			free = append(free, partition.FreeVar{Level: h, Layer: 1})
		}
		sw, err := partition.NewSweep(lenet, 32, hyparPlan(t, lenet, 32, levels).Levels, free, unit(levels))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("H=%d", levels), lenet, sw, deep)
		if sm.sweep.walk != (levels == 8) {
			t.Errorf("H=%d with a whole layer free: walked = %v", levels, sm.sweep.walk)
		}
	}
	if walked == 0 {
		t.Fatal("no sweep took the walk")
	}
	t.Logf("%d points bit-identical, %d sweeps walked", points, walked)
}

// TestSweepStepKey: one Simulator steps one sweep alternating between
// two archs that differ in a single input — the element type, the
// node's memory or compute model, the fabric, overlap, or, under a
// compute model that fails every phase, tracing, which names the
// failing task —
// and between two pointers to the same network. Every step must equal
// Simulate on the point's plan, value or error, so a table kept across
// a change of any input that moves a step shows.
func TestSweepStepKey(t *testing.T) {
	m, twin := nn.VGGA(), nn.VGGA()
	free := []partition.FreeVar{{Level: 0, Layer: 2}, {Level: 3, Layer: 9}, {Level: 1, Layer: 10}, {Level: 2, Layer: 0}}
	sw, err := partition.NewSweep(m, 64, hyparPlan(t, m, 64, 4).Levels, free, unit(4))
	if err != nil {
		t.Fatal(err)
	}
	base := arch4(t)
	slow := hmc.Default()
	slow.BandwidthGBs = 1 // DRAM-bound phases
	fast, err := noc.NewHTree(4, 3200)
	if err != nil {
		t.Fatal(err)
	}
	// Under a compute model that fails every phase, a traced step's error
	// names the failing task.
	broken := base
	broken.Comp = fixedCompute{math.Inf(1)}
	traced := broken
	traced.CollectTrace = true
	pairs := [][2]Arch{{broken, traced}}
	for _, v := range []func(a *Arch){
		func(a *Arch) { a.DType = tensor.Float16 },
		func(a *Arch) { a.Mem = slow },
		func(a *Arch) { a.Comp = gpu.Default() },
		func(a *Arch) { a.NoC = fast },
		func(a *Arch) { a.OverlapGradComm = true },
	} {
		a := base
		v(&a)
		pairs = append(pairs, [2]Arch{base, a})
	}
	sm, ref := NewSimulator(), NewSimulator()
	for code := 0; code < sw.Points(); code++ {
		plan := sw.Fill(nil, code)
		step := func(mm *nn.Model, a Arch, name string) {
			want, werr := ref.Simulate(mm, plan, a)
			got, err := sm.SweepStep(mm, sw, a, code)
			switch {
			case werr != nil || err != nil:
				if werr == nil || err == nil || err.Error() != werr.Error() {
					t.Fatalf("%s code %d: SweepStep err %v, Simulate err %v", name, code, err, werr)
				}
			case math.Float64bits(got) != math.Float64bits(want.StepSeconds):
				t.Fatalf("%s code %d: SweepStep %v, Simulate %v", name, code, got, want.StepSeconds)
			}
		}
		for i, p := range pairs {
			step(m, p[0], fmt.Sprintf("pair %d first", i))
			step(m, p[1], fmt.Sprintf("pair %d second", i))
		}
		step(m, base, "model")
		step(twin, base, "twin")
	}
}

// faultyTopology fails every transfer of bytes exchanged bytes at
// level: with an error from TransferTime or LinkBytes, or with a NaN
// duration.
type faultyTopology struct {
	noc.Topology
	level int
	bytes float64
	mode  string
}

func (f faultyTopology) TransferTime(level int, bytes float64) (float64, error) {
	if level == f.level && bytes == f.bytes {
		switch f.mode {
		case "time":
			return 0, fmt.Errorf("link %d down for %g bytes", level, bytes)
		case "nan":
			return math.NaN(), nil
		}
	}
	return f.Topology.TransferTime(level, bytes)
}

func (f faultyTopology) LinkBytes(level int, bytes float64) (float64, error) {
	if f.mode == "bytes" && level == f.level && bytes == f.bytes {
		return 0, fmt.Errorf("link %d miscounts %g bytes", level, bytes)
	}
	return f.Topology.LinkBytes(level, bytes)
}

// slowPhase is a compute model under which the phases of one layer that
// move op operand bytes take forever.
type slowPhase struct {
	platform.Compute
	layer string
	op    float64
}

func (c slowPhase) DRAMTraffic(s nn.LayerShapes, op, res float64) float64 {
	if s.Layer.Name == c.layer && op == c.op {
		return math.Inf(1)
	}
	return c.Compute.DRAMTraffic(s, op, res)
}

// pricingLog records, per sweep point, the transfers and layer phases a
// fresh Simulator prices.
type pricingLog struct {
	noc.Topology
	platform.Compute
	xfers  map[[2]float64]map[int]bool // (level, bytes) -> codes
	phases map[string]map[int]bool     // "layer op" -> codes
	code   int
}

func (g *pricingLog) TransferTime(level int, bytes float64) (float64, error) {
	k := [2]float64{float64(level), bytes}
	if g.xfers[k] == nil {
		g.xfers[k] = map[int]bool{}
	}
	g.xfers[k][g.code] = true
	return g.Topology.TransferTime(level, bytes)
}

func (g *pricingLog) DRAMTraffic(s nn.LayerShapes, op, res float64) float64 {
	k := fmt.Sprintf("%s %v", s.Layer.Name, op)
	if g.phases[k] == nil {
		g.phases[k] = map[int]bool{}
	}
	g.phases[k][g.code] = true
	return g.Compute.DRAMTraffic(s, op, res)
}

func (g *pricingLog) Validate() error { return g.Compute.Validate() }

// TestSweepStepFaultsMatchSimulate: under a fabric that fails one
// (level, bytes) transfer, or a compute model that fails one layer's
// phases at one shard, every point of a sweep fails or succeeds as
// Simulate on its plan does, with the same error text, so the first
// failing code and its error are the same. The faults are chosen among
// the pricings only some points make, plus zero-byte transfers, which
// no point makes. Each sweep runs in code order on one Simulator, as a
// sweep worker does, so a failed pricing must be retried, never stored.
func TestSweepStepFaultsMatchSimulate(t *testing.T) {
	m := nn.VGGA()
	base := hyparPlan(t, m, 64, 4)
	var free []partition.FreeVar
	for _, c := range [][2]int{{0, 1}, {1, 4}, {2, 9}, {3, 10}, {3, 0}, {1, 7}} {
		free = append(free, partition.FreeVar{Level: c[0], Layer: c[1]})
	}
	sw, err := partition.NewSweep(m, 64, base.Levels, free, unit(4))
	if err != nil {
		t.Fatal(err)
	}
	good := arch4(t)
	log := &pricingLog{Topology: good.NoC, Compute: good.Comp,
		xfers: map[[2]float64]map[int]bool{}, phases: map[string]map[int]bool{}}
	logged := good
	logged.NoC, logged.Comp = log, log
	for log.code = 0; log.code < sw.Points(); log.code++ {
		if _, err := Simulate(m, sw.Fill(nil, log.code), logged); err != nil {
			t.Fatal(err)
		}
	}
	var archs []Arch
	for _, k := range slices.SortedFunc(maps.Keys(log.xfers), func(a, b [2]float64) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	}) {
		if len(log.xfers[k]) == sw.Points() || len(archs) >= 9 {
			continue
		}
		for _, mode := range []string{"time", "nan", "bytes"} {
			a := good
			a.NoC = faultyTopology{Topology: good.NoC, level: int(k[0]), bytes: k[1], mode: mode}
			archs = append(archs, a)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(log.phases)) {
		if len(log.phases[k]) == sw.Points() || len(archs) >= 12 {
			continue
		}
		var layer string
		var op float64
		if _, err := fmt.Sscanf(k, "%s %g", &layer, &op); err != nil {
			t.Fatal(err)
		}
		a := good
		a.Comp = slowPhase{Compute: good.Comp, layer: layer, op: op}
		archs = append(archs, a)
	}
	if len(archs) < 12 {
		t.Fatalf("only %d faults that some but not all points meet", len(archs))
	}
	// Simulate never prices a zero volume, so a fabric that fails every
	// zero-byte transfer fails no point.
	for h := range 4 {
		a := good
		a.NoC = faultyTopology{Topology: good.NoC, level: h, bytes: 0, mode: "time"}
		archs = append(archs, a)
	}
	for i, a := range archs {
		sm, ref := NewSimulator(), NewSimulator()
		first, fails := -1, 0
		for code := 0; code < sw.Points(); code++ {
			want, werr := ref.Simulate(m, sw.Fill(nil, code), a)
			got, err := sm.SweepStep(m, sw, a, code)
			switch {
			case (err == nil) != (werr == nil):
				t.Fatalf("fault %d code %d: SweepStep err %v, Simulate err %v", i, code, err, werr)
			case err != nil:
				if err.Error() != werr.Error() {
					t.Fatalf("fault %d code %d: SweepStep err %q, Simulate err %q", i, code, err, werr)
				}
				if first < 0 {
					first = code
				}
				fails++
			case math.Float64bits(got) != math.Float64bits(want.StepSeconds):
				t.Fatalf("fault %d code %d: SweepStep %v, Simulate %v", i, code, got, want.StepSeconds)
			}
		}
		if zero := i >= len(archs)-4; zero && fails > 0 || !zero && (fails == 0 || fails == sw.Points()) {
			t.Errorf("fault %d: %d of %d points fail", i, fails, sw.Points())
		}
		t.Logf("fault %d: %d of %d points fail, first at code %d", i, fails, sw.Points(), first)
	}
}

// TestSweepStepChecks: SweepStep runs Simulate's checks once per sweep
// with Simulate's error text — arch validation, per-level memory
// models, topology depth, layer count and model name. Each failing call
// follows a good one on the same sweep, so a check skipped because the
// table was held shows, and a failed check is not remembered: the next
// call checks again, and a good call after it succeeds.
func TestSweepStepChecks(t *testing.T) {
	m := nn.LenetC()
	free := []partition.FreeVar{{Level: 0, Layer: 0}, {Level: 3, Layer: 2}}
	sw, err := partition.NewSweep(m, 64, hyparPlan(t, m, 64, 4).Levels, free, unit(4))
	if err != nil {
		t.Fatal(err)
	}
	good := arch4(t)
	perLevel := good
	perLevel.LevelMems = []platform.Memory{good.Mem, good.Mem, good.Mem, good.Mem}
	shallow, err := defaultArch(3)
	if err != nil {
		t.Fatal(err)
	}
	badMem := hmc.Default()
	badMem.BandwidthGBs = 0
	badComp := pe.Default()
	badComp.RowsPE = 0
	longer := nn.LenetC()
	longer.Layers = append(longer.Layers, nn.Layer{Name: "fc3", Type: nn.FC, Cout: 10})
	renamed := nn.LenetC()
	renamed.Name = "Lenet-d"
	for _, c := range []struct {
		name string
		good Arch
		m    *nn.Model
		arch func(Arch) Arch
	}{
		{"memory", good, m, func(a Arch) Arch { a.Mem = badMem; return a }},
		{"nil memory", good, m, func(a Arch) Arch { a.Mem = nil; return a }},
		{"compute", good, m, func(a Arch) Arch { a.Comp = badComp; return a }},
		{"level memory", perLevel, m, func(a Arch) Arch {
			a.LevelMems = []platform.Memory{a.Mem, a.Mem, badMem, a.Mem}
			return a
		}},
		{"level memories", perLevel, m, func(a Arch) Arch { a.LevelMems = a.LevelMems[:3]; return a }},
		{"no level memories", good, m, func(a Arch) Arch { a.LevelMems = []platform.Memory{}; return a }},
		{"depth", good, m, func(Arch) Arch { return shallow }},
		{"layers", good, longer, func(a Arch) Arch { return a }},
		{"model", good, renamed, func(a Arch) Arch { return a }},
	} {
		sm := NewSimulator()
		a := c.arch(c.good)
		for _, code := range []int{1, 2} {
			if _, err := sm.SweepStep(m, sw, c.good, code); err != nil {
				t.Fatalf("%s: the good call: %v", c.name, err)
			}
			for range 2 {
				_, werr := Simulate(c.m, sw.Fill(nil, code), a)
				_, err := sm.SweepStep(c.m, sw, a, code)
				if err == nil || werr == nil || err.Error() != werr.Error() {
					t.Errorf("%s code %d: SweepStep err %v, Simulate err %v", c.name, code, err, werr)
				}
			}
		}
		want, err := Simulate(m, sw.Fill(nil, 3), c.good)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sm.SweepStep(m, sw, c.good, 3)
		if err != nil || got != want.StepSeconds {
			t.Errorf("%s: the good call after it = %v, %v; want %v", c.name, got, err, want.StepSeconds)
		}
	}
	if _, err := NewSimulator().SweepStep(m, nil, good, 0); !errors.Is(err, ErrSim) {
		t.Errorf("nil sweep: err %v, want ErrSim", err)
	}
}

// TestAllocsSweepStep gates SweepStep's per-point cost: once a sweep's
// walks have met every duration, stepping a point allocates nothing, at
// any depth.
func TestAllocsSweepStep(t *testing.T) {
	m := nn.VGGA()
	for _, levels := range []int{1, 2, 4, 5} {
		arch, err := defaultArch(levels)
		if err != nil {
			t.Fatal(err)
		}
		var free []partition.FreeVar
		for _, c := range [][2]int{{0, 0}, {levels - 1, 10}, {levels / 2, 3}, {0, 7}, {levels - 1, 4}} {
			free = append(free, partition.FreeVar{Level: c[0], Layer: c[1]})
		}
		sw, err := partition.NewSweep(m, 256, hyparPlan(t, m, 256, levels).Levels, free, unit(levels))
		if err != nil {
			t.Fatal(err)
		}
		sm := NewSimulator()
		for code := 0; code < sw.Points(); code++ {
			if _, err := sm.SweepStep(m, sw, arch, code); err != nil {
				t.Fatal(err)
			}
		}
		code := 0
		allocs := testing.AllocsPerRun(100, func() {
			code = (code + 1) % sw.Points()
			if _, err := sm.SweepStep(m, sw, arch, code); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("H=%d: a priced sweep's step allocates %.1f objects, want 0", levels, allocs)
		}
	}
}
