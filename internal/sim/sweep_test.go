package sim

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
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
func randomSweep(t testing.TB, r *rand.Rand, m *nn.Model, batch, levels int) *partition.Sweep {
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

// stepShuffled steps every point of prog through Steps over ranges of
// 1-13 points taken in shuffled order, on one scratch, and hands each
// point's step or error to visit. After a point fails, the rest of its
// range is stepped from the next point. It reports with t.Errorf, so
// goroutines may call it.
func stepShuffled(t testing.TB, r *rand.Rand, prog *SweepProgram, sc *SweepScratch, points int, visit func(code int, step float64, err error)) {
	t.Helper()
	var ranges [][2]int
	for lo := 0; lo < points; {
		hi := min(points, lo+1+r.Intn(13))
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
	}
	r.Shuffle(len(ranges), func(i, j int) { ranges[i], ranges[j] = ranges[j], ranges[i] })
	steps := make([]float64, 13)
	for _, rg := range ranges {
		for lo := rg[0]; lo < rg[1]; {
			n, err := prog.Steps(sc, lo, steps[:rg[1]-lo])
			for i, step := range steps[:n] {
				visit(lo+i, step, nil)
			}
			lo += n
			switch {
			case err != nil:
				visit(lo, 0, err)
				lo++
			case lo != rg[1]:
				t.Errorf("Steps(%d, %d points) set %d with no error", lo-n, rg[1]-lo+n, n)
				return
			}
		}
	}
}

// sameStep reports whether a program's step or error for a point is
// Simulate's for its plan: the same step bits, or the same error text.
func sameStep(step float64, err error, want *Stats, werr error) bool {
	if err != nil || werr != nil {
		return err != nil && werr != nil && err.Error() == werr.Error()
	}
	return math.Float64bits(step) == math.Float64bits(want.StepSeconds)
}

// TestSweepStepMatchesSimulate: every sweep point's step from a compiled
// program equals the StepSeconds of Simulate on the point's filled plan,
// in float bits — over zoo, random and one-layer chains, depths 1–5,
// three platforms on three fabrics, fp16 and int8, a per-level platform
// array and degraded bases shallower than the fabric, each with a random
// base and 1–8 random free cells; branched models, overlap and a sweep
// past the layout's cap ride along on the fill path. Points are stepped
// over ranges in shuffled order, so a lane of the four-point walk that
// reads another point's row shows, and one scratch serves every sweep.
func TestSweepStepMatchesSimulate(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	models := append(nn.Zoo(), &nn.Model{Name: "one-layer", Input: nn.Input{H: 1, W: 1, C: 64},
		Layers: []nn.Layer{{Name: "f", Type: nn.FC, Cout: 32}}})
	for i := 0; i < 6; i++ {
		models = append(models, randomChain(r, i))
	}
	ref, sc := NewSimulator(), &SweepScratch{}
	points, walked := 0, 0
	check := func(name string, m *nn.Model, sw *partition.Sweep, arch Arch) *SweepProgram {
		t.Helper()
		prog, err := CompileSweep(m, sw, arch)
		if err != nil {
			t.Fatalf("%s %s: CompileSweep: %v", name, m.Name, err)
		}
		stepShuffled(t, r, prog, sc, sw.Points(), func(code int, got float64, err error) {
			want, werr := ref.Simulate(m, sw.Fill(nil, code), arch)
			if werr != nil || !sameStep(got, err, want, werr) {
				t.Fatalf("%s %s code %d: step %v (%v), Simulate %v (%v)", name, m.Name, code, got, err, want, werr)
			}
			points++
		})
		if prog.walk {
			walked++
		}
		return prog
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
	// Freeing every level of one layer gives its segments and its
	// neighbours' 2^H rows each: at H = 8 the layout fits, at H = 11 it
	// passes the cap and the points are filled and simulated.
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
		if prog := check(fmt.Sprintf("H=%d", levels), lenet, sw, deep); prog.walk != (levels == 8) {
			t.Errorf("H=%d with a whole layer free: walked = %v", levels, prog.walk)
		}
	}
	if walked == 0 {
		t.Fatal("no sweep took the walk")
	}
	t.Logf("%d points bit-identical, %d sweeps walked", points, walked)
}

// TestSweepStepKey: one sweep compiled on archs that differ from a base
// in a single input — the element type, the node's memory or compute
// model, the fabric, overlap, or, under a compute model that fails every
// phase, tracing, which names the failing task — and for two pointers to
// the same network. Every point must equal Simulate on its plan, value
// or error. A Simulator once held one sweep's durations across such
// inputs; programs hold none, so what stays of the test is that each
// input a step depends on reaches the program.
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
	archs := map[string]Arch{"base": base, "broken": broken, "traced": traced}
	for name, v := range map[string]func(a *Arch){
		"fp16":    func(a *Arch) { a.DType = tensor.Float16 },
		"memory":  func(a *Arch) { a.Mem = slow },
		"compute": func(a *Arch) { a.Comp = gpu.Default() },
		"fabric":  func(a *Arch) { a.NoC = fast },
		"overlap": func(a *Arch) { a.OverlapGradComm = true },
	} {
		a := base
		v(&a)
		archs[name] = a
	}
	r := rand.New(rand.NewSource(3))
	ref, sc := NewSimulator(), &SweepScratch{}
	steps := map[string][]float64{}
	for _, name := range slices.Sorted(maps.Keys(archs)) {
		a := archs[name]
		for _, mm := range []*nn.Model{m, twin} {
			prog, err := CompileSweep(mm, sw, a)
			if err != nil {
				t.Fatalf("%s: CompileSweep: %v", name, err)
			}
			got := make([]float64, sw.Points())
			stepShuffled(t, r, prog, sc, sw.Points(), func(code int, step float64, err error) {
				want, werr := ref.Simulate(mm, sw.Fill(nil, code), a)
				if !sameStep(step, err, want, werr) {
					t.Fatalf("%s code %d: step %v (%v), Simulate %v (%v)", name, code, step, err, want, werr)
				}
				got[code] = step
			})
			steps[name] = got
		}
	}
	// Each input moves some point's step (or fails it).
	for name, got := range steps {
		if name != "base" && slices.Equal(got, steps["base"]) {
			t.Errorf("%s: every step equals the base arch's", name)
		}
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

func (c slowPhase) DRAMTraffic(s *nn.LayerShapes, op, res float64) float64 {
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

func (g *pricingLog) DRAMTraffic(s *nn.LayerShapes, op, res float64) float64 {
	k := fmt.Sprintf("%s %v", s.Layer.Name, op)
	if g.phases[k] == nil {
		g.phases[k] = map[int]bool{}
	}
	g.phases[k][g.code] = true
	return g.Compute.DRAMTraffic(s, op, res)
}

func (g *pricingLog) Validate() error { return g.Compute.Validate() }

// faultSweep is a VGG-A sweep of six free cells on its depth-4 HyPar
// plan, at batch 64.
func faultSweep(t testing.TB) *partition.Sweep {
	t.Helper()
	m := nn.VGGA()
	var free []partition.FreeVar
	for _, c := range [][2]int{{0, 1}, {1, 4}, {2, 9}, {3, 10}, {3, 0}, {1, 7}} {
		free = append(free, partition.FreeVar{Level: c[0], Layer: c[1]})
	}
	sw, err := partition.NewSweep(m, 64, hyparPlan(t, m, 64, 4).Levels, free, unit(4))
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// partialFaults returns variants of good that each fail one pricing
// only some of sw's points make, at most twelve: fabrics failing one
// (level, bytes) transfer with an error from TransferTime or LinkBytes
// or with a NaN duration, then compute models failing one layer's
// phases at one shard.
func partialFaults(t testing.TB, m *nn.Model, sw *partition.Sweep, good Arch) []Arch {
	t.Helper()
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
	return archs
}

// TestSweepStepFaultsMatchSimulate: under a fabric that fails one
// (level, bytes) transfer, or a compute model that fails one layer's
// phases at one shard, every point of a sweep fails or succeeds as
// Simulate on its plan does, with the same error text, so the first
// failing code and its error are the same. The faults are chosen among
// the pricings only some points make, alone and a transfer's and a
// phase's together, plus zero-byte transfers, which no point makes. A Simulator once priced each point's durations as it
// met them, and this test checked a failed pricing was retried, never
// kept; a program prices every duration up front and keeps a failure as
// its error, so what stays is that each point meets exactly the
// failures Simulate meets, first one first, stepped over shuffled
// ranges.
func TestSweepStepFaultsMatchSimulate(t *testing.T) {
	m, sw := nn.VGGA(), faultSweep(t)
	good := arch4(t)
	archs := partialFaults(t, m, sw, good)
	if len(archs) < 12 {
		t.Fatalf("only %d faults that some but not all points meet", len(archs))
	}
	// Two faults at once, a transfer's and a phase's, so points meet
	// different failures first.
	single := len(archs)
	for i := range 3 {
		a := archs[3*i]
		a.Comp = archs[single-1-i].Comp
		archs = append(archs, a)
	}
	// Simulate never prices a zero volume, so a fabric that fails every
	// zero-byte transfer fails no point.
	for h := range 4 {
		a := good
		a.NoC = faultyTopology{Topology: good.NoC, level: h, bytes: 0, mode: "time"}
		archs = append(archs, a)
	}
	r := rand.New(rand.NewSource(5))
	texts := map[string]bool{}
	for i, a := range archs {
		prog, err := CompileSweep(m, sw, a)
		if err != nil {
			t.Fatalf("fault %d: CompileSweep: %v", i, err)
		}
		if !prog.walk {
			t.Fatalf("fault %d: the sweep is not walked", i)
		}
		ref := NewSimulator()
		first, fails := sw.Points(), 0
		stepShuffled(t, r, prog, &SweepScratch{}, sw.Points(), func(code int, got float64, err error) {
			want, werr := ref.Simulate(m, sw.Fill(nil, code), a)
			if !sameStep(got, err, want, werr) {
				t.Fatalf("fault %d code %d: step %v (%v), Simulate %v (%v)", i, code, got, err, want, werr)
			}
			if err != nil {
				first, fails = min(first, code), fails+1
				if i >= single && i < single+3 {
					texts[err.Error()] = true
				}
			}
		})
		if zero := i >= len(archs)-4; zero && fails > 0 || !zero && (fails == 0 || fails == sw.Points()) {
			t.Errorf("fault %d: %d of %d points fail", i, fails, sw.Points())
		}
		t.Logf("fault %d: %d of %d points fail, first at code %d", i, fails, sw.Points(), first)
	}
	if len(texts) < 2 {
		t.Errorf("the double faults fail points with %d distinct errors, want a transfer's and a phase's", len(texts))
	}
}

// TestSweepStepChecks: CompileSweep runs Simulate's checks with
// Simulate's error text — arch validation, per-level memory models,
// topology depth, layer count and model name — and fails exactly when
// Simulate fails every point of the sweep. A Simulator once held a
// checked sweep, and this test checked a failing call after a good one
// was not let through, nor a failure remembered; a program holds no
// state across calls, so what stays is each bad input's error and a
// good compile after it.
func TestSweepStepChecks(t *testing.T) {
	m := nn.LenetC()
	free := []partition.FreeVar{{Level: 0, Layer: 0}, {Level: 3, Layer: 2}}
	sw, err := partition.NewSweep(m, 64, hyparPlan(t, m, 64, 4).Levels, free, unit(4))
	if err != nil {
		t.Fatal(err)
	}
	good := arch4(t)
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
		m    *nn.Model
		arch func(Arch) Arch
	}{
		{"memory", m, func(a Arch) Arch { a.Mem = badMem; return a }},
		{"nil memory", m, func(a Arch) Arch { a.Mem = nil; return a }},
		{"compute", m, func(a Arch) Arch { a.Comp = badComp; return a }},
		{"level memory", m, func(a Arch) Arch {
			a.LevelMems = []platform.Memory{a.Mem, a.Mem, badMem, a.Mem}
			return a
		}},
		{"level memories", m, func(a Arch) Arch { a.LevelMems = []platform.Memory{a.Mem, a.Mem, a.Mem}; return a }},
		{"no level memories", m, func(a Arch) Arch { a.LevelMems = []platform.Memory{}; return a }},
		{"nil level memories", m, func(a Arch) Arch { a.LevelMems = nil; return a }},
		{"depth", m, func(Arch) Arch { return shallow }},
		{"layers", longer, func(a Arch) Arch { return a }},
		{"model", renamed, func(a Arch) Arch { return a }},
	} {
		a := c.arch(good)
		_, err := CompileSweep(c.m, sw, a)
		for code := range sw.Points() {
			_, werr := Simulate(c.m, sw.Fill(nil, code), a)
			if err == nil || werr == nil || err.Error() != werr.Error() {
				t.Errorf("%s code %d: CompileSweep err %v, Simulate err %v", c.name, code, err, werr)
			}
		}
		prog, err := CompileSweep(m, sw, good)
		if err != nil {
			t.Fatalf("%s: the good compile after it: %v", c.name, err)
		}
		want, err := Simulate(m, sw.Fill(nil, 3), good)
		if err != nil {
			t.Fatal(err)
		}
		var got [1]float64
		if n, err := prog.Steps(nil, 3, got[:]); n != 1 || err != nil || got[0] != want.StepSeconds {
			t.Errorf("%s: the good compile after it steps %v, %d, %v; want %v", c.name, got[0], n, err, want.StepSeconds)
		}
	}
	if _, err := CompileSweep(m, nil, good); !errors.Is(err, ErrSim) {
		t.Errorf("nil sweep: err %v, want ErrSim", err)
	}
}

// TestAllocsSweepStep gates a compiled program's per-point cost:
// stepping a range of points allocates nothing, at any depth and any
// range length, a tail shorter than the four-point walk included.
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
		prog, err := CompileSweep(m, sw, arch)
		if err != nil {
			t.Fatal(err)
		}
		if !prog.walk {
			t.Fatalf("H=%d: the sweep is not walked", levels)
		}
		var steps [11]float64
		lo := 0
		allocs := testing.AllocsPerRun(100, func() {
			n := 1 + lo%len(steps)
			lo = (lo + n) % sw.Points()
			if _, err := prog.Steps(nil, lo, steps[:n]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("H=%d: stepping a compiled range allocates %.1f objects, want 0", levels, allocs)
		}
	}
}

// TestSweepProgramShared: eight goroutines step one program each over
// its own shuffled ranges — a walked chain sweep, one whose faults fail
// some points, and a DAG sweep on the fill path — and every point's step
// and error equal a serial walk's, bit for bit. Under -race it shows the
// program is read-only once compiled.
func TestSweepProgramShared(t *testing.T) {
	vgg, dag := nn.VGGA(), nn.BranchedZoo()[0]
	good := arch4(t)
	r := rand.New(rand.NewSource(23))
	faults := faultSweep(t)
	for _, c := range []struct {
		name string
		m    *nn.Model
		sw   *partition.Sweep
		arch Arch
	}{
		{"chain", vgg, randomSweep(t, r, vgg, 64, 4), good},
		{"faults", vgg, faults, partialFaults(t, vgg, faults, good)[0]},
		{"dag", dag, randomSweep(t, r, dag, 64, 4), good},
	} {
		sw := c.sw
		prog, err := CompileSweep(c.m, sw, c.arch)
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			step float64
			err  string
		}
		serial := make([]result, sw.Points())
		var sc SweepScratch
		for code := range serial {
			var s [1]float64
			if _, err := prog.Steps(&sc, code, s[:]); err != nil {
				serial[code].err = err.Error()
			}
			serial[code].step = s[0]
		}
		got := make([][]result, 8)
		var wg sync.WaitGroup
		for g := range got {
			got[g] = make([]result, sw.Points())
			seed := r.Int63()
			wg.Add(1)
			go func() {
				defer wg.Done()
				var sc SweepScratch
				stepShuffled(t, rand.New(rand.NewSource(seed)), prog, &sc, sw.Points(), func(code int, step float64, err error) {
					got[g][code].step = step
					if err != nil {
						got[g][code].err = err.Error()
					}
				})
			}()
		}
		wg.Wait()
		fails := 0
		for code, want := range serial {
			if want.err != "" {
				fails++
			}
			for g := range got {
				if r := got[g][code]; math.Float64bits(r.step) != math.Float64bits(want.step) || r.err != want.err {
					t.Fatalf("%s goroutine %d code %d: %v %q, serial %v %q", c.name, g, code, r.step, r.err, want.step, want.err)
				}
			}
		}
		if c.name == "faults" && (fails == 0 || fails == sw.Points()) {
			t.Errorf("faults: %d of %d points fail", fails, sw.Points())
		}
		if prog.walk != (c.name != "dag") {
			t.Errorf("%s: walked = %v", c.name, prog.walk)
		}
	}
}

// FuzzSweepProgram compiles the sweep its inputs pick — a random chain,
// a depth of 1–5, a random base, 1–8 free cells, one of three platforms
// on one of three fabrics, and an element type — and checks every
// point's step and error, stepped over shuffled ranges, against Fill +
// Simulate's.
func FuzzSweepProgram(f *testing.F) {
	f.Add(int64(1), int64(1), uint8(3), uint8(7), uint8(0))
	f.Add(int64(2), int64(5), uint8(0), uint8(0), uint8(13))
	f.Add(int64(3), int64(9), uint8(4), uint8(3), uint8(26))
	f.Fuzz(func(t *testing.T, chain, pick int64, depth, free, plat uint8) {
		levels := 1 + int(depth%5)
		m := randomChain(rand.New(rand.NewSource(chain)), int(chain%1000))
		r := rand.New(rand.NewSource(pick))
		nl := len(m.Layers)
		base := make([]partition.Assignment, levels)
		for h := range base {
			base[h] = make(partition.Assignment, nl)
			for l := range base[h] {
				base[h][l] = comm.Parallelism(r.Intn(2))
			}
		}
		var cells []partition.FreeVar
		for _, c := range r.Perm(levels * nl)[:min(1+int(free%8), levels*nl)] {
			cells = append(cells, partition.FreeVar{Level: c / nl, Layer: c % nl})
		}
		sw, err := partition.NewSweep(m, 8<<r.Intn(5), base, cells, unit(levels))
		if err != nil {
			t.Fatal(err)
		}
		p := int(plat % 27)
		arch, err := newArch(uniform([]string{"hmc", "gpu-hbm", "tpu-systolic"}[p%3], levels),
			[]string{"htree", "torus", "ideal"}[p/3%3], 0, []tensor.DType{tensor.Float32, tensor.Float16, tensor.Int8}[p/9])
		if err != nil {
			t.Fatal(err)
		}
		prog, err := CompileSweep(m, sw, arch)
		if err != nil {
			for code := range sw.Points() {
				if _, werr := Simulate(m, sw.Fill(nil, code), arch); werr == nil || werr.Error() != err.Error() {
					t.Fatalf("code %d: CompileSweep err %v, Simulate err %v", code, err, werr)
				}
			}
			return
		}
		ref := NewSimulator()
		stepShuffled(t, r, prog, &SweepScratch{}, sw.Points(), func(code int, got float64, err error) {
			want, werr := ref.Simulate(m, sw.Fill(nil, code), arch)
			if !sameStep(got, err, want, werr) {
				t.Fatalf("code %d: step %v (%v), Simulate %v (%v)", code, got, err, want, werr)
			}
		})
	})
}
