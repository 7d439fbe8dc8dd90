package hypar_test

import (
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	hypar "repro"
	"repro/internal/platform"
)

func TestDefaultConfig(t *testing.T) {
	c := hypar.DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	canon := c.Canonical()
	if canon.Batch != 256 || canon.Levels != 4 || canon.Platform != "hmc" ||
		canon.Topology != "htree" || canon.LinkMbps != 1600 {
		t.Errorf("default config diverges from paper §6.1: %+v", canon)
	}
	// Switching Platform on the default config must pick that
	// platform's native fabric, not keep the HMC's H-tree/1600.
	c.Platform = "gpu-hbm"
	canon = c.Canonical()
	if canon.Topology != "torus" || canon.LinkMbps != 200000 {
		t.Errorf("platform switch kept hmc fabric: %+v", canon)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []hypar.Config{
		{Batch: 0, Levels: 4, Topology: "htree", LinkMbps: 1600},
		{Batch: 256, Levels: -1, Topology: "htree", LinkMbps: 1600},
		{Batch: 256, Levels: 25, Topology: "htree", LinkMbps: 1600},
		{Batch: 256, Levels: 4, Topology: "ring", LinkMbps: 1600},
		{Batch: 256, Levels: 4, Topology: "htree", LinkMbps: -1},
		{Batch: 256, Levels: 4, Platform: "quantum", Topology: "htree", LinkMbps: 1600},
	}
	for i, c := range bad {
		if err := c.Validate(); !errors.Is(err, hypar.ErrConfig) {
			t.Errorf("bad config %d accepted: %v", i, err)
		}
	}
	// Zero topology/link/platform are valid: Canonical resolves them to
	// the platform defaults.
	blank := hypar.Config{Batch: 256, Levels: 4}
	if err := blank.Validate(); err != nil {
		t.Errorf("blank platform fields rejected: %v", err)
	}
	canon := blank.Canonical()
	if canon.Platform != "hmc" || canon.Topology != "htree" || canon.LinkMbps != 1600 {
		t.Errorf("canonical defaults = %+v, want hmc/htree/1600", canon)
	}
}

// TestPlatformSpecRefusesRepeatedLevel: keys spelling one level two
// ways ("0", "00", "+0", "-0") are refused rather than left to map
// order, which decoded one body to two configs.
func TestPlatformSpecRefusesRepeatedLevel(t *testing.T) {
	for _, body := range []string{
		`{"batch":64,"levels":2,"platforms":{"0":"hmc","00":"gpu-hbm","1":"tpu-systolic"}}`,
		`{"batch":64,"levels":2,"platforms":{"-0":"gpu-hbm","+0":"hmc","1":"hmc"}}`,
		`{"batch":64,"levels":2,"platforms":{"0":"gpu-hbm","1":"hmc","01":"hmc"}}`,
	} {
		var c hypar.Config
		err := json.Unmarshal([]byte(body), &c)
		if !errors.Is(err, hypar.ErrConfig) || !strings.Contains(err.Error(), "named twice") {
			t.Errorf("%s: err %v, want ErrConfig naming the repeated level", body, err)
		}
	}
	var c hypar.Config
	if err := json.Unmarshal([]byte(`{"batch":64,"levels":2,"platforms":{"00":"gpu-hbm","+1":"hmc"}}`), &c); err != nil || c.Platforms != "gpu-hbm,hmc" {
		t.Errorf("one spelling per level decoded to %q, %v", c.Platforms, err)
	}
}

// TestUnknownPlatformUnderSpecHoles: a hole in a per-level spec inherits
// Platform under one rule in Canonical, Validate and the assignment, so
// an unknown Platform that a hole inherits is refused naming it — not
// run as hmc, and not blamed on the spec's length. With no hole left,
// Platform is never read and the spec alone decides.
func TestUnknownPlatformUnderSpecHoles(t *testing.T) {
	for _, tc := range []struct{ body, name string }{
		{`{"batch":64,"levels":3,"platform":"bogus","platforms":{"0":"gpu-hbm","2":"hmc"}}`, "bogus"},
		{`{"batch":64,"levels":3,"platform":"HMC","platforms":{"0":"gpu-hbm","2":"hmc"}}`, "HMC"},
		{`{"batch":64,"levels":2,"platform":"bogus","platforms":{"0":"hmc"}}`, "bogus"},
	} {
		var c hypar.Config
		if err := json.Unmarshal([]byte(tc.body), &c); err != nil {
			t.Fatal(err)
		}
		err := c.Validate()
		if !errors.Is(err, hypar.ErrConfig) || !strings.Contains(err.Error(), `"`+tc.name+`"`) || strings.Contains(err.Error(), "covers") {
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.body, err, tc.name)
		}
		if _, aerr := hypar.AssignmentFor(c); aerr == nil || err == nil || aerr.Error() != err.Error() {
			t.Errorf("%s: AssignmentFor error %v, want Validate's %v", tc.body, aerr, err)
		}
	}
	full := hypar.Config{Batch: 64, Levels: 2, Platform: "bogus", Platforms: "gpu-hbm,hmc"}
	if err := full.Validate(); err != nil {
		t.Errorf("a spec naming every level was refused for its unused platform: %v", err)
	}
	if canon := full.Canonical(); canon.Platform != "" || canon.Platforms != "gpu-hbm,hmc" {
		t.Errorf("canonical form %+v, want the spec alone", canon)
	}
}

// TestCanonicalDepthBound: canonicalizing a spec, or resolving the
// assignment of an unvalidated config, at a depth far past the
// supported bound fails at once instead of building that many levels,
// so a hostile "levels" costs no memory.
func TestCanonicalDepthBound(t *testing.T) {
	c := hypar.Config{Batch: 64, Levels: 1 << 20, Platforms: "hmc"}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var canon hypar.Config
	if grew := allocated(func() { canon = c.Canonical() }); grew > 1<<20 {
		t.Errorf("canonicalizing %d levels allocated %d bytes", c.Levels, grew)
	}
	if canon.Platforms != c.Platforms || c.Validate() == nil {
		t.Errorf("out-of-range depth canonicalized to %+v and validated", canon)
	}
	for _, cc := range []hypar.Config{c, {Levels: c.Levels}} {
		var err error
		if grew := allocated(func() { _, err = hypar.AssignmentFor(cc) }); grew > 1<<20 || err == nil {
			t.Errorf("%+v: AssignmentFor allocated %d bytes, error %v", cc, grew, err)
		}
	}
}

// TestAssignmentForOnePath: at every depth, healthy or degraded, a
// single-platform config resolves to the assignment of its platform
// spelled per level — names, node, partition weights and memories — and
// BuildArch bills each effective level's links at the node memory.
func TestAssignmentForOnePath(t *testing.T) {
	for _, name := range hypar.Platforms() {
		p, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for levels := 0; levels <= 5; levels++ {
			cfgs := []hypar.Config{{Batch: 64, Levels: levels, Platform: name}}
			if levels > 0 {
				cfgs = append(cfgs, hypar.Config{Batch: 64, Levels: levels, Platform: name, Faults: hypar.Faults{Level: 0, Groups: 1}})
			}
			for _, c := range cfgs {
				depth := c.EffectiveLevels()
				full, err := platform.NewAssignment(slices.Repeat([]platform.Platform{p}, max(levels, 1)))
				if err != nil {
					t.Fatal(err)
				}
				want, err := full.Tail(depth)
				if err != nil {
					t.Fatal(err)
				}
				spelled := c
				if levels > 0 {
					spelled.Platform, spelled.Platforms = "", hypar.PlatformSpec(strings.Join(slices.Repeat([]string{name}, levels), ","))
				}
				for _, cc := range []hypar.Config{c, spelled} {
					got, err := hypar.AssignmentFor(cc)
					if err != nil {
						t.Fatalf("%+v: %v", cc, err)
					}
					if got.Node() != p || !slices.Equal(got.Names(), want.Names()) ||
						!slices.Equal(got.PartitionWeights(), want.PartitionWeights()) ||
						!slices.Equal(got.LevelMemories(), want.LevelMemories()) {
						t.Errorf("%+v: assignment %v, want %v", cc, got, want)
					}
					if node, err := hypar.PlatformFor(cc); err != nil || node != p {
						t.Errorf("%+v: PlatformFor = %v, %v; want %s", cc, node, err, name)
					}
					arch, err := hypar.BuildArch(cc)
					if err != nil {
						t.Fatalf("%+v: %v", cc, err)
					}
					if !slices.Equal(arch.LevelMems, slices.Repeat([]platform.Memory{p.Memory()}, depth)) || arch.Mem != p.Memory() {
						t.Errorf("%+v: BuildArch memories %v (node %v), want %d of the node's", cc, arch.LevelMems, arch.Mem, depth)
					}
				}
			}
		}
	}
}

func TestStrategyString(t *testing.T) {
	names := map[hypar.Strategy]string{
		hypar.HyPar:         "HyPar",
		hypar.DataParallel:  "DataParallel",
		hypar.ModelParallel: "ModelParallel",
		hypar.OneWeirdTrick: "OneWeirdTrick",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%v.String() = %q", s, s.String())
		}
	}
	if hypar.Strategy(99).String() != "Strategy(99)" {
		t.Error("unknown strategy string wrong")
	}
}

func TestNewPlanStrategies(t *testing.T) {
	m, err := hypar.ModelByName("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	cfg := hypar.DefaultConfig()
	for _, s := range hypar.Strategies {
		p, err := hypar.NewPlan(m, s, cfg)
		if err != nil {
			t.Fatalf("NewPlan(%v): %v", s, err)
		}
		if p.NumLevels() != 4 || p.NumAccelerators() != 16 {
			t.Errorf("%v: levels=%d accs=%d", s, p.NumLevels(), p.NumAccelerators())
		}
	}
	if _, err := hypar.NewPlan(m, hypar.Strategy(42), cfg); !errors.Is(err, hypar.ErrConfig) {
		t.Errorf("unknown strategy accepted: %v", err)
	}
	badCfg := cfg
	badCfg.Batch = -1
	if _, err := hypar.NewPlan(m, hypar.HyPar, badCfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestBuildArchTopologies(t *testing.T) {
	for _, topo := range []string{"htree", "torus", "ideal"} {
		c := hypar.DefaultConfig()
		c.Topology = topo
		arch, err := hypar.BuildArch(c)
		if err != nil {
			t.Fatalf("BuildArch(%s): %v", topo, err)
		}
		if arch.NoC.Name() != topo {
			t.Errorf("topology = %q, want %q", arch.NoC.Name(), topo)
		}
	}
	bad := hypar.DefaultConfig()
	bad.Topology = "hypercube"
	if _, err := hypar.BuildArch(bad); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestRunAndCompare(t *testing.T) {
	m, err := hypar.ModelByName("Lenet-c")
	if err != nil {
		t.Fatal(err)
	}
	cfg := hypar.DefaultConfig()
	cmp, err := hypar.Compare(m, cfg)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if cmp.Model != "Lenet-c" || len(cmp.Results) != len(hypar.Strategies) {
		t.Errorf("comparison incomplete: %+v", cmp)
	}
	if g := cmp.PerformanceGain(hypar.DataParallel); g != 1 {
		t.Errorf("DP gain = %g, want 1", g)
	}
	if g := cmp.PerformanceGain(hypar.HyPar); g <= 1 {
		t.Errorf("HyPar gain = %g, want > 1 on Lenet-c", g)
	}
	if e := cmp.EnergyEfficiency(hypar.HyPar); e <= 1 {
		t.Errorf("HyPar energy efficiency = %g, want > 1 on Lenet-c", e)
	}
	// Missing strategy yields zero rather than panicking.
	empty := &hypar.Comparison{Results: map[hypar.Strategy]*hypar.Result{}}
	if empty.PerformanceGain(hypar.HyPar) != 0 || empty.EnergyEfficiency(hypar.HyPar) != 0 {
		t.Error("missing strategies should report 0")
	}
}

// TestHeadline reproduces the paper's abstract-level claims on this
// substrate: HyPar beats Data Parallelism in both performance and
// energy on the geometric mean of the ten networks, Model Parallelism
// is the worst overall, and the trick sits between DP and HyPar.
func TestHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-zoo comparison")
	}
	cfg := hypar.DefaultConfig()
	var perfHP, perfMP, effHP float64 = 1, 1, 1
	n := 0
	for _, m := range hypar.Zoo() {
		cmp, err := hypar.Compare(m, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		perfHP *= cmp.PerformanceGain(hypar.HyPar)
		perfMP *= cmp.PerformanceGain(hypar.ModelParallel)
		effHP *= cmp.EnergyEfficiency(hypar.HyPar)
		n++
	}
	pow := 1.0 / float64(n)
	gHP := math.Pow(perfHP, pow)
	gMP := math.Pow(perfMP, pow)
	gEff := math.Pow(effHP, pow)
	if gHP <= 1.3 {
		t.Errorf("HyPar gmean performance gain = %g, want > 1.3 (paper: 3.39)", gHP)
	}
	if gMP >= 1 {
		t.Errorf("MP gmean performance = %g, want < 1 (paper: 0.241)", gMP)
	}
	if gEff <= 1.05 {
		t.Errorf("HyPar gmean energy efficiency = %g, want > 1.05 (paper: 1.51)", gEff)
	}
}

func TestPrecisionConfig(t *testing.T) {
	m, err := hypar.ModelByName("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	comms := map[string]float64{}
	for _, prec := range []string{"fp32", "fp16", "int8"} {
		cfg := hypar.DefaultConfig()
		cfg.Precision = prec
		r, err := hypar.Run(m, hypar.HyPar, cfg)
		if err != nil {
			t.Fatalf("%s: %v", prec, err)
		}
		comms[prec] = r.Stats.CommBytes
	}
	if !(comms["int8"] < comms["fp16"] && comms["fp16"] < comms["fp32"]) {
		t.Errorf("communication should shrink with precision: %v", comms)
	}
	if math.Abs(comms["fp32"]/comms["fp16"]-2) > 1e-9 {
		t.Errorf("fp32/fp16 ratio = %g, want 2", comms["fp32"]/comms["fp16"])
	}
	bad := hypar.DefaultConfig()
	bad.Precision = "fp4"
	if err := bad.Validate(); !errors.Is(err, hypar.ErrConfig) {
		t.Errorf("unknown precision accepted: %v", err)
	}
	if _, err := hypar.BuildArch(bad); err == nil {
		t.Error("BuildArch accepted unknown precision")
	}
}

func TestInferencePlan(t *testing.T) {
	m, err := hypar.ModelByName("VGG-E")
	if err != nil {
		t.Fatal(err)
	}
	p, err := hypar.NewInferencePlan(m, hypar.DefaultConfig())
	if err != nil {
		t.Fatalf("NewInferencePlan: %v", err)
	}
	for l := range m.Layers {
		if s := p.LayerString(l); s != "0000" {
			t.Errorf("inference layer %d = %s, want all dp", l, s)
		}
	}
	if p.TotalElems != 0 {
		t.Errorf("inference communication = %g, want 0", p.TotalElems)
	}
	bad := hypar.DefaultConfig()
	bad.Batch = 0
	if _, err := hypar.NewInferencePlan(m, bad); err == nil {
		t.Error("invalid config accepted")
	}
}
