package experiments

import (
	"fmt"
	"math"
	"testing"

	hypar "repro"
	"repro/internal/partition"
)

// TestHeteroShiftsOptimum pins the point of the heterogeneous table: at
// least one mixed per-level assignment produces a HyPar plan whose
// dp/mp choices differ from every homogeneous platform's plan — the
// per-level cost model moves the optimum somewhere no single-platform
// array would go.
func TestHeteroShiftsOptimum(t *testing.T) {
	m, err := hypar.ModelByName("Lenet-c")
	if err != nil {
		t.Fatal(err)
	}
	base := hypar.DefaultConfig()

	homogeneous := make(map[string]*hypar.Plan)
	for _, p := range hypar.Platforms() {
		cfg := base
		cfg.Platform = p
		plan, err := hypar.NewPlan(m, hypar.HyPar, cfg)
		if err != nil {
			t.Fatalf("homogeneous %s: %v", p, err)
		}
		homogeneous[p] = plan
	}

	shifted := false
	for _, spec := range heteroSpecs(base.Levels) {
		cfg := base
		cfg.Platforms = spec
		plan, err := hypar.NewPlan(m, hypar.HyPar, cfg)
		if err != nil {
			t.Fatalf("mixed %s: %v", spec, err)
		}
		differsFromAll := true
		for p, hom := range homogeneous {
			if samePlanAssignments(plan, hom) {
				t.Logf("mixed %s matches homogeneous %s", spec, p)
				differsFromAll = false
			}
		}
		if differsFromAll {
			shifted = true
		}
	}
	if !shifted {
		t.Error("no mixed assignment produced a plan differing from every homogeneous baseline")
	}
}

// TestHeteroTableNeedsDepth pins the precondition: a hierarchy with
// fewer than two levels has no platform seam to mix across.
func TestHeteroTableNeedsDepth(t *testing.T) {
	cfg := hypar.DefaultConfig()
	cfg.Levels = 1
	if _, err := NewSession(cfg).HeteroTable(); err == nil {
		t.Error("HeteroTable accepted a 1-level hierarchy")
	}
}

// TestHeteroExploreScoresEachLevel: a sweep scores every level with its
// own platform's weights, the objective the base plan was solved under,
// and prices each point's step as Simulate would, so the sweep's HyPar
// point reproduces Run's HyPar step ratio bit for bit — Run being the
// independent reference for both of the sweep's paths. Figure 9 runs on
// three mixed arrays; level-0 sweeps run on uniform hmc, gpu-hbm and
// tpu-systolic arrays at depths 1–5, fp16 and int8, overlapped gradient
// exchange, a degraded array and a branched network (the last two walk
// no running sum: they fill and simulate each point).
func TestHeteroExploreScoresEachLevel(t *testing.T) {
	lenet, err := hypar.ModelByName("Lenet-c")
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, m *hypar.Model, cfg hypar.Config, ex *Exploration, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dp, err := hypar.Run(m, hypar.DataParallel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hp, err := hypar.Run(m, hypar.HyPar, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := dp.Stats.StepSeconds / hp.Stats.StepSeconds
		if math.Float64bits(ex.HyPar.Gain) != math.Float64bits(want) {
			t.Errorf("%s: sweep's HyPar gain %v, Run's step ratio %v", name, ex.HyPar.Gain, want)
		}
	}
	for _, spec := range []hypar.PlatformSpec{
		"gpu-hbm,hmc,hmc,hmc",
		"hmc,gpu-hbm,gpu-hbm,gpu-hbm",
		"tpu-systolic,hmc,hmc,hmc",
	} {
		cfg := hypar.DefaultConfig()
		cfg.Platforms = spec
		_, ex, err := NewSession(cfg).Fig9()
		check(string(spec), lenet, cfg, ex, err)
	}

	type sweepCase struct {
		name string
		m    *hypar.Model
		cfg  hypar.Config
	}
	var cases []sweepCase
	for levels := 1; levels <= 5; levels++ {
		for _, p := range hypar.Platforms() {
			cfg := hypar.DefaultConfig()
			cfg.Platform, cfg.Levels = p, levels
			cases = append(cases, sweepCase{fmt.Sprintf("%s H=%d", p, levels), lenet, cfg})
		}
	}
	variant := func(name string, m *hypar.Model, set func(*hypar.Config)) {
		cfg := hypar.DefaultConfig()
		set(&cfg)
		cases = append(cases, sweepCase{name, m, cfg})
	}
	variant("fp16", lenet, func(c *hypar.Config) { c.Precision = "fp16" })
	variant("int8", lenet, func(c *hypar.Config) { c.Precision = "int8"; c.Platform = "tpu-systolic" })
	variant("overlap", lenet, func(c *hypar.Config) { c.OverlapGradComm = true })
	variant("degraded", lenet, func(c *hypar.Config) { c.Faults = hypar.Faults{Level: 1, Groups: 2} })
	incep, err := hypar.ModelByName("Incep-2")
	if err != nil {
		t.Fatal(err)
	}
	variant("branched", incep, func(*hypar.Config) {})
	for _, c := range cases {
		var free []partition.FreeVar
		for l := 0; l < len(c.m.Layers) && l < 6; l++ {
			free = append(free, partition.FreeVar{Level: 0, Layer: l})
		}
		ex, err := NewSession(c.cfg).Explore(c.m, free, nil)
		check(c.name, c.m, c.cfg, ex, err)
	}
}
