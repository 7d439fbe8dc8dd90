package experiments

import (
	"math"
	"testing"

	hypar "repro"
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

// TestHeteroExploreScoresEachLevel: a sweep over a mixed array scores
// every level with its own platform's weights, the objective the base
// plan was solved under, so Figure 9's HyPar point reproduces Run's
// HyPar step bit for bit.
func TestHeteroExploreScoresEachLevel(t *testing.T) {
	m, err := hypar.ModelByName("Lenet-c")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []hypar.PlatformSpec{
		"gpu-hbm,hmc,hmc,hmc",
		"hmc,gpu-hbm,gpu-hbm,gpu-hbm",
		"tpu-systolic,hmc,hmc,hmc",
	} {
		cfg := hypar.DefaultConfig()
		cfg.Platforms = spec
		_, ex, err := NewSession(cfg).Fig9()
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
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
			t.Errorf("%s: sweep's HyPar gain %v, Run's step ratio %v", spec, ex.HyPar.Gain, want)
		}
	}
}
