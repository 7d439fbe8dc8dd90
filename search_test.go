package hypar_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	hypar "repro"
	"repro/internal/nn"
	"repro/internal/partition"
)

// wideFork builds a DAG with `branches` parallel conv paths between one
// stem and one fc join — frontier width = branches, so 18 exceeds the
// exact graph DP's compiled-in cap of 16.
func wideFork(branches int) *hypar.Model {
	m := &nn.Model{Name: fmt.Sprintf("wide-fork-%d", branches), Input: nn.Input{H: 8, W: 8, C: 3}}
	m.Layers = append(m.Layers, nn.Layer{Name: "stem", Type: nn.Conv, K: 3, Pad: 1, Cout: 4, Act: nn.ReLU})
	var ins []string
	for i := 0; i < branches; i++ {
		name := fmt.Sprintf("b%d", i)
		m.Layers = append(m.Layers, nn.Layer{
			Name: name, Type: nn.Conv, K: 3, Pad: 1, Cout: 4, Act: nn.ReLU, Inputs: []string{"stem"},
		})
		ins = append(ins, name)
	}
	m.Layers = append(m.Layers, nn.Layer{Name: "join", Type: nn.FC, Cout: 10, Inputs: ins, Act: nn.Softmax})
	return m
}

// TestConfigSearchCanonical: search-method spellings canonicalize so
// equal-semantics configs marshal identically (the request-hash
// property), and the default spelling stays byte-identical to the
// pre-searchMethod wire format.
func TestConfigSearchCanonical(t *testing.T) {
	base := hypar.DefaultConfig().Canonical()
	spelled := hypar.DefaultConfig()
	spelled.SearchMethod = "Hierarchical"
	spelled.BeamWidth = 99 // meaningless without beam: dropped
	a, _ := json.Marshal(base)
	b, _ := json.Marshal(spelled.Canonical())
	if string(a) != string(b) {
		t.Errorf("explicit default search method changes canonical JSON:\n%s\n%s", a, b)
	}
	if got := string(a); len(got) > 0 && (reflect.DeepEqual(got, "") || containsAny(got, "searchMethod", "beamWidth")) {
		t.Errorf("default canonical JSON mentions search fields: %s", got)
	}

	beam := hypar.DefaultConfig()
	beam.SearchMethod = "BEAM"
	cb := beam.Canonical()
	if cb.SearchMethod != "beam" || cb.BeamWidth != partition.DefaultBeamWidth {
		t.Errorf("beam canonical = %q width %d, want beam/%d", cb.SearchMethod, cb.BeamWidth, partition.DefaultBeamWidth)
	}
	if err := beam.Validate(); err != nil {
		t.Errorf("beam config invalid: %v", err)
	}

	for name, mutate := range map[string]func(*hypar.Config){
		"unknown method": func(c *hypar.Config) { c.SearchMethod = "quantum" },
		"negative width": func(c *hypar.Config) { c.SearchMethod = "beam"; c.BeamWidth = -1 },
		"huge width":     func(c *hypar.Config) { c.SearchMethod = "beam"; c.BeamWidth = 1 << 20 },
	} {
		c := hypar.DefaultConfig()
		mutate(&c)
		if err := c.Validate(); !errors.Is(err, hypar.ErrConfig) {
			t.Errorf("%s: Validate = %v, want ErrConfig", name, err)
		}
	}
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if len(sub) > 0 && len(s) >= len(sub) {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
		}
	}
	return false
}

// TestBeamPlansWideGraph: the facade refuses a frontier-width-18 DAG
// under the default exact search and plans it under searchMethod beam —
// all the way through a simulated step.
func TestBeamPlansWideGraph(t *testing.T) {
	m := wideFork(18)
	cfg := hypar.DefaultConfig()
	cfg.Batch = 16
	cfg.Levels = 2

	if _, err := hypar.NewPlan(m, hypar.HyPar, cfg); !errors.Is(err, partition.ErrTooWide) {
		t.Fatalf("exact search on width-18 DAG = %v, want ErrTooWide", err)
	}

	cfg.SearchMethod = "beam"
	plan, err := hypar.NewPlan(m, hypar.HyPar, cfg)
	if err != nil {
		t.Fatalf("beam search: %v", err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := hypar.Run(m, hypar.HyPar, cfg)
	if err != nil {
		t.Fatalf("beam Run: %v", err)
	}
	if res.Stats == nil || res.Stats.StepSeconds <= 0 {
		t.Error("beam plan simulated to a degenerate step")
	}

	// The brute method also routes through the facade (exhaustive
	// reference on a small chain).
	small, err := hypar.ModelByName("Lenet-c")
	if err != nil {
		t.Fatal(err)
	}
	bcfg := hypar.DefaultConfig()
	bcfg.Levels = 2
	bcfg.SearchMethod = "brute"
	bplan, err := hypar.NewPlan(small, hypar.HyPar, bcfg)
	if err != nil {
		t.Fatalf("brute via facade: %v", err)
	}
	hcfg := bcfg
	hcfg.SearchMethod = ""
	hplan, err := hypar.NewPlan(small, hypar.HyPar, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	if bplan.TotalElems != hplan.TotalElems {
		t.Errorf("brute %g != hierarchical %g on a chain (both exact)", bplan.TotalElems, hplan.TotalElems)
	}
}

// TestPlanOptionsWarmSweep: a caller that hands each plan back as the
// next one's PlanOptions.Warm while sweeping a dimension that does not
// touch the partition inputs (link bandwidth) re-plans with zero new DP
// cells, and the warm plans match cold solves exactly.
func TestPlanOptionsWarmSweep(t *testing.T) {
	m, err := hypar.ModelByName("VGG-A")
	if err != nil {
		t.Fatal(err)
	}
	cfg := hypar.DefaultConfig()
	warm, err := hypar.NewPlan(m, hypar.HyPar, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, link := range []float64{800, 3200, 6400} {
		swept := cfg
		swept.LinkMbps = link
		before := partition.DPCells()
		plan, err := hypar.NewPlanOpts(nil, m, hypar.HyPar, swept, hypar.PlanOptions{Warm: warm})
		if err != nil {
			t.Fatal(err)
		}
		if d := partition.DPCells() - before; d != 0 {
			t.Errorf("link %g: warm sweep evaluated %d DP cells, want 0 (bandwidth does not enter the DP)", link, d)
		}
		cold, err := hypar.NewPlan(m, hypar.HyPar, swept)
		if err != nil {
			t.Fatal(err)
		}
		if plan.TotalElems != cold.TotalElems || !reflect.DeepEqual(plan.Levels, cold.Levels) {
			t.Errorf("link %g: warm plan differs from cold plan", link)
		}
		warm = plan
	}

	// A batch change mutates every level's amounts: the warm hint must
	// be ignored, not mis-applied.
	swept := cfg
	swept.Batch = 64
	plan, err := hypar.NewPlanOpts(nil, m, hypar.HyPar, swept, hypar.PlanOptions{Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := hypar.NewPlan(m, hypar.HyPar, swept)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalElems != cold.TotalElems || !reflect.DeepEqual(plan.Levels, cold.Levels) {
		t.Error("batch-swept warm plan differs from cold plan")
	}
}
