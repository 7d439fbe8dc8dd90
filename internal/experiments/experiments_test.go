package experiments

import (
	"math"
	"strings"
	"testing"

	hypar "repro"
)

func cfg() hypar.Config { return hypar.DefaultConfig() }

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %g, want 4", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %g, want 0", g)
	}
	if g := geomean([]float64{1, 0}); g != 0 {
		t.Errorf("geomean with zero = %g, want 0", g)
	}
}

func TestFig5(t *testing.T) {
	tb, err := NewSession(cfg()).Fig5()
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	// One row per weighted layer across the zoo: 4+4+4+5+8+11+13+16+16+19.
	if got, want := tb.NumRows(), 100; got != want {
		t.Errorf("Fig5 rows = %d, want %d", got, want)
	}
	out := tb.String()
	// SCONV rows must be all-dp at all levels (paper Figure 5b).
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "SCONV") && !strings.Contains(line, "0000") {
			t.Errorf("SCONV line not all dp: %s", line)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	tb, err := NewSession(cfg()).Fig6()
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if tb.NumRows() != 11 { // 10 networks + gmean
		t.Errorf("Fig6 rows = %d, want 11", tb.NumRows())
	}
	out := tb.String()
	if !strings.Contains(out, "Gmean") {
		t.Errorf("Fig6 missing gmean row:\n%s", out)
	}
}

func TestFig7Shape(t *testing.T) {
	tb, err := NewSession(cfg()).Fig7()
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if tb.NumRows() != 11 {
		t.Errorf("Fig7 rows = %d, want 11", tb.NumRows())
	}
}

func TestFig8Shape(t *testing.T) {
	tb, err := NewSession(cfg()).Fig8()
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	if tb.NumRows() != 11 {
		t.Errorf("Fig8 rows = %d, want 11", tb.NumRows())
	}
}

func TestFig9(t *testing.T) {
	tb, ex, err := NewSession(cfg()).Fig9()
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	if len(ex.Points) != 256 {
		t.Errorf("Fig9 points = %d, want 256", len(ex.Points))
	}
	// Paper: the peak of the swept space *is* HyPar's own point.
	if ex.Peak.Gain > ex.HyPar.Gain*1.02 {
		t.Errorf("Fig9 peak %g far above HyPar %g", ex.Peak.Gain, ex.HyPar.Gain)
	}
	if tb.NumRows() < 3 {
		t.Errorf("Fig9 table too small: %d rows", tb.NumRows())
	}
}

func TestFig10(t *testing.T) {
	_, ex, err := NewSession(cfg()).Fig10()
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	if len(ex.Points) != 256 {
		t.Errorf("Fig10 points = %d, want 256", len(ex.Points))
	}
	// Paper: HyPar lands within a few percent of the sweep's peak
	// (4.97 vs 5.05 in the paper) but need not reach it, because the
	// greedy hierarchical search optimizes communication as a proxy.
	if ex.HyPar.Gain < ex.Peak.Gain*0.9 {
		t.Errorf("Fig10 HyPar %g more than 10%% below peak %g", ex.HyPar.Gain, ex.Peak.Gain)
	}
	if ex.Peak.Gain < 1 {
		t.Errorf("Fig10 peak %g below the DP baseline", ex.Peak.Gain)
	}
}

func TestFig11(t *testing.T) {
	tb, points, err := NewSession(cfg()).Fig11(6)
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	if len(points) != 7 { // 1..64 accelerators
		t.Fatalf("Fig11 points = %d, want 7", len(points))
	}
	if tb.NumRows() != 7 {
		t.Errorf("Fig11 rows = %d", tb.NumRows())
	}
	if points[0].GainHyPar != 1 || points[0].GainDP != 1 {
		t.Errorf("single-accelerator gains = %g, %g; want 1, 1",
			points[0].GainHyPar, points[0].GainDP)
	}
	for _, p := range points {
		if p.GainHyPar < p.GainDP*(1-1e-9) {
			t.Errorf("%d accelerators: HyPar gain %g below DP gain %g",
				p.Accelerators, p.GainHyPar, p.GainDP)
		}
		if p.CommHyPar > p.CommDP*(1+1e-9) {
			t.Errorf("%d accelerators: HyPar comm %g above DP comm %g",
				p.Accelerators, p.CommHyPar, p.CommDP)
		}
	}
	// Paper: HyPar scales while DP stops scaling. Under this NoC model
	// DP saturates (its gain per doubling collapses) rather than
	// declining outright — EXPERIMENTS.md records the deviation. Check
	// both trends: DP's marginal gain at the last doubling is small,
	// HyPar's stays close to ideal.
	n := len(points)
	dpMarginal := points[n-1].GainDP / points[n-2].GainDP
	hpMarginal := points[n-1].GainHyPar / points[n-2].GainHyPar
	if dpMarginal > 1.4 {
		t.Errorf("DP gain still scaling at 64 accelerators: marginal %g", dpMarginal)
	}
	if hpMarginal < 1.5 {
		t.Errorf("HyPar gain stopped scaling: marginal %g", hpMarginal)
	}
	if points[n-1].GainHyPar < 2*points[n-1].GainDP {
		t.Errorf("HyPar gain %g not well above DP gain %g at 64 accelerators",
			points[n-1].GainHyPar, points[n-1].GainDP)
	}
}

func TestFig12(t *testing.T) {
	tb, err := NewSession(cfg()).Fig12()
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	if tb.NumRows() != 11 {
		t.Errorf("Fig12 rows = %d, want 11", tb.NumRows())
	}
	out := tb.String()
	if !strings.Contains(out, "Torus") || !strings.Contains(out, "HTree") {
		t.Errorf("Fig12 missing columns:\n%s", out)
	}
}

func TestFig13(t *testing.T) {
	tb, err := NewSession(cfg()).Fig13()
	if err != nil {
		t.Fatalf("Fig13: %v", err)
	}
	if tb.NumRows() != 7 { // six cases + gmean
		t.Errorf("Fig13 rows = %d, want 7", tb.NumRows())
	}
	out := tb.String()
	for _, want := range []string{"conv5-b32-h2", "fc3-b4096-h4", "Gmean"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig13 missing %q:\n%s", want, out)
		}
	}
}

func TestAblations(t *testing.T) {
	if tb, err := NewSession(cfg()).AblationDepth(5, "VGG-A"); err != nil || tb.NumRows() != 5 {
		t.Errorf("AblationDepth: rows=%v err=%v", tb, err)
	}
	if tb, err := NewSession(cfg()).AblationTopology("AlexNet"); err != nil || tb.NumRows() != 3 {
		t.Errorf("AblationTopology: err=%v", err)
	}
	if tb, err := NewSession(cfg()).AblationBatch("AlexNet"); err != nil || tb.NumRows() != 5 {
		t.Errorf("AblationBatch: err=%v", err)
	}
	if tb, err := NewSession(cfg()).AblationLinkBandwidth("VGG-A"); err != nil || tb.NumRows() != 6 {
		t.Errorf("AblationLinkBandwidth: err=%v", err)
	}
	if tb, err := NewSession(cfg()).AblationOverlap("VGG-A"); err != nil || tb.NumRows() != 4 {
		t.Errorf("AblationOverlap: err=%v", err)
	}
	if tb, err := NewSession(cfg()).AblationPrecision("VGG-A"); err != nil || tb.NumRows() != 3 {
		t.Errorf("AblationPrecision: err=%v", err)
	}
	if _, err := NewSession(cfg()).AblationDepth(3, "nope"); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := NewSession(cfg()).AblationTopology("nope"); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := NewSession(cfg()).AblationBatch("nope"); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := NewSession(cfg()).AblationLinkBandwidth("nope"); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := NewSession(cfg()).AblationOverlap("nope"); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := NewSession(cfg()).AblationPrecision("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}
