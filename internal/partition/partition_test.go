package partition

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

const gb = 1024 * 1024 * 1024

// unit repeats the paper's unit cost weights for levels hierarchy
// levels: the per-level weights of the single-platform HMC array.
func unit(levels int) []Weights {
	ws := make([]Weights, levels)
	for h := range ws {
		ws[h] = UnitWeights()
	}
	return ws
}

func mustHier(t *testing.T, m *nn.Model, batch, levels int) *Plan {
	t.Helper()
	p, err := Solve(Request{Model: m, Batch: batch, Levels: unit(levels)})
	if err != nil {
		t.Fatalf("Solve(%s): %v", m.Name, err)
	}
	return p
}

func mustDP(t *testing.T, m *nn.Model, batch, levels int) *Plan {
	t.Helper()
	p, err := DataParallel(m, batch, unit(levels))
	if err != nil {
		t.Fatalf("DataParallel(%s): %v", m.Name, err)
	}
	return p
}

func mustMP(t *testing.T, m *nn.Model, batch, levels int) *Plan {
	t.Helper()
	p, err := ModelParallel(m, batch, unit(levels))
	if err != nil {
		t.Fatalf("ModelParallel(%s): %v", m.Name, err)
	}
	return p
}

// TestTwoWayOptimal checks Algorithm 1 against exhaustive enumeration of
// all 2^L single-level assignments for every zoo network.
func TestTwoWayOptimal(t *testing.T) {
	for _, m := range nn.Zoo() {
		shapes, err := m.Shapes(64)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		amounts := make([]comm.LayerAmounts, len(shapes))
		for i := range shapes {
			amounts[i] = comm.Amounts(shapes[i], tensor.Shard{})
		}
		got, assign := twoWayWith(amounts, unitCosts)
		if len(assign) != len(shapes) {
			t.Fatalf("%s: assignment length %d", m.Name, len(assign))
		}
		if c := assignmentCost(amounts, assign); math.Abs(c-got) > 1e-6*math.Max(1, got) {
			t.Errorf("%s: TwoWay cost %g but its assignment costs %g", m.Name, got, c)
		}
		nl := len(shapes)
		best := math.Inf(1)
		a := make(Assignment, nl)
		for code := 0; code < 1<<uint(nl); code++ {
			for b := 0; b < nl; b++ {
				if code&(1<<uint(b)) != 0 {
					a[b] = comm.MP
				} else {
					a[b] = comm.DP
				}
			}
			if c := assignmentCost(amounts, a); c < best {
				best = c
			}
		}
		if math.Abs(best-got) > 1e-6*math.Max(1, best) {
			t.Errorf("%s: TwoWay=%g, brute force=%g", m.Name, got, best)
		}
	}
}

func TestTwoWayEmpty(t *testing.T) {
	c, a := twoWayWith(nil, unitCosts)
	if c != 0 || a != nil {
		t.Errorf("twoWayWith(nil) = %g, %v", c, a)
	}
}

// TestHierarchicalMatchesEvaluate: replaying the hierarchical plan's own
// assignments through the reference evaluator yields the same totals.
func TestHierarchicalMatchesEvaluate(t *testing.T) {
	for _, m := range nn.Zoo() {
		p := mustHier(t, m, 256, 4)
		q, err := Evaluate(m, 256, p.Levels, unit(4))
		if err != nil {
			t.Fatalf("%s Evaluate: %v", m.Name, err)
		}
		if math.Abs(p.TotalElems-q.TotalElems) > 1e-6*math.Max(1, p.TotalElems) {
			t.Errorf("%s: Hierarchical=%g Evaluate=%g", m.Name, p.TotalElems, q.TotalElems)
		}
	}
}

// TestHyParBeatsBaselines: the optimized partition never communicates
// more than default Data or Model Parallelism (Figure 8's ordering).
func TestHyParBeatsBaselines(t *testing.T) {
	for _, m := range nn.Zoo() {
		hp := mustHier(t, m, 256, 4)
		dp := mustDP(t, m, 256, 4)
		mp := mustMP(t, m, 256, 4)
		if hp.TotalElems > dp.TotalElems*(1+1e-9) {
			t.Errorf("%s: HyPar %g > DP %g", m.Name, hp.TotalElems, dp.TotalElems)
		}
		if hp.TotalElems > mp.TotalElems*(1+1e-9) {
			t.Errorf("%s: HyPar %g > MP %g", m.Name, hp.TotalElems, mp.TotalElems)
		}
	}
}

// TestDPAnchors pins the Data Parallelism totals the communication model
// reproduces exactly from the paper's Figure 8: SFC 16.9 GB and VGG-A
// 15.9 GB per step at batch 256 with sixteen accelerators.
func TestDPAnchors(t *testing.T) {
	sfc := mustDP(t, nn.SFC(), 256, 4)
	if got := sfc.TotalBytes(tensor.Float32) / gb; got < 15.0 || got > 16.5 {
		// 15·2·140,722,176·4 B = 15.72 GiB ≈ paper's 16.9 GB (decimal).
		t.Errorf("SFC DP total = %.2f GiB, want ≈15.7", got)
	}
	if got := sfc.TotalBytes(tensor.Float32) / 1e9; got < 16.4 || got > 17.4 {
		t.Errorf("SFC DP total = %.2f decimal GB, paper reports 16.9", got)
	}
	vgga := mustDP(t, nn.VGGA(), 256, 4)
	if got := vgga.TotalBytes(tensor.Float32) / 1e9; got < 15.4 || got > 16.5 {
		t.Errorf("VGG-A DP total = %.2f decimal GB, paper reports 15.9", got)
	}
}

// TestSCONVAllDP: Figure 5(b) — the all-convolutional extreme case
// optimizes to data parallelism at every layer and level.
func TestSCONVAllDP(t *testing.T) {
	p := mustHier(t, nn.SCONV(), 256, 4)
	for h, a := range p.Levels {
		for l, c := range a {
			if c != comm.DP {
				t.Errorf("SCONV level %d layer %d = %v, want dp", h, l, c)
			}
		}
	}
	dp := mustDP(t, nn.SCONV(), 256, 4)
	if math.Abs(p.TotalElems-dp.TotalElems) > 1e-6*dp.TotalElems {
		t.Errorf("SCONV HyPar %g != DP %g", p.TotalElems, dp.TotalElems)
	}
}

// TestSFCMostlyMP: Figure 5(a) — the all-fc extreme case prefers model
// parallelism nearly everywhere, and HyPar still beats pure MP.
func TestSFCMostlyMP(t *testing.T) {
	p := mustHier(t, nn.SFC(), 256, 4)
	mpCount := 0
	for _, a := range p.Levels {
		for _, c := range a {
			if c == comm.MP {
				mpCount++
			}
		}
	}
	total := len(p.Levels) * len(p.Levels[0])
	if mpCount < total*3/4 {
		t.Errorf("SFC chose mp for %d/%d cells, expected a large majority", mpCount, total)
	}
	mp := mustMP(t, nn.SFC(), 256, 4)
	if p.TotalElems > mp.TotalElems {
		t.Errorf("SFC HyPar %g > MP %g", p.TotalElems, mp.TotalElems)
	}
}

// TestVGGConvDPFCMP: Figure 5 — in large networks convolutional layers
// optimize to dp and fully-connected layers to mp at the top level.
func TestVGGConvDPFCMP(t *testing.T) {
	m := nn.VGGA()
	p := mustHier(t, m, 256, 4)
	top := p.Levels[0]
	for l, layer := range m.Layers {
		if layer.Type == nn.Conv && top[l] != comm.DP {
			t.Errorf("VGG-A %s @H1 = %v, want dp", layer.Name, top[l])
		}
		if layer.Name == "fc1" || layer.Name == "fc2" {
			if top[l] != comm.MP {
				t.Errorf("VGG-A %s @H1 = %v, want mp", layer.Name, top[l])
			}
		}
	}
}

// TestHierarchicalBruteForceSmall: on a tiny model and shallow
// hierarchy, exhaustive search confirms the greedy level-by-level DP is
// optimal at H=1 and near-optimal at H=2 (the paper itself shows the
// greedy plan can miss the global optimum slightly, Figure 10).
func TestHierarchicalBruteForceSmall(t *testing.T) {
	m := nn.LenetC()
	h1 := mustHier(t, m, 64, 1)
	b1, err := Solve(Request{Model: m, Batch: 64, Levels: unit(1), Method: MethodBrute})
	if err != nil {
		t.Fatalf("BruteForce: %v", err)
	}
	if math.Abs(h1.TotalElems-b1.TotalElems) > 1e-6*math.Max(1, b1.TotalElems) {
		t.Errorf("H=1: hierarchical %g != brute force %g", h1.TotalElems, b1.TotalElems)
	}
	h2 := mustHier(t, m, 64, 2)
	b2, err := Solve(Request{Model: m, Batch: 64, Levels: unit(2), Method: MethodBrute})
	if err != nil {
		t.Fatalf("BruteForce: %v", err)
	}
	if b2.TotalElems > h2.TotalElems*(1+1e-9) {
		t.Errorf("H=2: brute force %g worse than greedy %g", b2.TotalElems, h2.TotalElems)
	}
	if h2.TotalElems > b2.TotalElems*1.25 {
		t.Errorf("H=2: greedy %g is >25%% off optimum %g", h2.TotalElems, b2.TotalElems)
	}
}

func TestBruteForceTooLarge(t *testing.T) {
	if _, err := Solve(Request{Model: nn.VGGE(), Batch: 256, Levels: unit(4), Method: MethodBrute}); !errors.Is(err, ErrPlan) {
		t.Errorf("oversized brute force accepted: %v", err)
	}
}

func TestOneWeirdTrick(t *testing.T) {
	m := nn.AlexNet()
	p, err := OneWeirdTrick(m, 256, unit(4))
	if err != nil {
		t.Fatalf("OneWeirdTrick: %v", err)
	}
	for h, a := range p.Levels {
		for l, layer := range m.Layers {
			want := comm.DP
			if layer.Type == nn.FC {
				want = comm.MP
			}
			if a[l] != want {
				t.Errorf("trick level %d %s = %v, want %v", h, layer.Name, a[l], want)
			}
		}
	}
	// HyPar communicates no more than the trick (§6.5.2).
	hp := mustHier(t, m, 256, 4)
	if hp.TotalElems > p.TotalElems*(1+1e-9) {
		t.Errorf("HyPar %g > trick %g", hp.TotalElems, p.TotalElems)
	}
}

func TestEvaluateErrors(t *testing.T) {
	m := nn.LenetC()
	if _, err := Evaluate(m, 64, []Assignment{make(Assignment, 3)}, unit(1)); !errors.Is(err, ErrPlan) {
		t.Errorf("wrong-width assignment accepted: %v", err)
	}
	if _, err := Evaluate(m, 64, []Assignment{make(Assignment, 4)}, unit(2)); !errors.Is(err, ErrPlan) {
		t.Errorf("weights for the wrong depth accepted: %v", err)
	}
	if _, err := Solve(Request{Model: m, Batch: 64, Levels: unit(30)}); !errors.Is(err, ErrPlan) {
		t.Errorf("absurd depth accepted: %v", err)
	}
	if _, err := Solve(Request{Model: m, Batch: 0, Levels: unit(2)}); err == nil {
		t.Error("zero batch accepted")
	}
}

func TestPlanAccessors(t *testing.T) {
	p := mustHier(t, nn.LenetC(), 64, 4)
	if p.NumLevels() != 4 || p.NumAccelerators() != 16 {
		t.Errorf("levels=%d accs=%d", p.NumLevels(), p.NumAccelerators())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if s := p.LayerString(0); len(s) != 4 {
		t.Errorf("LayerString = %q", s)
	}
	if s := p.Levels[0].String(); len(s) != 4 {
		t.Errorf("Assignment.String = %q", s)
	}
	if got := p.At(0, 0); got != p.Levels[0][0] {
		t.Errorf("At(0,0) = %v", got)
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); !errors.Is(err, ErrPlan) {
		t.Errorf("nil plan accepted: %v", err)
	}
	bad := &Plan{Levels: []Assignment{make(Assignment, 2), make(Assignment, 3)}}
	if err := bad.Validate(); !errors.Is(err, ErrPlan) {
		t.Errorf("ragged plan accepted: %v", err)
	}
	bad2 := &Plan{Levels: []Assignment{{comm.Parallelism(9)}}}
	if err := bad2.Validate(); !errors.Is(err, ErrPlan) {
		t.Errorf("invalid parallelism accepted: %v", err)
	}
}

func TestSweep(t *testing.T) {
	m := nn.LenetC()
	hp := mustHier(t, m, 256, 4)
	free := []FreeVar{{Level: 0, Layer: 0}, {Level: 0, Layer: 1}}
	sw, err := NewSweep(m, 256, hp.Levels, free, unit(4))
	if err != nil {
		t.Fatalf("NewSweep: %v", err)
	}
	if sw.Points() != 4 {
		t.Fatalf("sweep points = %d, want 4", sw.Points())
	}
	// The point whose bits match HyPar's own choices must cost the same.
	var hpCode int
	for i, fv := range free {
		if hp.Levels[fv.Level][fv.Layer] == comm.MP {
			hpCode |= 1 << uint(i)
		}
	}
	pt := sw.Fill(nil, hpCode)
	if math.Abs(pt.TotalElems-hp.TotalElems) > 1e-6*hp.TotalElems {
		t.Errorf("sweep point %d = %g, HyPar = %g", hpCode, pt.TotalElems, hp.TotalElems)
	}
	// Error paths.
	if _, err := NewSweep(m, 256, hp.Levels, []FreeVar{{Level: 9, Layer: 0}}, unit(4)); !errors.Is(err, ErrPlan) {
		t.Errorf("bad level accepted: %v", err)
	}
	if _, err := NewSweep(m, 256, hp.Levels, []FreeVar{{Level: 0, Layer: 9}}, unit(4)); !errors.Is(err, ErrPlan) {
		t.Errorf("bad layer accepted: %v", err)
	}
	if _, err := NewSweep(m, 256, hp.Levels, make([]FreeVar, 21), unit(4)); !errors.Is(err, ErrPlan) {
		t.Errorf("oversized exploration accepted: %v", err)
	}
	if _, err := NewSweep(m, 256, hp.Levels, free, unit(3)); !errors.Is(err, ErrPlan) {
		t.Errorf("3 weight sets for a 4-level base accepted: %v", err)
	}
	if _, err := NewSweep(m, 256, []Assignment{make(Assignment, 3)}, nil, unit(1)); !errors.Is(err, ErrPlan) {
		t.Errorf("3-layer base for a 4-layer model accepted: %v", err)
	}
	if _, err := NewSweep(m, 256, []Assignment{{0, 1, 2, 0}}, nil, unit(1)); !errors.Is(err, ErrPlan) {
		t.Errorf("invalid parallelism in the base accepted: %v", err)
	}
}

// TestUnitWeightsArePaperModel: the unit-weight cost model reproduces
// the paper's Tables 1-2 bit for bit (x·1 = x exactly), so plans scored
// at UnitWeights are the unweighted model's plans.
func TestUnitWeightsArePaperModel(t *testing.T) {
	ps := []comm.Parallelism{comm.DP, comm.MP}
	for _, m := range append(nn.Zoo(), nn.BranchedZoo()...) {
		shapes, err := m.Shapes(64)
		if err != nil {
			t.Fatal(err)
		}
		for l := range shapes {
			a := comm.Amounts(shapes[l], tensor.Shard{})
			for _, p := range ps {
				if got, want := unitCosts.intra(p, a), comm.Intra(p, a); got != want {
					t.Errorf("%s layer %d: intra(%v) = %g, want %g", m.Name, l, p, got, want)
				}
				for _, q := range ps {
					if got, want := unitCosts.interF(p, q, a), comm.InterF(p, q, a); got != want {
						t.Errorf("%s layer %d: interF(%v, %v) = %g, want %g", m.Name, l, p, q, got, want)
					}
					if got, want := unitCosts.interE(p, q, a), comm.InterE(p, q, a); got != want {
						t.Errorf("%s layer %d: interE(%v, %v) = %g, want %g", m.Name, l, p, q, got, want)
					}
				}
			}
		}
	}
}

// TestEvaluateScoresEachLevelWithItsWeights: level h's volumes depend
// on ws[h] alone, so a level keeps its bits when a different level's
// weights change — whether or not adjacent levels share a cost model.
func TestEvaluateScoresEachLevelWithItsWeights(t *testing.T) {
	m := nn.AlexNet()
	u, w := UnitWeights(), Weights{Grad: 0.5, Psum: 2, Convert: 3}
	levels := mustHier(t, m, 64, 3).Levels
	eval := func(ws ...Weights) *Plan {
		t.Helper()
		p, err := Evaluate(m, 64, levels, ws)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mixed, allU, allW := eval(u, w, w), eval(u, u, u), eval(w, w, w)
	if !reflect.DeepEqual(mixed.Details[0], allU.Details[0]) {
		t.Error("level 0 scored with another level's weights")
	}
	for h := 1; h < 3; h++ {
		if !reflect.DeepEqual(mixed.Details[h], allW.Details[h]) {
			t.Errorf("level %d scored with another level's weights", h)
		}
	}
	if reflect.DeepEqual(mixed.Details[1], allU.Details[1]) {
		t.Error("level 1 ignores its weights")
	}
}

// TestLevelMonotonicity: per-pair volumes never grow as we descend the
// hierarchy — every level halves at least one tensor dimension of every
// layer.
func TestLevelMonotonicity(t *testing.T) {
	for _, m := range nn.Zoo() {
		p := mustHier(t, m, 256, 4)
		prev := math.Inf(1)
		for h := range p.Details {
			pp := p.PerPairElems(h)
			if pp > prev*(1+1e-9) {
				t.Errorf("%s: level %d per-pair %g > level %d per-pair %g",
					m.Name, h, pp, h-1, prev)
			}
			prev = pp
		}
	}
}
