package partition

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
)

// planDiff describes the first difference between two plans, comparing
// every float as raw bits and every other field, unexported ones
// included, with reflect.DeepEqual; it returns "" for identical plans.
func planDiff(want, got *Plan) string {
	bits := func(name string, a, b []float64) string {
		if len(a) != len(b) {
			return fmt.Sprintf("%s: %d entries, want %d", name, len(b), len(a))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return fmt.Sprintf("%s[%d] = %v, want %v", name, i, b[i], a[i])
			}
		}
		return ""
	}
	if len(want.Details) != len(got.Details) {
		return fmt.Sprintf("%d detail levels, want %d", len(got.Details), len(want.Details))
	}
	for h := range want.Details {
		w, g := want.Details[h], got.Details[h]
		for _, d := range []string{
			bits(fmt.Sprintf("level %d IntraFwd", h), w.IntraFwd, g.IntraFwd),
			bits(fmt.Sprintf("level %d IntraGrad", h), w.IntraGrad, g.IntraGrad),
			bits(fmt.Sprintf("level %d InterF", h), w.InterF, g.InterF),
			bits(fmt.Sprintf("level %d InterE", h), w.InterE, g.InterE),
		} {
			if d != "" {
				return d
			}
		}
	}
	if d := bits("TotalElems", []float64{want.TotalElems}, []float64{got.TotalElems}); d != "" {
		return d
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Sprintf("plans differ: got %+v, want %+v", got, want)
	}
	return ""
}

// TestSweepMatchesEvaluate: every sweep point, filled into a new plan
// or into one that last held another code, equals Evaluate of the same
// levels bit for bit — over the zoo and branched networks, seeded
// random chains and DAGs, depths 1–5, unit and mixed per-level weights,
// random bases and 1–8 random free cells.
func TestSweepMatchesEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	models := append(nn.Zoo(), nn.BranchedZoo()...)
	for i := 0; i < 12; i++ {
		models = append(models, oracleRandomDAG(r, i))
	}
	for i := 0; i < 6; i++ {
		models = append(models, randomModel(r, i))
	}
	// A per-level platform array's weights: gpu-hbm's ring allreduce
	// halves gradients, hmc is the paper's unit model, tpu-systolic's
	// in-array reduction halves partial sums.
	gpu, hmc, tpu := Weights{Grad: 0.5, Psum: 1, Convert: 1}, UnitWeights(), Weights{Grad: 1, Psum: 0.5, Convert: 1}
	mixed := []Weights{gpu, hmc, tpu, tpu, gpu}
	points := 0
	for _, m := range models {
		nl := len(m.Layers)
		for levels := 1; levels <= 5; levels++ {
			for _, ws := range [][]Weights{unit(levels), mixed[:levels]} {
				base := make([]Assignment, levels)
				for h := range base {
					base[h] = make(Assignment, nl)
					for l := range base[h] {
						base[h][l] = comm.Parallelism(r.Intn(2))
					}
				}
				n := 1 + r.Intn(8)
				if n > levels*nl {
					n = levels * nl
				}
				var free []FreeVar
				for _, c := range r.Perm(levels * nl)[:n] {
					free = append(free, FreeVar{Level: c / nl, Layer: c % nl})
				}
				sw, err := NewSweep(m, 32, base, free, ws)
				if err != nil {
					t.Fatalf("%s H=%d: NewSweep: %v", m.Name, levels, err)
				}
				var reused *Plan
				for _, code := range r.Perm(sw.Points()) {
					at := make([]Assignment, levels)
					for h := range at {
						at[h] = base[h].Clone()
					}
					for i, fv := range free {
						at[fv.Level][fv.Layer] = comm.Parallelism(code >> uint(i) & 1)
					}
					want, err := Evaluate(m, 32, at, ws)
					if err != nil {
						t.Fatal(err)
					}
					reused = sw.Fill(reused, code)
					for name, got := range map[string]*Plan{"new": sw.Fill(nil, code), "reused": reused} {
						if d := planDiff(want, got); d != "" {
							t.Fatalf("%s H=%d ws=%v code %d (%s plan): %s", m.Name, levels, ws, code, name, d)
						}
					}
					points++
				}
			}
		}
	}
	t.Logf("%d models, %d points", len(models), points)
}

// TestSweepRefusesRepeatedCell: a free cell listed twice would sweep
// each setting twice, the later bit overriding the earlier, so NewSweep
// refuses it — wherever the repeat sits in the list.
func TestSweepRefusesRepeatedCell(t *testing.T) {
	m := nn.LenetC()
	base := mustHier(t, m, 256, 2).Levels
	for _, free := range [][]FreeVar{
		{{Level: 0, Layer: 1}, {Level: 0, Layer: 1}},
		{{Level: 1, Layer: 3}, {Level: 0, Layer: 0}, {Level: 1, Layer: 2}, {Level: 1, Layer: 3}},
	} {
		sw, err := NewSweep(m, 256, base, free, unit(2))
		if !errors.Is(err, ErrPlan) || !strings.Contains(err.Error(), "given twice") {
			t.Errorf("free %v: sweep %v, err %v; want a repeated-cell ErrPlan", free, sw != nil, err)
		}
	}
}

// TestSweepFillReshapes: a plan not shaped like the sweep's — another
// depth, another model — is replaced by a new plan, not written into.
func TestSweepFillReshapes(t *testing.T) {
	m, _, _, as := sweepInputs(t, 3)
	sw, err := NewSweep(m, 256, as, []FreeVar{{Level: 0, Layer: 0}}, unit(3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(m, 256, as, unit(3))
	if err != nil {
		t.Fatal(err)
	}
	code := int(as[0][0])
	for _, other := range []*Plan{mustHier(t, m, 256, 2), mustHier(t, nn.LenetC(), 256, 3), {}} {
		keep := *other
		got := sw.Fill(other, code)
		if got == other {
			t.Errorf("a %d-level %s plan was written into", len(keep.Levels), keep.Model)
		}
		if !reflect.DeepEqual(*other, keep) {
			t.Errorf("the misshapen plan changed")
		}
		if d := planDiff(want, got); d != "" {
			t.Error(d)
		}
	}
}
