package nn

import (
	"testing"
	"testing/quick"
)

func TestMACsFC(t *testing.T) {
	shapes, err := SFC().Shapes(256)
	if err != nil {
		t.Fatalf("Shapes: %v", err)
	}
	// fc1: B·Cin·Cout = 256·784·8192.
	want := int64(256) * 784 * 8192
	if got := shapes[0].MACs(Forward); got != want {
		t.Errorf("fc1 forward MACs = %d, want %d", got, want)
	}
	// All phases of a layer have identical MAC counts (Figure 1).
	for _, p := range Phases {
		if got := shapes[0].MACs(p); got != want {
			t.Errorf("fc1 %v MACs = %d, want %d", p, got, want)
		}
	}
}

func TestMACsConv(t *testing.T) {
	shapes, err := LenetC().Shapes(1)
	if err != nil {
		t.Fatalf("Shapes: %v", err)
	}
	// conv1: 24·24·20·5·5·1 MACs per image.
	want := int64(24*24*20) * 25
	if got := shapes[0].MACs(Forward); got != want {
		t.Errorf("conv1 MACs = %d, want %d", got, want)
	}
}

func TestAncillaryOps(t *testing.T) {
	shapes, err := LenetC().Shapes(2)
	if err != nil {
		t.Fatalf("Shapes: %v", err)
	}
	c1 := shapes[0]
	if got := c1.ActOps(); got != c1.Out.Elems() {
		t.Errorf("ActOps = %d, want %d", got, c1.Out.Elems())
	}
	// conv1 pools 2×2: 4 comparisons per carried element.
	if got := c1.PoolOps(); got != c1.Carried.Elems()*4 {
		t.Errorf("PoolOps = %d, want %d", got, c1.Carried.Elems()*4)
	}
	fc2 := shapes[3]
	if got := fc2.PoolOps(); got != 0 {
		t.Errorf("fc PoolOps = %d, want 0", got)
	}
	noAct := LayerShapes{Layer: Layer{Act: NoAct}, Out: c1.Out}
	if got := noAct.ActOps(); got != 0 {
		t.Errorf("NoAct ActOps = %d, want 0", got)
	}
}

// Property: MACs scale linearly in the batch size for every zoo network.
func TestMACsBatchLinearity(t *testing.T) {
	models := Zoo()
	prop := func(mi uint8, b uint8) bool {
		m := models[int(mi)%len(models)]
		batch := int(b%16) + 1
		s1, err := m.Shapes(batch)
		if err != nil {
			return false
		}
		s2, err := m.Shapes(2 * batch)
		if err != nil {
			return false
		}
		for i := range s1 {
			if 2*s1[i].MACs(Forward) != s2[i].MACs(Forward) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPhaseString(t *testing.T) {
	if Forward.String() != "forward" || Backward.String() != "backward" || Gradient.String() != "gradient" {
		t.Error("phase names wrong")
	}
	if Phase(9).String() != "phase?" {
		t.Error("unknown phase name wrong")
	}
	if LayerType(0).String() != "conv" || FC.String() != "fc" {
		t.Error("layer type names wrong")
	}
	for _, a := range []Activation{ReLU, Sigmoid, Tanh, Softmax, NoAct} {
		if a.String() == "" {
			t.Errorf("activation %d has empty name", a)
		}
	}
}
