package comm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestFCWorkedExample reproduces the paper's §3.1/§3.4 fully-connected
// example: batch 32, 70 inputs, 100 outputs, two accelerators.
// data parallelism exchanges 56 KB, model parallelism 25.6 KB.
func TestFCWorkedExample(t *testing.T) {
	m := &nn.Model{
		Name:   "fc-example",
		Input:  nn.Input{H: 1, W: 1, C: 70},
		Layers: []nn.Layer{nn.FCLayer("fc", 100)},
	}
	shapes, err := m.Shapes(32)
	if err != nil {
		t.Fatalf("Shapes: %v", err)
	}
	a := Amounts(&shapes[0], tensor.Shard{})

	dpBytes := ExchangedBytes(Intra(DP, a), tensor.Float32)
	if dpBytes != 2*70*100*4 {
		t.Errorf("dp exchange = %g B, want 56000 B", dpBytes)
	}
	mpBytes := ExchangedBytes(Intra(MP, a), tensor.Float32)
	if mpBytes != 2*32*100*4 {
		t.Errorf("mp exchange = %g B, want 25600 B", mpBytes)
	}
	if mpBytes >= dpBytes {
		t.Errorf("fc layer should favor mp: dp=%g mp=%g", dpBytes, mpBytes)
	}
}

// TestConvWorkedExample reproduces the paper's §3.4 convolutional
// example: F_l 12×12×20, W_l [5×5×20]×50, F_{l+1} 8×8×50, batch 32.
// data parallelism exchanges 200 KB, model parallelism 819 KB.
func TestConvWorkedExample(t *testing.T) {
	m := &nn.Model{
		Name:   "conv-example",
		Input:  nn.Input{H: 12, W: 12, C: 20},
		Layers: []nn.Layer{nn.ConvLayer("conv", 5, 50)},
	}
	shapes, err := m.Shapes(32)
	if err != nil {
		t.Fatalf("Shapes: %v", err)
	}
	if shapes[0].Out.H != 8 || shapes[0].Out.W != 8 {
		t.Fatalf("conv output = %v, want 8×8×50", shapes[0].Out)
	}
	a := Amounts(&shapes[0], tensor.Shard{})

	dpBytes := ExchangedBytes(Intra(DP, a), tensor.Float32)
	if dpBytes != 2*5*5*20*50*4 {
		t.Errorf("dp exchange = %g B, want 200000 B", dpBytes)
	}
	mpBytes := ExchangedBytes(Intra(MP, a), tensor.Float32)
	if mpBytes != 2*32*8*8*50*4 {
		t.Errorf("mp exchange = %g B, want 819200 B", mpBytes)
	}
	if dpBytes >= mpBytes {
		t.Errorf("conv layer should favor dp: dp=%g mp=%g", dpBytes, mpBytes)
	}
}

// TestVGGEConv5Fc3 reproduces the §6.5.2 analysis that explains why the
// "one weird trick" misconfigures VGG-E: for conv5 blocks
// A(∆W) < A(F_{l+1}) at batch 32, and for fc3 the two are equal.
func TestVGGEConv5Fc3(t *testing.T) {
	shapes, err := nn.VGGE().Shapes(32)
	if err != nil {
		t.Fatalf("Shapes: %v", err)
	}
	var conv5, fc3 *nn.LayerShapes
	for i := range shapes {
		switch shapes[i].Layer.Name {
		case "conv5_1":
			conv5 = &shapes[i]
		case "fc3":
			fc3 = &shapes[i]
		}
	}
	if conv5 == nil || fc3 == nil {
		t.Fatal("conv5_1 or fc3 not found")
	}
	ac := Amounts(conv5, tensor.Shard{})
	if ac.DW != 512*512*9 {
		t.Errorf("conv5 A(∆W) = %g, want %d", ac.DW, 512*512*9)
	}
	if ac.FOut != 32*512*14*14 {
		t.Errorf("conv5 A(F) = %g, want %d", ac.FOut, 32*512*14*14)
	}
	if !(ac.DW < ac.FOut) {
		t.Error("paper: conv5 at b32 has A(∆W) < A(F_{l+1})")
	}
	af := Amounts(fc3, tensor.Shard{})
	// fc3: Ci=4096, Co=1000; at batch 4096 the two amounts tie
	// (§6.5.2 uses B=4096 for the fc comparison).
	shapes4096, err := nn.VGGE().Shapes(4096)
	if err != nil {
		t.Fatalf("Shapes(4096): %v", err)
	}
	af = Amounts(&shapes4096[len(shapes4096)-1], tensor.Shard{})
	if af.DW != af.FOut {
		t.Errorf("fc3 at b4096: A(∆W)=%g A(F)=%g, want equal", af.DW, af.FOut)
	}
}

func TestInterTable2(t *testing.T) {
	a := LayerAmounts{FOut: 999, FBound: 100, EBound: 60}
	tests := []struct {
		prev, cur Parallelism
		want      float64
	}{
		{DP, DP, 0},
		{DP, MP, 0.25*100 + 0.25*60},
		{MP, MP, 0.5 * 60},
		{MP, DP, 0.5 * 60},
	}
	for _, tt := range tests {
		if got := InterF(tt.prev, tt.cur, a) + InterE(tt.prev, tt.cur, a); got != tt.want {
			t.Errorf("InterF+InterE(%v,%v) = %g, want %g", tt.prev, tt.cur, got, tt.want)
		}
	}
}

func TestIntraTable1(t *testing.T) {
	a := LayerAmounts{DW: 7, FOut: 13}
	if got := Intra(DP, a); got != 7 {
		t.Errorf("Intra(dp) = %g, want A(∆W)=7", got)
	}
	if got := Intra(MP, a); got != 13 {
		t.Errorf("Intra(mp) = %g, want A(F)=13", got)
	}
	if got := Intra(Parallelism(9), a); got != 0 {
		t.Errorf("Intra(invalid) = %g, want 0", got)
	}
}

func TestParallelismString(t *testing.T) {
	if DP.String() != "dp" || MP.String() != "mp" {
		t.Error("parallelism names wrong")
	}
	if Parallelism(7).String() != "Parallelism(7)" {
		t.Error("invalid parallelism name wrong")
	}
	if DP.Mark() != '0' || MP.Mark() != '1' {
		t.Error("figure marks wrong")
	}
}

// Property: inference (forward only, no gradient) always favors full
// data parallelism — intra cost is zero only without gradients, and
// dp-dp inter cost is zero (paper §3.3 observation).
func TestDPDPFreeProperty(t *testing.T) {
	prop := func(f, e uint32) bool {
		a := LayerAmounts{FBound: float64(f % 1e6), EBound: float64(e % 1e6)}
		if InterF(DP, DP, a)+InterE(DP, DP, a) != 0 {
			return false
		}
		// All other transitions cost at least as much.
		for _, p := range []Parallelism{DP, MP} {
			for _, c := range []Parallelism{DP, MP} {
				if InterF(p, c, a)+InterE(p, c, a) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: sharded amounts shrink monotonically with extra levels and
// are consistent between Amounts and the underlying shard arithmetic.
func TestAmountsShardProperty(t *testing.T) {
	shapes, err := nn.VGGA().Shapes(256)
	if err != nil {
		t.Fatalf("Shapes: %v", err)
	}
	prop := func(li, dp, mp uint8) bool {
		s := &shapes[int(li)%len(shapes)]
		sh := tensor.Shard{DP: int(dp % 5), MP: int(mp % 5)}
		a := Amounts(s, sh)
		base := Amounts(s, tensor.Shard{})
		wantDW := base.DW / math.Pow(2, float64(sh.MP))
		wantF := base.FOut / math.Pow(2, float64(sh.DP))
		return math.Abs(a.DW-wantDW) < 1e-6 && math.Abs(a.FOut-wantF) < 1e-6 &&
			a.EBound == a.FBound && a.FBound <= a.FOut
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
