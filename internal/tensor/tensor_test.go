package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestDTypeSize(t *testing.T) {
	tests := []struct {
		d    DType
		want int64
	}{
		{Float32, 4},
		{Float16, 2},
		{Int8, 1},
		{DType(99), 4}, // unknown defaults to float32 width
	}
	for _, tt := range tests {
		if got := tt.d.Size(); got != tt.want {
			t.Errorf("DType(%v).Size() = %d, want %d", tt.d, got, tt.want)
		}
	}
}

func TestDTypeString(t *testing.T) {
	if Float32.String() != "float32" || Float16.String() != "float16" || Int8.String() != "int8" {
		t.Errorf("unexpected dtype names: %v %v %v", Float32, Float16, Int8)
	}
	if DType(42).String() != "DType(42)" {
		t.Errorf("unknown dtype string = %q", DType(42).String())
	}
}

func TestFeatureMapElems(t *testing.T) {
	// The paper's fc example (§3.1): F_l is 32×70.
	f := FeatureMap{B: 32, H: 1, W: 1, C: 70}
	if got := f.Elems(); got != 32*70 {
		t.Errorf("Elems() = %d, want %d", got, 32*70)
	}
	if got := f.Bytes(Float32); got != 32*70*4 {
		t.Errorf("Bytes() = %d, want %d", got, 32*70*4)
	}
	if got := f.SliceElems(); got != 70 {
		t.Errorf("SliceElems() = %d, want 70", got)
	}
}

func TestFeatureMapValidate(t *testing.T) {
	bad := []FeatureMap{
		{B: 0, H: 1, W: 1, C: 1},
		{B: 1, H: -1, W: 1, C: 1},
		{B: 1, H: 1, W: 0, C: 1},
		{B: 1, H: 1, W: 1, C: -5},
	}
	for _, f := range bad {
		if err := f.Validate(); !errors.Is(err, ErrShape) {
			t.Errorf("Validate(%+v) = %v, want ErrShape", f, err)
		}
	}
}

func TestKernelElems(t *testing.T) {
	// Paper §3.4 conv example: W_l of size [5×5×20]×50 → 25000 elements,
	// 100 KB at float32 (the paper's 200 KB counts both directions).
	w, err := NewConvKernel(5, 20, 50)
	if err != nil {
		t.Fatalf("NewConvKernel: %v", err)
	}
	if got := w.Elems(); got != 5*5*20*50 {
		t.Errorf("Elems() = %d, want %d", got, 5*5*20*50)
	}
	// Paper §3.1 fc example: 70×100 weight matrix.
	m, err := NewFCKernel(70, 100)
	if err != nil {
		t.Fatalf("NewFCKernel: %v", err)
	}
	if got := m.Elems(); got != 7000 {
		t.Errorf("fc Elems() = %d, want 7000", got)
	}
	if got := m.Bytes(Float32); got != 28000 {
		t.Errorf("fc Bytes() = %d, want 28000", got)
	}
}

func TestKernelValidate(t *testing.T) {
	if _, err := NewConvKernel(0, 3, 8); !errors.Is(err, ErrShape) {
		t.Errorf("zero-K kernel accepted: %v", err)
	}
	if _, err := NewFCKernel(-1, 10); !errors.Is(err, ErrShape) {
		t.Errorf("negative-Cin fc kernel accepted: %v", err)
	}
	w := Kernel{K: 3, Cin: 4, Cout: 8, FC: true}
	if err := w.Validate(); !errors.Is(err, ErrShape) {
		t.Errorf("fc kernel with K=3 accepted: %v", err)
	}
}

func TestKernelString(t *testing.T) {
	w, _ := NewConvKernel(5, 20, 50)
	if got := w.String(); got != "[5×5×20]×50" {
		t.Errorf("conv String() = %q", got)
	}
	m, _ := NewFCKernel(70, 100)
	if got := m.String(); got != "70×100" {
		t.Errorf("fc String() = %q", got)
	}
}

func TestShardApply(t *testing.T) {
	var s Shard
	s = s.Apply(true).Apply(false).Apply(true)
	if s.DP != 2 || s.MP != 1 {
		t.Errorf("shard after dp,mp,dp = %+v", s)
	}
	if s.Levels() != 3 {
		t.Errorf("Levels() = %d, want 3", s.Levels())
	}
}

func TestShardValidate(t *testing.T) {
	if err := (Shard{DP: -1}).Validate(); !errors.Is(err, ErrShape) {
		t.Errorf("negative shard accepted: %v", err)
	}
	if err := (Shard{DP: 2, MP: 3}).Validate(); err != nil {
		t.Errorf("valid shard rejected: %v", err)
	}
}

func TestShardAmounts(t *testing.T) {
	f := FeatureMap{B: 256, H: 14, W: 14, C: 512}
	w := Kernel{K: 3, Cin: 512, Cout: 512}

	s := Shard{DP: 1, MP: 2}
	if got, want := s.KernelElems(w), float64(w.Elems())/4; got != want {
		t.Errorf("KernelElems = %g, want %g", got, want)
	}
	if got, want := s.InputElems(f), float64(f.Elems())/8; got != want {
		t.Errorf("InputElems = %g, want %g", got, want)
	}
	if got, want := s.OutputElems(f), float64(f.Elems())/2; got != want {
		t.Errorf("OutputElems = %g, want %g", got, want)
	}
}

// Property: sharding never increases any amount, and applying one more
// level divides the affected amounts by exactly two.
func TestShardMonotoneProperty(t *testing.T) {
	prop := func(dp, mp uint8, b, h, w, c uint8) bool {
		s := Shard{DP: int(dp % 8), MP: int(mp % 8)}
		f := FeatureMap{B: int(b%32) + 1, H: int(h%16) + 1, W: int(w%16) + 1, C: int(c%64) + 1}
		k := Kernel{K: 3, Cin: int(c%64) + 1, Cout: int(b%64) + 1}

		base := float64(f.Elems())
		if s.InputElems(f) > base || s.OutputElems(f) > base {
			return false
		}
		if s.KernelElems(k) > float64(k.Elems()) {
			return false
		}
		// One more dp level halves input and output maps, keeps kernel.
		d := s.Apply(true)
		if math.Abs(d.InputElems(f)-s.InputElems(f)/2) > 1e-9 {
			return false
		}
		if math.Abs(d.OutputElems(f)-s.OutputElems(f)/2) > 1e-9 {
			return false
		}
		if d.KernelElems(k) != s.KernelElems(k) {
			return false
		}
		// One more mp level halves input map and kernel, keeps output map.
		m := s.Apply(false)
		if math.Abs(m.InputElems(f)-s.InputElems(f)/2) > 1e-9 {
			return false
		}
		if m.OutputElems(f) != s.OutputElems(f) {
			return false
		}
		if math.Abs(m.KernelElems(k)-s.KernelElems(k)/2) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
