// Package tensor provides shape and volume arithmetic for the dense
// tensors exchanged by a HyPar accelerator array: feature maps (F),
// kernels (W), gradients (∆W) and errors (E).
//
// The package is deliberately free of any numerical payload: HyPar's
// partition search and the architectural simulation only ever need the
// *amounts* of data (element counts and byte volumes) together with the
// hierarchical sharding state imposed by data/model parallelism choices.
package tensor

import (
	"errors"
	"fmt"
)

// ErrShape reports an invalid tensor geometry.
var ErrShape = errors.New("tensor: invalid shape")

// DType enumerates element types used by the accelerator array.
// The paper evaluates with 32-bit floating point throughout.
type DType int

const (
	// Float32 is the paper's default precision.
	Float32 DType = iota
	// Float16 is provided for precision ablations.
	Float16
	// Int8 is provided for quantized-inference ablations.
	Int8
)

// Size returns the size of one element in bytes.
func (d DType) Size() int64 {
	switch d {
	case Float32:
		return 4
	case Float16:
		return 2
	case Int8:
		return 1
	default:
		return 4
	}
}

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Float16:
		return "float16"
	case Int8:
		return "int8"
	default:
		return fmt.Sprintf("DType(%d)", int(d))
	}
}

// FeatureMap describes a batched activation tensor F of size
// B × [H × W × C] (paper §2.1). Errors E share the geometry of the
// feature map they correspond to, so the same type describes both.
type FeatureMap struct {
	B int // batch size
	H int // spatial height
	W int // spatial width
	C int // channels (fc layers use H = W = 1, C = neurons)
}

// Validate reports whether all dimensions are positive.
func (f FeatureMap) Validate() error {
	if f.B <= 0 || f.H <= 0 || f.W <= 0 || f.C <= 0 {
		return fmt.Errorf("%w: feature map %dx%dx%dx%d", ErrShape, f.B, f.H, f.W, f.C)
	}
	return nil
}

// Elems returns the number of elements B·H·W·C.
func (f FeatureMap) Elems() int64 {
	return int64(f.B) * int64(f.H) * int64(f.W) * int64(f.C)
}

// SliceElems returns the per-sample slice size H·W·C.
func (f FeatureMap) SliceElems() int64 {
	return int64(f.H) * int64(f.W) * int64(f.C)
}

// Bytes returns the storage volume for the given element type.
func (f FeatureMap) Bytes(d DType) int64 { return f.Elems() * d.Size() }

// String implements fmt.Stringer.
func (f FeatureMap) String() string {
	return fmt.Sprintf("%d×[%d×%d×%d]", f.B, f.H, f.W, f.C)
}

// Kernel describes a weight tensor W of size [K × K × Cin] × Cout for a
// convolutional layer, or [Cin × Cout] for a fully-connected layer
// (K = 1). The gradient ∆W has the same geometry.
type Kernel struct {
	K    int  // kernel height/width (1 for fc)
	Cin  int  // input channels / input neurons
	Cout int  // output channels / output neurons
	FC   bool // fully-connected layer
}

// NewConvKernel validates and constructs a convolution kernel.
func NewConvKernel(k, cin, cout int) (Kernel, error) {
	w := Kernel{K: k, Cin: cin, Cout: cout}
	if err := w.Validate(); err != nil {
		return Kernel{}, err
	}
	return w, nil
}

// NewFCKernel validates and constructs a fully-connected weight matrix.
func NewFCKernel(cin, cout int) (Kernel, error) {
	w := Kernel{K: 1, Cin: cin, Cout: cout, FC: true}
	if err := w.Validate(); err != nil {
		return Kernel{}, err
	}
	return w, nil
}

// Validate reports whether all dimensions are positive.
func (w Kernel) Validate() error {
	if w.K <= 0 || w.Cin <= 0 || w.Cout <= 0 {
		return fmt.Errorf("%w: kernel [%d×%d×%d]×%d", ErrShape, w.K, w.K, w.Cin, w.Cout)
	}
	if w.FC && w.K != 1 {
		return fmt.Errorf("%w: fc kernel must have K=1, got %d", ErrShape, w.K)
	}
	return nil
}

// Elems returns K·K·Cin·Cout.
func (w Kernel) Elems() int64 {
	return int64(w.K) * int64(w.K) * int64(w.Cin) * int64(w.Cout)
}

// Bytes returns the storage volume for the given element type.
func (w Kernel) Bytes(d DType) int64 { return w.Elems() * d.Size() }

// String implements fmt.Stringer.
func (w Kernel) String() string {
	if w.FC {
		return fmt.Sprintf("%d×%d", w.Cin, w.Cout)
	}
	return fmt.Sprintf("[%d×%d×%d]×%d", w.K, w.K, w.Cin, w.Cout)
}
