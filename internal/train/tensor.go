// Package train is the numerical training substrate of the HyPar
// reproduction: real forward, error-backward and gradient computation
// for the paper's layer types (convolution with padding/stride, max
// pooling, ReLU/softmax, fully-connected), a mini-batch SGD loop, and
// two parallel executors. HierarchicalFC runs hybrid-parallel training
// of an fc network across the 2^H workers of any hierarchical plan the
// way the HyPar array would and *counts the actual remote accesses* at
// every level, validating the analytic communication model
// (Tables 1-2) empirically; DPPair runs data-parallel training of any
// layer mix, convolutions and pooling included, across two groups.
//
// The architectural simulator (internal/sim) never touches numbers —
// the paper's results are about communication, time and energy. This
// package exists to prove the partition semantics are sound: a plan's
// dp/mp sharding must reproduce single-device training exactly, and its
// measured exchange volumes must meet what the plan records.
// Values are float64 for verification fidelity; the architecture model
// accounts storage and traffic at the paper's 32-bit precision
// independently.
package train

import (
	"errors"
	"fmt"
	"math"
)

// ErrTrain reports an invalid numerical-substrate input.
var ErrTrain = errors.New("train: invalid input")

// Tensor is a dense row-major float64 tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// NewTensor allocates a zero tensor with the given shape.
func NewTensor(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("%w: tensor dim %d", ErrTrain, d)
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: make([]float64, n)}, nil
}

// Len returns the element count.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	s := make([]int, len(t.Shape))
	copy(s, t.Shape)
	d := make([]float64, len(t.Data))
	copy(d, t.Data)
	return &Tensor{Shape: s, Data: d}
}

// Zero clears the tensor in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// AddScaled accumulates a*x into t (shapes must match in length).
func (t *Tensor) AddScaled(x *Tensor, a float64) error {
	if len(t.Data) != len(x.Data) {
		return fmt.Errorf("%w: AddScaled length %d vs %d", ErrTrain, len(t.Data), len(x.Data))
	}
	for i := range t.Data {
		t.Data[i] += a * x.Data[i]
	}
	return nil
}

// MaxAbsDiff returns the largest absolute element difference between
// two equal-length tensors.
func MaxAbsDiff(a, b *Tensor) (float64, error) {
	if len(a.Data) != len(b.Data) {
		return 0, fmt.Errorf("%w: MaxAbsDiff length %d vs %d", ErrTrain, len(a.Data), len(b.Data))
	}
	var m float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m, nil
}

// rng is a small deterministic PRNG (xorshift64*) so weight
// initialization is reproducible without math/rand plumbing.
type rng struct{ state uint64 }

// newRNG seeds the generator (zero seeds are remapped).
func newRNG(seed int64) *rng {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &rng{state: s}
}

// next returns the next raw 64-bit value.
func (r *rng) next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// normal returns a standard normal value (Box-Muller).
func (r *rng) normal() float64 {
	u1 := r.float64()
	for u1 == 0 {
		u1 = r.float64()
	}
	u2 := r.float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// fillNormal initializes the tensor with N(0, std²) values.
func (t *Tensor) fillNormal(r *rng, std float64) {
	for i := range t.Data {
		t.Data[i] = r.normal() * std
	}
}
