// Package gpu models a GPU-like HBM accelerator node for the
// platform-parameterized evaluation: a V100-class device with tens of
// streaming multiprocessors behind a multi-hundred-GB/s HBM2 stack.
//
// The model follows the same shape as internal/pe (the paper's
// row-stationary unit): a peak throughput, a layer-dependent sustained
// utilization, and a charge-each-operand-once DRAM traffic model. The
// utilization model is occupancy-based rather than dataflow-based —
// a GPU fills its SMs with whatever thread-level parallelism the layer
// offers (output elements for conv-as-implicit-GEMM, batch × neurons
// for fc), so sustained throughput tracks how well the layer's work
// saturates the resident-thread budget.
//
// Default parameters (documented sources):
//
//   - 80 SMs × 2048 resident threads, 15.7 TFLOPS fp32 peak — the
//     NVIDIA V100 (Volta) datasheet configuration.
//   - Conv sustains ≤ 65% of peak (large-GEMM efficiency of library
//     kernels); fc sustains ≤ 35% (matrix-vector work is
//     bandwidth-bound).
package gpu

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/nn"
)

// ErrConfig reports an invalid GPU configuration.
var ErrConfig = errors.New("gpu: invalid config")

// Config describes one GPU-like compute node.
type Config struct {
	SMs          int     // streaming multiprocessors (80, V100-class)
	ThreadsPerSM int     // resident threads per SM (2048)
	GOPS         float64 // peak fp32 throughput, operations/s (15.7e12)
	ConvPeak     float64 // sustained fraction of peak for conv GEMMs (0.65)
	FCPeak       float64 // sustained fraction of peak for fc GEMV (0.35)
	MinUtil      float64 // utilization floor for degenerate workloads
	ElemsBytes   float64 // element width in bytes (4 for float32)
}

// Default returns the V100-class evaluation configuration.
func Default() Config {
	return Config{
		SMs:          80,
		ThreadsPerSM: 2048,
		GOPS:         15.7e12,
		ConvPeak:     0.65,
		FCPeak:       0.35,
		MinUtil:      0.05,
		ElemsBytes:   4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SMs <= 0 || c.ThreadsPerSM <= 0 {
		return fmt.Errorf("%w: %d SMs × %d threads", ErrConfig, c.SMs, c.ThreadsPerSM)
	}
	if c.GOPS <= 0 {
		return fmt.Errorf("%w: peak %g ops/s", ErrConfig, c.GOPS)
	}
	if c.ConvPeak <= 0 || c.ConvPeak > 1 || c.FCPeak <= 0 || c.FCPeak > 1 {
		return fmt.Errorf("%w: sustained fractions conv=%g fc=%g", ErrConfig, c.ConvPeak, c.FCPeak)
	}
	if c.MinUtil <= 0 || c.MinUtil > 1 {
		return fmt.Errorf("%w: MinUtil=%g", ErrConfig, c.MinUtil)
	}
	if c.ElemsBytes <= 0 {
		return fmt.Errorf("%w: ElemsBytes=%g", ErrConfig, c.ElemsBytes)
	}
	return nil
}

// Threads returns the device-wide resident-thread budget.
func (c Config) Threads() float64 { return float64(c.SMs) * float64(c.ThreadsPerSM) }

// Utilization estimates the fraction of peak throughput a layer
// sustains: the library-kernel efficiency for the layer class, scaled
// by how completely the layer's thread-level parallelism fills the
// resident-thread budget.
func (c Config) Utilization(s *nn.LayerShapes) float64 {
	occ := math.Min(1, float64(s.Out.Elems())/c.Threads())
	var util float64
	switch s.Layer.Type {
	case nn.Conv:
		util = c.ConvPeak * occ
	case nn.FC:
		util = c.FCPeak * occ
	}
	return math.Max(c.MinUtil, math.Min(1, util))
}

// ComputeTime returns the seconds one node needs to execute the given
// number of MACs for the layer (2 operations per MAC at the sustained
// rate).
func (c Config) ComputeTime(macs float64, s *nn.LayerShapes) float64 {
	if macs <= 0 {
		return 0
	}
	return 2 * macs / (c.GOPS * c.Utilization(s))
}

// DRAMTraffic returns the bytes one node moves to and from its HBM for
// one phase of the layer: each operand element is read once and each
// result element written once (the large L2 and register tiling of
// library kernels keep intra-phase re-reads on chip, the same
// accounting convention the row-stationary model uses).
func (c Config) DRAMTraffic(s *nn.LayerShapes, operandBytes, resultBytes float64) float64 {
	return operandBytes + resultBytes
}
