// Package systolic models a TPU-like weight-stationary systolic array
// for the platform-parameterized evaluation: a single large matrix
// unit in the style of the TPU's MXU, fed from a unified on-chip
// buffer over HBM.
//
// In the weight-stationary dataflow the kernel is pre-loaded into the
// array — the contraction dimension (Cin·K·K for conv-as-GEMM, Cin for
// fc) maps onto array rows and the output channels/neurons onto array
// columns — and activations stream through while partial sums
// accumulate in-array. Utilization therefore comes from two effects:
// the ceiling losses of tiling the (contraction × output) matrix onto
// the physical array, and the pipeline fill/drain bubbles that matter
// when the streamed batch·spatial extent is short relative to the
// array's depth.
//
// Default parameters (documented sources):
//
//   - 128×128 MACs at 700 MHz — the published TPU MXU geometry and
//     clock (Jouppi et al., ISCA 2017); peak is 2·128²·700e6 ≈ 22.9
//     TOPS.
//   - 24 MB unified buffer, matching the same reference.
package systolic

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/nn"
)

// ErrConfig reports an invalid systolic-array configuration.
var ErrConfig = errors.New("systolic: invalid config")

// Config describes one weight-stationary systolic compute node.
type Config struct {
	Rows       int     // array height: contraction dimension (128)
	Cols       int     // array width: output dimension (128)
	ClockMHz   float64 // array clock (700 MHz)
	BufferKB   float64 // unified on-chip buffer (24576 KB = 24 MB)
	MinUtil    float64 // utilization floor for degenerate mappings
	ElemsBytes float64 // element width in bytes (4 for float32)
}

// Default returns the TPU-class evaluation configuration.
func Default() Config {
	return Config{
		Rows:       128,
		Cols:       128,
		ClockMHz:   700,
		BufferKB:   24576,
		MinUtil:    0.05,
		ElemsBytes: 4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Rows <= 0 || c.Cols <= 0 {
		return fmt.Errorf("%w: array %dx%d", ErrConfig, c.Rows, c.Cols)
	}
	if c.ClockMHz <= 0 || c.BufferKB <= 0 {
		return fmt.Errorf("%w: clock=%g MHz buffer=%g KB", ErrConfig, c.ClockMHz, c.BufferKB)
	}
	if c.MinUtil <= 0 || c.MinUtil > 1 {
		return fmt.Errorf("%w: MinUtil=%g", ErrConfig, c.MinUtil)
	}
	if c.ElemsBytes <= 0 {
		return fmt.Errorf("%w: ElemsBytes=%g", ErrConfig, c.ElemsBytes)
	}
	return nil
}

// GOPS returns the peak throughput in operations/s (2 ops per MAC per
// cycle across the array).
func (c Config) GOPS() float64 {
	return 2 * float64(c.Rows) * float64(c.Cols) * c.ClockMHz * 1e6
}

// Utilization estimates the fraction of the array a layer keeps busy
// under weight-stationary mapping: tiling ceilings of the contraction ×
// output matrix onto Rows×Cols, times the pipeline fill efficiency of
// the streamed activation extent.
func (c Config) Utilization(s *nn.LayerShapes) float64 {
	// Contraction rows and output columns of the layer-as-GEMM.
	contract := float64(s.Kernel.Cin) * float64(s.Kernel.K) * float64(s.Kernel.K)
	out := float64(s.Kernel.Cout)

	rows, cols := float64(c.Rows), float64(c.Cols)
	rTiles := math.Ceil(contract / rows)
	cTiles := math.Ceil(out / cols)
	tiling := (contract / (rTiles * rows)) * (out / (cTiles * cols))

	// Streamed extent: one activation column per output position per
	// sample. Short streams leave the pipeline mostly filling/draining.
	stream := float64(s.Out.B) * float64(s.Out.H) * float64(s.Out.W)
	fill := stream / (stream + rows + cols)

	return math.Max(c.MinUtil, math.Min(1, tiling*fill))
}

// ComputeTime returns the seconds one node needs to execute the given
// number of MACs for the layer (2 operations per MAC at the sustained
// rate).
func (c Config) ComputeTime(macs float64, s *nn.LayerShapes) float64 {
	if macs <= 0 {
		return 0
	}
	return 2 * macs / (c.GOPS() * c.Utilization(s))
}

// DRAMTraffic returns the bytes one node moves to and from HBM for one
// phase of the layer. Weight-stationary reuse keeps the pre-loaded
// kernel tile resident while activations stream, so — like the
// row-stationary model — each operand element is charged once and each
// result element once.
func (c Config) DRAMTraffic(s *nn.LayerShapes, operandBytes, resultBytes float64) float64 {
	return operandBytes + resultBytes
}
