// Package pe models the Eyeriss-like row-stationary processing unit on
// each HMC's logic die (paper §5, Figure 4b): a 12×14 array of 168
// processing engines with a 108 KB on-chip buffer and 84.0 GOPS/s of
// computation density at 250 MHz.
//
// In the row-stationary dataflow, kernel rows are held stationary and
// shared horizontally across a PE row, feature-map rows flow diagonally,
// and partial sums accumulate vertically. A layer maps onto the array as
// K (kernel rows) × Hout (output rows) logical strips; the model derives
// array utilization from how well those strips tile 12×14, and derives
// DRAM traffic from how often the limited buffer forces operand
// re-streaming.
package pe

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/nn"
)

// ErrConfig reports an invalid PE configuration.
var ErrConfig = errors.New("pe: invalid config")

// Config describes one row-stationary processing unit.
type Config struct {
	RowsPE     int     // PE array height (12)
	ColsPE     int     // PE array width (14)
	BufferKB   float64 // on-chip buffer (108 KB)
	GOPS       float64 // peak computation density, operations/s (84e9)
	ClockMHz   float64 // logic clock (250 MHz)
	MinUtil    float64 // utilization floor for degenerate mappings
	ElemsBytes float64 // element width in bytes (4 for float32)
}

// Default returns the paper's evaluation configuration.
func Default() Config {
	return Config{
		RowsPE:     12,
		ColsPE:     14,
		BufferKB:   108,
		GOPS:       84e9,
		ClockMHz:   250,
		MinUtil:    0.25,
		ElemsBytes: 4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.RowsPE <= 0 || c.ColsPE <= 0 {
		return fmt.Errorf("%w: PE array %dx%d", ErrConfig, c.RowsPE, c.ColsPE)
	}
	if c.BufferKB <= 0 || c.GOPS <= 0 || c.ClockMHz <= 0 {
		return fmt.Errorf("%w: buffer=%g KB gops=%g clock=%g", ErrConfig, c.BufferKB, c.GOPS, c.ClockMHz)
	}
	if c.MinUtil <= 0 || c.MinUtil > 1 {
		return fmt.Errorf("%w: MinUtil=%g", ErrConfig, c.MinUtil)
	}
	if c.ElemsBytes <= 0 {
		return fmt.Errorf("%w: ElemsBytes=%g", ErrConfig, c.ElemsBytes)
	}
	return nil
}

// PEs returns the PE count (168 for the default array).
func (c Config) PEs() int { return c.RowsPE * c.ColsPE }

// Utilization estimates the fraction of the PE array a layer keeps busy
// under row-stationary mapping. A conv layer occupies K rows (kernel
// rows) by Hout columns (output-row strips); replication across unused
// rows/columns recovers utilization when channels and batch provide
// parallel work, which all training workloads do, so the residual loss
// comes from the ceiling effects of tiling K×Hout strips onto the
// physical array. Fully-connected layers behave as 1×1 convolutions
// whose only spatial axis is the batch.
func (c Config) Utilization(s *nn.LayerShapes) float64 {
	var strips float64
	switch s.Layer.Type {
	case nn.Conv:
		k := float64(s.Kernel.K)
		hout := float64(s.Out.H)
		rows := float64(c.RowsPE)
		cols := float64(c.ColsPE)
		// Ceiling losses when K (kernel rows) or Hout (output-row
		// strips) do not tile the physical array exactly.
		rTiles := math.Ceil(k / rows)
		cTiles := math.Ceil(hout / cols)
		strips = (k / (rTiles * rows)) * (hout / (cTiles * cols))
		// Channel/batch replication fills idle PEs up to the array size.
		fill := math.Min(1, float64(s.Out.Elems())/float64(c.PEs()))
		strips = math.Max(strips, fill*0.85)
	case nn.FC:
		// Matrix-vector work parallelizes over batch and output
		// neurons; the systolic reuse of row stationarity is weaker, so
		// fc sustains a lower fraction of peak.
		occ := math.Min(1, float64(s.Out.Elems())/float64(c.PEs()))
		strips = 0.6 * occ
	}
	return math.Max(c.MinUtil, math.Min(1, strips))
}

// ComputeTime returns the seconds one PU needs to execute the given
// number of MACs for the layer (2 operations per MAC at the sustained
// rate GOPS × utilization).
func (c Config) ComputeTime(macs float64, s *nn.LayerShapes) float64 {
	if macs <= 0 {
		return 0
	}
	return 2 * macs / (c.GOPS * c.Utilization(s))
}

// DRAMTraffic returns the bytes one PU moves to and from its cube DRAM
// for one phase of the layer: each locally held operand element is read
// once and each result element written once (row-stationary reuse keeps
// intra-phase re-reads on chip).
func (c Config) DRAMTraffic(s *nn.LayerShapes, operandBytes, resultBytes float64) float64 {
	return operandBytes + resultBytes
}
