package platform

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/noc"
	"repro/internal/partition"
	"repro/internal/pe"
	"repro/internal/systolic"
)

// basic is the shared implementation of the built-in platforms: a named
// bundle of cost models with a fixed topology menu.
type basic struct {
	name     string
	desc     string
	comp     Compute
	mem      Memory
	topos    []string // first entry is the native default
	linkMbps float64
	weights  partition.Weights
}

// Name implements Platform.
func (b *basic) Name() string { return b.name }

// Describe implements Platform.
func (b *basic) Describe() string { return b.desc }

// Compute implements Platform.
func (b *basic) Compute() Compute { return b.comp }

// Memory implements Platform.
func (b *basic) Memory() Memory { return b.mem }

// Topologies implements Platform.
func (b *basic) Topologies() []string {
	out := make([]string, len(b.topos))
	copy(out, b.topos)
	return out
}

// DefaultLinkMbps implements Platform.
func (b *basic) DefaultLinkMbps() float64 { return b.linkMbps }

// NewTopology implements Platform.
func (b *basic) NewTopology(name string, levels int, linkMbps float64) (noc.Topology, error) {
	for _, t := range b.topos {
		if t == name {
			return newGenericTopology(name, levels, linkMbps)
		}
	}
	return nil, fmt.Errorf("%w: platform %q does not support topology %q (supported: %v)",
		ErrPlatform, b.name, name, b.topos)
}

// PartitionWeights implements Platform.
func (b *basic) PartitionWeights() partition.Weights { return b.weights }

// Validate implements Platform.
func (b *basic) Validate() error {
	if err := b.comp.Validate(); err != nil {
		return err
	}
	if err := b.mem.Validate(); err != nil {
		return err
	}
	if len(b.topos) == 0 {
		return fmt.Errorf("%w: platform %q has no topologies", ErrPlatform, b.name)
	}
	if b.linkMbps <= 0 {
		return fmt.Errorf("%w: platform %q default link %g Mb/s", ErrPlatform, b.name, b.linkMbps)
	}
	return b.weights.Validate()
}

var (
	hmcPlatform = &basic{
		name:     "hmc",
		desc:     "HMC + Eyeriss-style row-stationary PU array on an H-tree (the paper's platform)",
		comp:     pe.Default(),
		mem:      hmc.Default(),
		topos:    []string{"htree", "torus", "ideal"},
		linkMbps: 1600, // paper §6.1: 1600 Mb/s serial links
		weights:  partition.UnitWeights(),
	}

	gpuPlatform = &basic{
		name: "gpu-hbm",
		desc: "V100-class HBM accelerator array on an NVLink-style torus",
		comp: gpu.Default(),
		// The hmc.Config structure doubles as the generic local-memory +
		// energy table; here it carries HBM2 constants: 900 GB/s and
		// 32 GB per node (V100 datasheet), ~3.9 pJ/bit HBM access ≈
		// 125 pJ/32 b, NVLink SerDes ~8 pJ/bit ≈ 256 pJ/32 b, with the
		// Horowitz arithmetic constants shared across platforms so the
		// energy comparison isolates memory and fabric differences.
		mem: hmc.Config{
			BandwidthGBs: 900,
			CapacityGB:   32,
			EnergyAddPJ:  0.9,
			EnergyMulPJ:  3.7,
			EnergySRAMPJ: 5.0,
			EnergyDRAMPJ: 125,
			EnergyLinkPJ: 256,
		},
		topos:    []string{"torus", "htree", "ideal"},
		linkMbps: 200000, // NVLink 2.0: 25 GB/s per link per direction
		// NCCL-style ring allreduce streams gradient partial sums
		// through both torus directions concurrently, halving the
		// effective per-link gradient volume relative to the pairwise
		// exchange the paper's recursion assumes.
		weights: partition.Weights{Grad: 0.5, Psum: 1, Convert: 1},
	}

	tpuPlatform = &basic{
		name: "tpu-systolic",
		desc: "TPU-class weight-stationary systolic array on an ICI-style torus",
		comp: systolic.Default(),
		// HBM constants per node: 900 GB/s and 16 GB (TPU v3-class),
		// HBM access ≈ 125 pJ/32 b, ICI SerDes ~10 pJ/bit ≈
		// 320 pJ/32 b, shared Horowitz arithmetic constants.
		mem: hmc.Config{
			BandwidthGBs: 900,
			CapacityGB:   16,
			EnergyAddPJ:  0.9,
			EnergyMulPJ:  3.7,
			EnergySRAMPJ: 5.0,
			EnergyDRAMPJ: 125,
			EnergyLinkPJ: 320,
		},
		topos:    []string{"torus", "htree", "ideal"},
		linkMbps: 496000, // TPU v2 ICI link rate, 496 Gb/s
		// Partial sums accumulate inside the systolic array as
		// activations stream, so the mp output aggregation exchanges
		// already-reduced halves: the effective partial-sum volume
		// crossing the fabric is half the paper's A(F_{l+1}) charge.
		weights: partition.Weights{Grad: 1, Psum: 0.5, Convert: 1},
	}
)

func init() {
	Register(hmcPlatform)
	Register(gpuPlatform)
	Register(tpuPlatform)
}
