// Package platform abstracts the accelerator platform the HyPar
// evaluation runs on. The paper fixes the platform to an HMC-based
// array (Eyeriss-style row-stationary units on HMC logic dies, H-tree
// interconnect), but the partition algorithms and the event-driven
// simulator are platform-agnostic — only the cost models are hardwired.
// A Platform bundles exactly those cost models:
//
//   - Compute: per-node compute time and local-memory traffic shaping;
//   - Memory: local-memory timing, capacity and the energy table;
//   - topology construction: which NoC fabrics the platform's array
//     interconnect supports, and its native defaults;
//   - PartitionWeights: how the platform scales the three communication
//     classes of the partition DP's objective.
//
// Three platforms are registered by default: "hmc" (the paper's
// evaluation platform), "gpu-hbm" (a V100-class HBM accelerator on an
// NVLink-style torus) and "tpu-systolic" (a TPU-class weight-stationary
// array on an ICI-style torus). Additional platforms register through
// Register.
package platform

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/nn"
	"repro/internal/noc"
	"repro/internal/partition"
)

// ErrPlatform reports an unknown platform or an invalid platform
// configuration.
var ErrPlatform = errors.New("platform: invalid platform")

// DefaultName is the platform an empty name means everywhere a
// platform is named: the paper's HMC-based array.
const DefaultName = "hmc"

// CanonicalName maps the empty platform name to DefaultName and leaves
// every other name untouched. Every layer that resolves a possibly
// empty platform name goes through here (or Resolve), so the fallback
// lives in exactly one place.
func CanonicalName(name string) string {
	if name == "" {
		return DefaultName
	}
	return name
}

// Resolve is ByName with the empty-name default applied: the one
// resolution path from a config's platform name to its Platform.
func Resolve(name string) (Platform, error) {
	return ByName(CanonicalName(name))
}

// Compute models one accelerator node's compute engine: how long a
// layer phase's MACs take, and how many local-memory bytes the phase
// moves. internal/pe (row-stationary), internal/gpu (SIMT occupancy)
// and internal/systolic (weight-stationary) implement it.
//
// Implementations must be comparable values (no slice, map or func
// fields) and pure: the simulator keys its per-Simulator phase-cost
// table on the Compute and Memory models and compares them with ==, so
// a non-comparable model panics there, and one whose results change
// while it compares equal would be served stale costs.
type Compute interface {
	// ComputeTime returns the seconds one node needs for the given
	// number of multiply-accumulates of the layer.
	ComputeTime(macs float64, s *nn.LayerShapes) float64
	// DRAMTraffic returns the local-memory bytes one node moves for one
	// phase of the layer given its operand and result footprints.
	DRAMTraffic(s *nn.LayerShapes, operandBytes, resultBytes float64) float64
	// Validate checks the compute configuration.
	Validate() error
}

// Memory models one accelerator node's local memory and the platform's
// energy cost table. internal/hmc's Config implements it; the GPU and
// TPU platforms reuse the same structure with HBM constants. Like
// Compute, implementations must be comparable, pure values.
type Memory interface {
	// DRAMTime returns the seconds to stream the bytes through the
	// node's local-memory bandwidth.
	DRAMTime(bytes float64) float64
	// DRAMEnergy returns the joules of accessing the bytes locally.
	DRAMEnergy(bytes float64) float64
	// SRAMEnergy returns the joules of the given 32-bit buffer accesses.
	SRAMEnergy(accesses float64) float64
	// MACEnergy returns the joules of the given multiply-accumulates.
	MACEnergy(macs float64) float64
	// AddEnergy returns the joules of the given 32-bit additions.
	AddEnergy(adds float64) float64
	// LinkEnergy returns the joules of moving the bytes across an
	// inter-node link.
	LinkEnergy(bytes float64) float64
	// Fits reports whether a working set fits the node's capacity.
	Fits(bytes float64) bool
	// Validate checks the memory configuration.
	Validate() error
}

// Platform bundles the cost models of one accelerator platform.
type Platform interface {
	// Name is the wire name the config, CLI and service select by.
	Name() string
	// Describe is a one-line human description for listings.
	Describe() string
	// Compute returns the per-node compute cost model.
	Compute() Compute
	// Memory returns the per-node memory and energy cost model.
	Memory() Memory
	// Topologies lists the supported interconnect names; the first
	// entry is the platform's native default.
	Topologies() []string
	// DefaultLinkMbps is the platform's native per-link bandwidth in
	// megabits per second.
	DefaultLinkMbps() float64
	// NewTopology builds the named interconnect for 2^levels nodes at
	// the given link bandwidth.
	NewTopology(name string, levels int, linkMbps float64) (noc.Topology, error)
	// PartitionWeights returns the platform's scaling of the partition
	// DP's three communication classes.
	PartitionWeights() partition.Weights
	// Validate checks the platform's parameter set.
	Validate() error
}

// registry holds the named platforms.
var registry = struct {
	mu sync.RWMutex
	m  map[string]Platform
}{m: make(map[string]Platform)}

// Register adds a platform under its Name. Registering a nil platform,
// an empty name or a duplicate name panics: registration happens at
// init time and a collision is a programming error.
func Register(p Platform) {
	if p == nil || p.Name() == "" {
		panic("platform: Register with nil platform or empty name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.m[p.Name()]; dup {
		panic(fmt.Sprintf("platform: duplicate Register(%q)", p.Name()))
	}
	registry.m[p.Name()] = p
}

// ByName resolves a registered platform.
func ByName(name string) (Platform, error) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	if p, ok := registry.m[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("%w: unknown platform %q (known: %v)", ErrPlatform, name, namesLocked())
}

// Names lists the registered platform names, sorted.
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return namesLocked()
}

// namesLocked lists names under a held registry lock.
func namesLocked() []string {
	names := make([]string, 0, len(registry.m))
	for n := range registry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// newGenericTopology builds one of the fabrics every built-in
// platform's array can be wired with; platforms differ in which one is
// native (listed first in Topologies) and at what link bandwidth.
func newGenericTopology(name string, levels int, linkMbps float64) (noc.Topology, error) {
	switch name {
	case "htree":
		return noc.NewHTree(levels, linkMbps)
	case "torus":
		return noc.NewTorus(levels, linkMbps)
	case "ideal":
		return noc.NewIdeal(levels), nil
	default:
		return nil, fmt.Errorf("%w: unknown topology %q (htree, torus, ideal)", ErrPlatform, name)
	}
}
