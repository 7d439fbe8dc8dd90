// Conformance suite: every registered platform must satisfy the same
// contracts — valid parameters, sane cost-model behavior, buildable
// topologies, and (the load-bearing one) an exact partition DP. The
// dynamic program's optimality proof is per cost model, so each
// platform's weighted objective gets its own DP-vs-exhaustive oracle
// run instead of trusting the unit-weight result to transfer.
package platform_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// uniform repeats one platform's partition weights for levels
// hierarchy levels: the per-level weights of a single-platform array.
func uniform(w partition.Weights, levels int) []partition.Weights {
	ws := make([]partition.Weights, levels)
	for h := range ws {
		ws[h] = w
	}
	return ws
}

// randomModel builds a random valid conv/fc stack (k=3/pad=1 so spatial
// dims survive any depth; pooling halves even dims). Tiny shapes — the
// oracle is about structure, not scale.
func randomModel(r *rand.Rand, id int) *nn.Model {
	edge := 4 + 2*r.Intn(7)
	m := &nn.Model{
		Name:  fmt.Sprintf("conf-%d", id),
		Input: nn.Input{H: edge, W: edge, C: 1 + r.Intn(4)},
	}
	nConv := r.Intn(4)
	nFC := r.Intn(4)
	if nConv+nFC == 0 {
		nFC = 1
	}
	cur := edge
	for i := 0; i < nConv; i++ {
		l := nn.Layer{
			Name: fmt.Sprintf("conv%d", i), Type: nn.Conv,
			K: 3, Pad: 1, Cout: 1 + r.Intn(8), Act: nn.ReLU,
		}
		if cur%2 == 0 && cur >= 4 && r.Intn(2) == 0 {
			l.Pool = 2
			cur /= 2
		}
		m.Layers = append(m.Layers, l)
	}
	for i := 0; i < nFC; i++ {
		m.Layers = append(m.Layers, nn.FCLayer(fmt.Sprintf("fc%d", i), 1+r.Intn(64)))
	}
	return m
}

// almostEq tolerates float addition-order differences only.
func almostEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// forEachPlatform runs the check as a subtest per registered platform.
func forEachPlatform(t *testing.T, check func(t *testing.T, p platform.Platform)) {
	t.Helper()
	names := platform.Names()
	if len(names) < 3 {
		t.Fatalf("want at least 3 registered platforms (hmc, gpu-hbm, tpu-systolic), have %v", names)
	}
	for _, name := range names {
		p, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { check(t, p) })
	}
}

// TestRegistry covers the lookup surface: every listed name resolves to
// a platform with that name, and unknown names fail with ErrPlatform.
func TestRegistry(t *testing.T) {
	for _, name := range platform.Names() {
		p, err := platform.ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
		if p.Describe() == "" {
			t.Errorf("%s: empty description", name)
		}
	}
	if _, err := platform.ByName("quantum"); err == nil {
		t.Error("unknown platform resolved")
	}
}

// TestConformanceValidate: every platform's full parameter set and its
// component cost models validate.
func TestConformanceValidate(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p platform.Platform) {
		if err := p.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		if err := p.Compute().Validate(); err != nil {
			t.Errorf("Compute().Validate: %v", err)
		}
		if err := p.Memory().Validate(); err != nil {
			t.Errorf("Memory().Validate: %v", err)
		}
		if err := p.PartitionWeights().Validate(); err != nil {
			t.Errorf("PartitionWeights().Validate: %v", err)
		}
	})
}

// TestConformanceTopologies: every supported topology builds at several
// depths, reports the requested depth, and moves bytes in finite
// positive time (except the ideal fabric's zero).
func TestConformanceTopologies(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p platform.Platform) {
		topos := p.Topologies()
		if len(topos) == 0 {
			t.Fatal("no topologies")
		}
		if p.DefaultLinkMbps() <= 0 {
			t.Errorf("DefaultLinkMbps = %g", p.DefaultLinkMbps())
		}
		for _, name := range topos {
			for _, levels := range []int{1, 2, 4} {
				topo, err := p.NewTopology(name, levels, p.DefaultLinkMbps())
				if err != nil {
					t.Fatalf("NewTopology(%s, %d): %v", name, levels, err)
				}
				if topo.Levels() != levels {
					t.Errorf("%s: Levels() = %d, want %d", name, topo.Levels(), levels)
				}
				for h := 0; h < levels; h++ {
					dt, err := topo.TransferTime(h, 1e6)
					if err != nil {
						t.Fatalf("%s: TransferTime(%d): %v", name, h, err)
					}
					if math.IsNaN(dt) || math.IsInf(dt, 0) || dt < 0 {
						t.Errorf("%s: TransferTime(%d) = %g", name, h, dt)
					}
					if name != "ideal" && dt == 0 {
						t.Errorf("%s: zero transfer time for 1 MB at level %d", name, h)
					}
				}
			}
		}
		if _, err := p.NewTopology("hypercube", 2, 1600); err == nil {
			t.Error("unsupported topology accepted")
		}
	})
}

// TestConformanceCostModelsComparable: the simulator keys its
// phase-cost table on the Compute and Memory models and compares them
// with ==, so every registered model must be a comparable value that
// equals itself. A model holding a slice, map or func fails here
// instead of panicking that comparison.
func TestConformanceCostModelsComparable(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p platform.Platform) {
		for _, m := range []any{p.Compute(), p.Memory()} {
			if typ := reflect.TypeOf(m); !typ.Comparable() {
				t.Fatalf("%v is not comparable", typ)
			}
		}
		if p.Compute() != p.Compute() {
			t.Errorf("%T does not equal itself", p.Compute())
		}
		if p.Memory() != p.Memory() {
			t.Errorf("%T does not equal itself", p.Memory())
		}
	})
}

// TestConformanceComputeSanity: compute time is zero at zero work,
// positive and monotone in the MAC count, and local traffic covers at
// least the result bytes.
func TestConformanceComputeSanity(t *testing.T) {
	m := nn.VGGA()
	shapes, err := m.Shapes(16)
	if err != nil {
		t.Fatal(err)
	}
	forEachPlatform(t, func(t *testing.T, p platform.Platform) {
		c := p.Compute()
		for _, s := range shapes {
			if got := c.ComputeTime(0, &s); got != 0 {
				t.Errorf("%s: ComputeTime(0) = %g", s.Layer.Name, got)
			}
			small := c.ComputeTime(1e6, &s)
			large := c.ComputeTime(1e9, &s)
			if small <= 0 || large <= 0 || math.IsNaN(small) || math.IsInf(large, 0) {
				t.Fatalf("%s: compute times %g / %g", s.Layer.Name, small, large)
			}
			if large <= small {
				t.Errorf("%s: ComputeTime not monotone: %g !> %g", s.Layer.Name, large, small)
			}
			if tr := c.DRAMTraffic(&s, 1e6, 1e5); tr < 1e5 {
				t.Errorf("%s: DRAMTraffic %g below result bytes", s.Layer.Name, tr)
			}
		}
		mem := p.Memory()
		if dt := mem.DRAMTime(1e9); dt <= 0 || math.IsNaN(dt) {
			t.Errorf("DRAMTime(1 GB) = %g", dt)
		}
		if e := mem.DRAMEnergy(1e9) + mem.MACEnergy(1e9) + mem.SRAMEnergy(1e9) + mem.AddEnergy(1e9) + mem.LinkEnergy(1e9); e <= 0 {
			t.Errorf("energy table sums to %g", e)
		}
		if !mem.Fits(1) {
			t.Error("1 byte does not fit")
		}
	})
}

// TestConformanceTwoWayOracle is the per-platform Algorithm 1
// guarantee: under each platform's weighted objective, the dynamic
// program's traceback costs exactly the true minimum over all 2^L
// assignments on ~100 random models.
func TestConformanceTwoWayOracle(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p platform.Platform) {
		w := p.PartitionWeights()
		r := rand.New(rand.NewSource(7))
		for trial := 0; trial < 100; trial++ {
			m := randomModel(r, trial)
			batch := 1 << uint(r.Intn(4))
			single := []partition.Weights{w}
			got, err := partition.Solve(partition.Request{Model: m, Batch: batch, Levels: single})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}

			nl := len(m.Layers)
			want := math.Inf(1)
			for code := 0; code < 1<<uint(nl); code++ {
				a := make(partition.Assignment, nl)
				for b := 0; b < nl; b++ {
					if code&(1<<uint(b)) != 0 {
						a[b] = comm.MP
					}
				}
				p, err := partition.Evaluate(m, batch, []partition.Assignment{a}, single)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if p.TotalElems < want {
					want = p.TotalElems
				}
			}
			if !almostEq(got.TotalElems, want) {
				t.Errorf("trial %d (%s, batch %d): Solve=%g oracle=%g", trial, m.Name, batch, got.TotalElems, want)
			}
		}
	})
}

// TestConformanceHierarchicalOracle is the per-platform Algorithm 2
// sanity bound: the level-greedy hierarchical search can tie but never
// beat the exhaustive minimum of the same weighted objective.
func TestConformanceHierarchicalOracle(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p platform.Platform) {
		w := p.PartitionWeights()
		r := rand.New(rand.NewSource(11))
		pool := runner.Serial()
		trials := 0
		for id := 0; trials < 60; id++ {
			m := randomModel(r, 1000+id)
			levels := 1 + r.Intn(3)
			if levels*len(m.Layers) > 12 {
				continue
			}
			trials++
			batch := 1 << uint(r.Intn(4))

			ws := uniform(w, levels)
			hier, err := partition.Solve(partition.Request{Model: m, Batch: batch, Levels: ws})
			if err != nil {
				t.Fatalf("%s: hierarchical: %v", m.Name, err)
			}
			bf, err := partition.Solve(partition.Request{Model: m, Batch: batch, Levels: ws, Pool: pool, Method: partition.MethodBrute})
			if err != nil {
				t.Fatalf("%s: brute force: %v", m.Name, err)
			}
			if hier.TotalElems < bf.TotalElems && !almostEq(hier.TotalElems, bf.TotalElems) {
				t.Errorf("%s (batch %d, levels %d): Hierarchical %g beats BruteForce %g — oracle violated",
					m.Name, batch, levels, hier.TotalElems, bf.TotalElems)
			}
		}
	})
}

// TestConformanceSimulate: every platform's Arch simulates a real
// network to positive, finite, mutually distinct step times — the
// platforms must be different machines, not the same constants under
// three names.
func TestConformanceSimulate(t *testing.T) {
	m := nn.VGGA()
	steps := make(map[string]float64)
	forEachPlatform(t, func(t *testing.T, p platform.Platform) {
		plan, err := partition.Solve(partition.Request{Model: m, Batch: 64, Levels: uniform(p.PartitionWeights(), 2)})
		if err != nil {
			t.Fatal(err)
		}
		topo, err := p.NewTopology(p.Topologies()[0], 2, p.DefaultLinkMbps())
		if err != nil {
			t.Fatal(err)
		}
		arch := sim.Arch{Mem: p.Memory(), Comp: p.Compute(), NoC: topo, DType: tensor.Float32,
			LevelMems: []platform.Memory{p.Memory(), p.Memory()}}
		stats, err := sim.Simulate(m, plan, arch)
		if err != nil {
			t.Fatalf("Simulate: %v", err)
		}
		if stats.StepSeconds <= 0 || math.IsNaN(stats.StepSeconds) || math.IsInf(stats.StepSeconds, 0) {
			t.Fatalf("StepSeconds = %g", stats.StepSeconds)
		}
		if stats.EnergyTotal() <= 0 {
			t.Errorf("EnergyTotal = %g", stats.EnergyTotal())
		}
		steps[p.Name()] = stats.StepSeconds
	})
	seen := make(map[float64]string)
	for name, s := range steps {
		if prev, dup := seen[s]; dup {
			t.Errorf("platforms %s and %s simulate to identical step time %g", prev, name, s)
		}
		seen[s] = name
	}
}
