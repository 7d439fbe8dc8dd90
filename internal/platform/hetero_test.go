// Heterogeneous-assignment conformance: the per-level partition DP must
// honor the same oracle bound as the single-platform one — mixed
// per-level weights are a different objective per level, so the
// DP-vs-exhaustive comparison gets its own run instead of trusting the
// uniform result to transfer — and the boundary cost model must charge
// platform seams (and only platform seams) monotonically.
package platform_test

import (
	"math/rand"
	"testing"

	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/runner"
)

// randomMixedWeights draws one registered platform per level and
// returns the per-level partition weights, redrawing until at least two
// levels differ (depth permitting) so the trial actually exercises the
// mixed path.
func randomMixedWeights(r *rand.Rand, levels int) []partition.Weights {
	names := platform.Names()
	for {
		ws := make([]partition.Weights, levels)
		mixed := false
		first := r.Intn(len(names))
		for h := 0; h < levels; h++ {
			pick := r.Intn(len(names))
			p, err := platform.ByName(names[pick])
			if err != nil {
				panic(err)
			}
			ws[h] = p.PartitionWeights()
			if pick != first {
				mixed = true
			}
		}
		if mixed || levels < 2 {
			return ws
		}
	}
}

// TestConformanceMixedOracle is the per-level Algorithm 2 sanity bound:
// under mixed per-level weighted objectives, the level-greedy
// hierarchical search can tie but never beat the exhaustive minimum of
// the same objective.
func TestConformanceMixedOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pool := runner.Serial()
	trials := 0
	for id := 0; trials < 60; id++ {
		m := randomModel(r, 2000+id)
		levels := 2 + r.Intn(2)
		if levels*len(m.Layers) > 12 {
			continue
		}
		trials++
		batch := 1 << uint(r.Intn(4))
		ws := randomMixedWeights(r, levels)

		hier, err := partition.Solve(partition.Request{Model: m, Batch: batch, Levels: ws})
		if err != nil {
			t.Fatalf("%s: hierarchical: %v", m.Name, err)
		}
		bf, err := partition.Solve(partition.Request{Model: m, Batch: batch, Levels: ws, Pool: pool, Method: partition.MethodBrute})
		if err != nil {
			t.Fatalf("%s: brute force: %v", m.Name, err)
		}
		if hier.TotalElems < bf.TotalElems && !almostEq(hier.TotalElems, bf.TotalElems) {
			t.Errorf("%s (batch %d, levels %d, weights %v): hierarchical %g beats brute force %g — oracle violated",
				m.Name, batch, levels, ws, hier.TotalElems, bf.TotalElems)
		}
	}
}

// TestBoundaryCostUniformIsFree: a uniform assignment has no platform
// seam, so no level reports a boundary and every conversion charge is
// exactly zero — the invariant that keeps single-platform arrays
// byte-identical to their historical cost accounting.
func TestBoundaryCostUniformIsFree(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p platform.Platform) {
		a, err := platform.UniformAssignment(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !a.IsUniform() {
			t.Fatal("uniform assignment reports mixed")
		}
		for h := 0; h < a.Levels(); h++ {
			if a.Boundary(h) {
				t.Errorf("level %d reports a boundary", h)
			}
			if dt := a.ConvertTime(h, 1e9); dt != 0 {
				t.Errorf("ConvertTime(%d, 1 GB) = %g, want 0", h, dt)
			}
			if lb := a.ConvertLinkBytes(h, 1e9); lb != 0 {
				t.Errorf("ConvertLinkBytes(%d, 1 GB) = %g, want 0", h, lb)
			}
		}
	})
}

// TestBoundaryCostMonotone: wherever adjacent levels differ, the
// adapter charge is strictly monotone in the crossed bytes, zero at
// zero bytes, and serialized at the slower side's native link rate;
// adjacent levels sharing a platform pay nothing even inside a mixed
// assignment.
func TestBoundaryCostMonotone(t *testing.T) {
	names := platform.Names()
	for _, upper := range names {
		for _, lower := range names {
			if upper == lower {
				continue
			}
			t.Run(upper+"/"+lower, func(t *testing.T) {
				pu, err := platform.ByName(upper)
				if err != nil {
					t.Fatal(err)
				}
				pl, err := platform.ByName(lower)
				if err != nil {
					t.Fatal(err)
				}
				// Seam at level 0 only: [upper, lower, lower].
				a, err := platform.NewAssignment([]platform.Platform{pu, pl, pl})
				if err != nil {
					t.Fatal(err)
				}
				if !a.Boundary(0) {
					t.Fatal("seam level reports no boundary")
				}
				if a.Boundary(1) || a.Boundary(2) {
					t.Error("same-platform levels report a boundary")
				}
				if dt := a.ConvertTime(1, 1e9); dt != 0 {
					t.Errorf("same-platform ConvertTime = %g, want 0", dt)
				}

				slow := pu.DefaultLinkMbps()
				if b := pl.DefaultLinkMbps(); b < slow {
					slow = b
				}
				if got, want := a.ConvertBps(0), slow*1e6/8; got != want {
					t.Errorf("ConvertBps(0) = %g, want slower side's %g", got, want)
				}

				if dt := a.ConvertTime(0, 0); dt != 0 {
					t.Errorf("ConvertTime(0, 0 bytes) = %g, want 0", dt)
				}
				prev := 0.0
				for _, bytes := range []float64{1, 1e3, 1e6, 1e9} {
					dt := a.ConvertTime(0, bytes)
					if dt <= prev {
						t.Errorf("ConvertTime(0, %g) = %g, not strictly above %g — not monotone in crossed bytes",
							bytes, dt, prev)
					}
					prev = dt
				}

				// Link bytes: one adapter pass per pair at the seam, 2^h
				// pairs at level h.
				if got, want := a.ConvertLinkBytes(0, 1e6), 1e6; got != want {
					t.Errorf("ConvertLinkBytes(0, 1 MB) = %g, want %g", got, want)
				}
				if lb := a.ConvertLinkBytes(1, 1e6); lb != 0 {
					t.Errorf("same-platform ConvertLinkBytes = %g, want 0", lb)
				}

				// The composite fabric's transfer time includes the
				// adapter charge on top of the seam level's own fabric.
				topo, err := a.NewTopology("", 0)
				if err != nil {
					t.Fatal(err)
				}
				base, err := pu.NewTopology(pu.Topologies()[0], 3, pu.DefaultLinkMbps())
				if err != nil {
					t.Fatal(err)
				}
				mixedT, err := topo.TransferTime(0, 1e6)
				if err != nil {
					t.Fatal(err)
				}
				baseT, err := base.TransferTime(0, 1e6)
				if err != nil {
					t.Fatal(err)
				}
				if want := baseT + a.ConvertTime(0, 1e6); !almostEq(mixedT, want) {
					t.Errorf("composite TransferTime(0, 1 MB) = %g, want fabric %g + adapter %g",
						mixedT, baseT, a.ConvertTime(0, 1e6))
				}
			})
		}
	}
}
