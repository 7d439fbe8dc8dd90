package platform_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/platform"
)

// byName resolves a registered platform or fails the test.
func byName(t *testing.T, name string) platform.Platform {
	t.Helper()
	p, err := platform.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustAssignment resolves names into an Assignment or fails the test.
func mustAssignment(t *testing.T, names ...string) platform.Assignment {
	t.Helper()
	per := make([]platform.Platform, len(names))
	for i, n := range names {
		per[i] = byName(t, n)
	}
	a, err := platform.NewAssignment(per)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestResolveFallback: the one resolution path from a possibly empty
// config name to a platform — empty means the paper's hmc everywhere.
func TestResolveFallback(t *testing.T) {
	if got := platform.CanonicalName(""); got != platform.DefaultName {
		t.Errorf("CanonicalName(\"\") = %q, want %q", got, platform.DefaultName)
	}
	if got := platform.CanonicalName("gpu-hbm"); got != "gpu-hbm" {
		t.Errorf("CanonicalName(gpu-hbm) = %q", got)
	}
	p, err := platform.Resolve("")
	if err != nil || p.Name() != platform.DefaultName {
		t.Errorf("Resolve(\"\") = %v, %v", p, err)
	}
	if _, err := platform.Resolve("quantum"); !errors.Is(err, platform.ErrPlatform) {
		t.Errorf("Resolve(quantum) error = %v, want ErrPlatform", err)
	}
}

// TestRegisterPanics: registration collisions are programming errors
// and must fail loudly at init time, not shadow an existing platform.
func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("nil platform", func() { platform.Register(nil) })
	hmc := byName(t, "hmc")
	mustPanic("duplicate name", func() { platform.Register(hmc) })
}

// TestAssignmentAccessors covers the read surface of an Assignment:
// depth, per-level lookup, node platform, names and rendering.
func TestAssignmentAccessors(t *testing.T) {
	a := mustAssignment(t, "gpu-hbm", "hmc", "hmc")
	if a.Levels() != 3 {
		t.Errorf("Levels() = %d", a.Levels())
	}
	if a.At(0).Name() != "gpu-hbm" || a.At(2).Name() != "hmc" {
		t.Errorf("At() = %s, %s", a.At(0).Name(), a.At(2).Name())
	}
	if a.Node().Name() != "hmc" {
		t.Errorf("Node() = %s, want the deepest level's platform", a.Node().Name())
	}
	if a.IsUniform() {
		t.Error("mixed assignment reports uniform")
	}
	if got := strings.Join(a.Names(), "|"); got != "gpu-hbm|hmc|hmc" {
		t.Errorf("Names() = %q", got)
	}
	if a.String() != "gpu-hbm,hmc,hmc" {
		t.Errorf("String() = %q", a.String())
	}

	zero, err := mustAssignment(t, "hmc").Tail(0)
	if err != nil {
		t.Fatal(err)
	}
	if zero.String() != "hmc" {
		t.Errorf("zero-depth String() = %q, want the node name", zero.String())
	}
}

// TestAssignmentConstructorErrors: empty or nil per-level slots are
// rejected with ErrPlatform.
func TestAssignmentConstructorErrors(t *testing.T) {
	if _, err := platform.NewAssignment(nil); !errors.Is(err, platform.ErrPlatform) {
		t.Errorf("NewAssignment(nil) error = %v", err)
	}
	if _, err := platform.NewAssignment([]platform.Platform{byName(t, "hmc"), nil}); !errors.Is(err, platform.ErrPlatform) {
		t.Errorf("nil level error = %v", err)
	}
}

// TestAssignmentTail: a degraded plan keeps the bottom of the
// hierarchy, platforms included; out-of-range depths are rejected.
func TestAssignmentTail(t *testing.T) {
	a := mustAssignment(t, "gpu-hbm", "hmc", "hmc")
	tail, err := a.Tail(2)
	if err != nil {
		t.Fatal(err)
	}
	if tail.String() != "hmc,hmc" {
		t.Errorf("Tail(2) = %q", tail.String())
	}
	if tail.Node().Name() != "hmc" {
		t.Errorf("Tail node = %s", tail.Node().Name())
	}
	if full, err := a.Tail(3); err != nil || full.String() != a.String() {
		t.Errorf("Tail(full depth) = %q, %v", full.String(), err)
	}
	for _, depth := range []int{-1, 4} {
		if _, err := a.Tail(depth); !errors.Is(err, platform.ErrPlatform) {
			t.Errorf("Tail(%d) error = %v, want ErrPlatform", depth, err)
		}
	}
}

// TestAssignmentPerLevelModels: PartitionWeights and LevelMemories hand
// each stage that level's cost model — on a uniform assignment, the node
// platform's at every level.
func TestAssignmentPerLevelModels(t *testing.T) {
	gpuHBM, hmc := byName(t, "gpu-hbm"), byName(t, "hmc")
	a := mustAssignment(t, "gpu-hbm", "hmc")
	ws := a.PartitionWeights()
	if len(ws) != 2 {
		t.Fatalf("PartitionWeights len = %d", len(ws))
	}
	if ws[0] != gpuHBM.PartitionWeights() || ws[1] != hmc.PartitionWeights() {
		t.Errorf("PartitionWeights = %v, want per-level platform weights", ws)
	}
	mems := a.LevelMemories()
	if len(mems) != 2 {
		t.Fatalf("LevelMemories len = %d", len(mems))
	}
	if mems[0] != gpuHBM.Memory() || mems[1] != hmc.Memory() {
		t.Error("LevelMemories not the per-level platform memories")
	}

	u := mustAssignment(t, "hmc", "hmc", "hmc")
	if mems := u.LevelMemories(); len(mems) != 3 || mems[0] != hmc.Memory() || mems[2] != hmc.Memory() {
		t.Errorf("uniform LevelMemories = %v, want the node memory at each of 3 levels", mems)
	}
	if len(u.PartitionWeights()) != 3 {
		t.Errorf("uniform PartitionWeights len = %d", len(u.PartitionWeights()))
	}
}

// TestAssignmentTopology: uniform assignments delegate to their
// platform (explicit names included), mixed ones build the composite
// fabric — whose levels, name, and out-of-range errors this pins.
func TestAssignmentTopology(t *testing.T) {
	u := mustAssignment(t, "hmc", "hmc")
	topo, err := u.NewTopology("torus", 800)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Levels() != 2 {
		t.Errorf("uniform Levels() = %d", topo.Levels())
	}
	if _, err := u.NewTopology("hypercube", 0); !errors.Is(err, platform.ErrPlatform) {
		t.Errorf("unknown topology error = %v", err)
	}

	a := mustAssignment(t, "gpu-hbm", "hmc", "hmc")
	mixed, err := a.NewTopology("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Levels() != 3 {
		t.Errorf("mixed Levels() = %d", mixed.Levels())
	}
	if got := mixed.Name(); got != "hetero(gpu-hbm,hmc,hmc)" {
		t.Errorf("mixed Name() = %q", got)
	}
	for _, level := range []int{-1, 3} {
		if _, err := mixed.TransferTime(level, 1e6); err == nil {
			t.Errorf("TransferTime(%d) accepted", level)
		}
		if _, err := mixed.LinkBytes(level, 1e6); err == nil {
			t.Errorf("LinkBytes(%d) accepted", level)
		}
	}
	lb, err := mixed.LinkBytes(0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	gpuHBM := byName(t, "gpu-hbm")
	base, err := gpuHBM.NewTopology("torus", 3, gpuHBM.DefaultLinkMbps())
	if err != nil {
		t.Fatal(err)
	}
	baseLB, err := base.LinkBytes(0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if want := baseLB + a.ConvertLinkBytes(0, 1e6); !almostEq(lb, want) {
		t.Errorf("mixed LinkBytes(0) = %g, want fabric %g + adapter %g", lb, baseLB, a.ConvertLinkBytes(0, 1e6))
	}

	// An explicit topology applies to every level; one a level's
	// platform cannot build is rejected with the level named.
	if _, err := a.NewTopology("hypercube", 0); !errors.Is(err, platform.ErrPlatform) {
		t.Errorf("mixed unknown topology error = %v", err)
	}
	if explicit, err := a.NewTopology("torus", 1600); err != nil || explicit.Levels() != 3 {
		t.Errorf("mixed explicit torus = %v, %v", explicit, err)
	}
}
