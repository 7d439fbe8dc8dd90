package sim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/nn"
	"repro/internal/partition"
)

// buildDiamond registers a four-task diamond graph on the engine.
func buildDiamond(t *testing.T, e *Engine) {
	t.Helper()
	r := e.AddResource("r")
	a, err := e.AddTask("a", 1, r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.AddTask("b", 2, nil, a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.AddTask("c", 3, r, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddTask("d", 1, nil, b, c); err != nil {
		t.Fatal(err)
	}
}

func TestRunIsReentrant(t *testing.T) {
	e := NewEngine()
	buildDiamond(t, e)
	first, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// A second Run on the same graph must reproduce the schedule, not
	// consume stale pending counts or ready times.
	second, err := e.Run()
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if first != second {
		t.Errorf("second Run makespan %g != first %g", second, first)
	}
}

func TestResetReusesStorage(t *testing.T) {
	e := NewEngine()
	buildDiamond(t, e)
	first, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.Reset()
		if e.NumTasks() != 0 {
			t.Fatalf("Reset left %d tasks", e.NumTasks())
		}
		buildDiamond(t, e)
		got, err := e.Run()
		if err != nil {
			t.Fatalf("reuse %d: %v", i, err)
		}
		if got != first {
			t.Errorf("reuse %d: makespan %g, want %g", i, got, first)
		}
	}
}

func TestResetSlabPointerStability(t *testing.T) {
	e := NewEngine()
	// Force multiple slab blocks and check dependencies still resolve.
	var prev *Task
	n := 3*slabBlock + 17
	for i := 0; i < n; i++ {
		tk, err := e.AddTask("", 1, nil, prev)
		if err != nil {
			t.Fatal(err)
		}
		prev = tk
	}
	got, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(n); got != want {
		t.Errorf("chain makespan %g, want %g", got, want)
	}
}

func TestRunDetectsCycleAfterReset(t *testing.T) {
	e := NewEngine()
	a, _ := e.AddTask("a", 1, nil)
	b, _ := e.AddTask("b", 1, nil, a)
	a.After(b)
	if _, err := e.Run(); !errors.Is(err, ErrSim) {
		t.Fatalf("cycle not detected: %v", err)
	}
	// The engine stays usable after the failed run.
	e.Reset()
	buildDiamond(t, e)
	if _, err := e.Run(); err != nil {
		t.Fatalf("run after cycle+reset: %v", err)
	}
}

// TestSimulatorMatchesSimulate checks engine reuse yields bit-identical
// stats to the one-shot path across models and strategies.
func TestSimulatorMatchesSimulate(t *testing.T) {
	arch, err := defaultArch(4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulator()
	for _, m := range []*nn.Model{nn.LenetC(), nn.AlexNet(), nn.VGGA()} {
		for name, mk := range map[string]func(*nn.Model, int, []partition.Weights) (*partition.Plan, error){
			"hypar": solve,
			"dp":    partition.DataParallel,
			"mp":    partition.ModelParallel,
		} {
			plan, err := mk(m, 256, unit(4))
			if err != nil {
				t.Fatal(err)
			}
			want, err := Simulate(m, plan, arch)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Simulate(m, plan, arch)
			if err != nil {
				t.Fatal(err)
			}
			w := fmt.Sprintf("%+v", *want)
			g := fmt.Sprintf("%+v", *got)
			if w != g {
				t.Errorf("%s/%s: reused engine stats differ:\n got %s\nwant %s", m.Name, name, g, w)
			}
		}
	}
}
