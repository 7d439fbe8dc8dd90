package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	hypar "repro"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/runner"
)

// TestExploreStreamCancelMidSweep: a 2^20-point sweep whose emit fails
// after 1,000 points returns that error promptly. Points are priced as
// the stream asks for them, so the failure never waits on the other
// 2^20.
func TestExploreStreamCancelMidSweep(t *testing.T) {
	m := &hypar.Model{Name: "chain-20", Input: nn.Input{H: 4, W: 4, C: 2}}
	free := make([]partition.FreeVar, 20)
	for i := range free {
		m.Layers = append(m.Layers, nn.Layer{Name: fmt.Sprintf("c%d", i), Type: nn.Conv, K: 3, Pad: 1, Cout: 2})
		free[i] = partition.FreeVar{Level: 0, Layer: i}
	}
	c := cfg()
	c.Batch, c.Levels = 2, 1
	stop := errors.New("client went away")
	n := 0
	t0 := time.Now()
	err := NewSessionWithPool(c, runner.New(4)).ExploreStream(m, free, nil, func(ExplorePoint) error {
		if n++; n > 1000 {
			return stop
		}
		return nil
	})
	elapsed := time.Since(t0)
	if !errors.Is(err, stop) {
		t.Fatalf("ExploreStream = %v, want the emit error", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("the failing emit stopped the sweep after %v, want well under 5s", elapsed)
	}
}

// TestFig9NeedsTwoLevels: Figure 9 sweeps the top and bottom levels, so
// a one-level hierarchy — where both are level 0 and every cell would be
// swept twice under two labels — is refused.
func TestFig9NeedsTwoLevels(t *testing.T) {
	c := cfg()
	c.Levels = 1
	if _, _, err := NewSession(c).Fig9(); !errors.Is(err, ErrExperiment) {
		t.Errorf("Fig9 at one level: err %v, want ErrExperiment", err)
	}
	c.Levels = 2
	if _, ex, err := NewSession(c).Fig9(); err != nil || len(ex.Points) != 256 {
		t.Errorf("Fig9 at two levels: err %v", err)
	}
}

// TestSessionWarmBounded: every sweep stores its model's plan as a warm
// hint, so a long-lived session fed fresh model names — a daemon's base
// session serving inline models — keeps only the sessionWarm most
// recently planned, and still hands back the latest.
func TestSessionWarmBounded(t *testing.T) {
	s := NewSessionWithPool(cfg(), runner.Serial())
	var last *hypar.Model
	for i := 0; i < sessionWarm+8; i++ {
		last = &hypar.Model{Name: fmt.Sprintf("inline-%d", i), Input: nn.Input{H: 4, W: 4, C: 2},
			Layers: []nn.Layer{{Name: "c", Type: nn.Conv, K: 3, Pad: 1, Cout: 2}, {Name: "fc", Type: nn.FC, Cout: 2}}}
		if err := s.ExploreStream(last, nil, nil, func(ExplorePoint) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.warm.Len(); n != sessionWarm {
		t.Errorf("warm store holds %d plans after %d models, want %d", n, sessionWarm+8, sessionWarm)
	}
	if s.warmPlan(last.Name) == nil || s.warmPlan("inline-0") != nil {
		t.Error("warm store did not keep the most recent models")
	}
}

// TestExploreConcurrentSweepsOneSession runs 16 sweeps at once on one
// Session at pool width 4: each sweep's volume table is shared
// read-only by its workers, and every worker prices points on its own
// Simulator and duration table. Each sweep must equal the same sweep
// run alone on a serial session.
func TestExploreConcurrentSweepsOneSession(t *testing.T) {
	shared := NewSessionWithPool(cfg(), runner.New(4))
	serial := NewSessionWithPool(cfg(), runner.Serial())
	r := rand.New(rand.NewSource(18))
	type sweep struct {
		m    *hypar.Model
		free []partition.FreeVar
	}
	var sweeps []sweep
	for i := 0; i < 16; i++ {
		m, err := hypar.ModelByName([]string{"Lenet-c", "Cifar-c", "AlexNet", "VGG-A"}[i%4])
		if err != nil {
			t.Fatal(err)
		}
		var free []partition.FreeVar
		for _, v := range r.Perm(cfg().Levels * len(m.Layers))[:6] {
			free = append(free, partition.FreeVar{Level: v / len(m.Layers), Layer: v % len(m.Layers)})
		}
		sweeps = append(sweeps, sweep{m, free})
	}
	want := make([]*Exploration, len(sweeps))
	for i, sw := range sweeps {
		ex, err := serial.Explore(sw.m, sw.free, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ex
	}
	got := make([]*Exploration, len(sweeps))
	errs := make([]error, len(sweeps))
	var wg sync.WaitGroup
	for i, sw := range sweeps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = shared.Explore(sw.m, sw.free, nil)
		}()
	}
	wg.Wait()
	for i, sw := range sweeps {
		if errs[i] != nil {
			t.Fatalf("sweep %d (%s): %v", i, sw.m.Name, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("sweep %d (%s %v): the concurrent sweep differs from the serial one", i, sw.m.Name, sw.free)
		}
	}
}
