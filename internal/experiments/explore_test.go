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

// concurrentSweep is one sweep of the concurrency tests.
type concurrentSweep struct {
	m    *hypar.Model
	free []partition.FreeVar
}

// concurrentSweeps draws 16 six-variable sweeps over four zoo networks
// at cfg's depth.
func concurrentSweeps(t *testing.T) []concurrentSweep {
	t.Helper()
	r := rand.New(rand.NewSource(18))
	var sweeps []concurrentSweep
	for i := 0; i < 16; i++ {
		m, err := hypar.ModelByName([]string{"Lenet-c", "Cifar-c", "AlexNet", "VGG-A"}[i%4])
		if err != nil {
			t.Fatal(err)
		}
		var free []partition.FreeVar
		for _, v := range r.Perm(cfg().Levels * len(m.Layers))[:6] {
			free = append(free, partition.FreeVar{Level: v / len(m.Layers), Layer: v % len(m.Layers)})
		}
		sweeps = append(sweeps, concurrentSweep{m, free})
	}
	return sweeps
}

// TestExploreConcurrentSweepsOneSession runs 16 sweeps at once on one
// Session at pool width 4: each sweep's volume table and compiled step
// program are shared read-only by its workers. Each sweep must equal
// the same sweep run alone on a serial session.
func TestExploreConcurrentSweepsOneSession(t *testing.T) {
	shared := NewSessionWithPool(cfg(), runner.New(4))
	serial := NewSessionWithPool(cfg(), runner.Serial())
	sweeps := concurrentSweeps(t)
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

// TestResolvedSharedBySweepsAndCompare shares one resolved config
// between a compare's four strategies, each on its own Evaluator, and
// 16 concurrent sweeps on a session built from it at pool width 4.
// Every result must equal the one computed from the plain config alone.
func TestResolvedSharedBySweepsAndCompare(t *testing.T) {
	res, err := hypar.Resolve(cfg())
	if err != nil {
		t.Fatal(err)
	}
	shared := NewResolvedSession(res, runner.New(4))
	serial := NewSessionWithPool(cfg(), runner.Serial())
	sweeps := concurrentSweeps(t)
	m, err := hypar.ModelByName("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Exploration, len(sweeps))
	for i, sw := range sweeps {
		if want[i], err = serial.Explore(sw.m, sw.free, nil); err != nil {
			t.Fatal(err)
		}
	}
	wantRes := make([]*hypar.Result, len(hypar.Strategies))
	for i, st := range hypar.Strategies {
		if wantRes[i], err = hypar.Run(m, st, cfg()); err != nil {
			t.Fatal(err)
		}
	}

	got := make([]*Exploration, len(sweeps))
	gotRes := make([]*hypar.Result, len(hypar.Strategies))
	errs := make([]error, len(sweeps)+len(hypar.Strategies))
	var wg sync.WaitGroup
	for i, sw := range sweeps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = shared.Explore(sw.m, sw.free, nil)
		}()
	}
	for i, st := range hypar.Strategies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gotRes[i], errs[len(sweeps)+i] = hypar.NewEvaluator().Eval(nil, m, st, res)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i, sw := range sweeps {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("sweep %d (%s %v) on the shared value differs from the serial one", i, sw.m.Name, sw.free)
		}
	}
	for i, st := range hypar.Strategies {
		if !reflect.DeepEqual(gotRes[i], wantRes[i]) {
			t.Errorf("%v on the shared value differs from hypar.Run", st)
		}
	}
	if r, err := shared.resolved(); r != res || err != nil {
		t.Errorf("the session resolved its config again: %p, %v", r, err)
	}
}
