package experiments

import (
	"errors"
	"runtime"
	"testing"

	hypar "repro"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/runner"
)

// render runs a figure runner and renders its table for byte
// comparison.
func render(t *testing.T, fig func() (*report.Table, error)) string {
	t.Helper()
	tb, err := fig()
	if err != nil {
		t.Fatal(err)
	}
	return tb.String()
}

// TestParallelSerialIdenticalTables is the determinism contract of the
// concurrency layer: a width-1 (serial) session and a width-NumCPU
// session must render byte-identical tables. Only orchestration is
// concurrent; every simulation stays deterministic.
func TestParallelSerialIdenticalTables(t *testing.T) {
	wide := runtime.NumCPU()
	if wide < 2 {
		wide = 4 // still exercises the goroutine path on 1-CPU hosts
	}
	serial := NewSessionWithPool(cfg(), runner.New(1))
	parallel := NewSessionWithPool(cfg(), runner.New(wide))

	t.Run("fig6", func(t *testing.T) {
		s := render(t, serial.Fig6)
		p := render(t, parallel.Fig6)
		if s != p {
			t.Errorf("Fig6 differs between width 1 and width %d:\n--- serial ---\n%s\n--- parallel ---\n%s", wide, s, p)
		}
	})
	t.Run("fig8", func(t *testing.T) {
		s := render(t, serial.Fig8)
		p := render(t, parallel.Fig8)
		if s != p {
			t.Errorf("Fig8 differs between width 1 and width %d:\n%s\nvs\n%s", wide, s, p)
		}
	})
	t.Run("fig9", func(t *testing.T) {
		st, sex, serr := serial.Fig9()
		if serr != nil {
			t.Fatal(serr)
		}
		pt, pex, perr := parallel.Fig9()
		if perr != nil {
			t.Fatal(perr)
		}
		s := st.String()
		p := pt.String()
		if s != p {
			t.Errorf("Fig9 differs between width 1 and width %d:\n%s\nvs\n%s", wide, s, p)
		}
		if len(sex.Points) != len(pex.Points) {
			t.Fatalf("point counts differ: %d vs %d", len(sex.Points), len(pex.Points))
		}
		for i := range sex.Points {
			if sex.Points[i].Gain != pex.Points[i].Gain {
				t.Fatalf("point %d gain differs: %g vs %g", i, sex.Points[i].Gain, pex.Points[i].Gain)
			}
		}
	})
}

// TestSessionSharesZooComparison checks Fig6/7/8 reuse one evaluation.
func TestSessionSharesZooComparison(t *testing.T) {
	s := NewSession(cfg())
	first, err := s.CompareZoo()
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.CompareZoo()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("comparison lengths differ")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("CompareZoo recomputed comparison %d instead of caching it", i)
		}
	}
	if _, err := s.Fig6(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig7(); err != nil {
		t.Fatal(err)
	}
	third, err := s.CompareZoo()
	if err != nil {
		t.Fatal(err)
	}
	if third[0] != first[0] {
		t.Error("figure runners dropped the session cache")
	}
}

// TestFig12CacheReuseMatchesFresh checks the opportunistic Fig12 reuse
// of the session's zoo comparison changes nothing in the output.
func TestFig12CacheReuseMatchesFresh(t *testing.T) {
	fresh := render(t, NewSession(cfg()).Fig12)

	s := NewSession(cfg())
	if _, err := s.CompareZoo(); err != nil {
		t.Fatal(err)
	}
	reused := render(t, s.Fig12)
	if fresh != reused {
		t.Errorf("Fig12 with cached zoo comparison differs from fresh run:\n%s\nvs\n%s", fresh, reused)
	}
}

// TestSessionConcurrentFigures runs several figure runners of one
// session concurrently (as a server embedding this package would) and
// checks the shared cache stays coherent. Run under -race in CI.
func TestSessionConcurrentFigures(t *testing.T) {
	s := NewSessionWithPool(cfg(), runner.New(2))
	errs := make(chan error, 3)
	go func() { _, err := s.Fig6(); errs <- err }()
	go func() { _, err := s.Fig7(); errs <- err }()
	go func() { _, err := s.Fig8(); errs <- err }()
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompareMatchesEvaluatorCompare checks the parallel package-level
// Compare and the serial Evaluator.Compare agree result for result.
func TestCompareMatchesEvaluatorCompare(t *testing.T) {
	m, err := hypar.ModelByName("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	par, err := hypar.Compare(m, cfg())
	if err != nil {
		t.Fatal(err)
	}
	ser, err := hypar.NewEvaluator().Compare(m, cfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range hypar.Strategies {
		if par.Results[st].Stats.StepSeconds != ser.Results[st].Stats.StepSeconds {
			t.Errorf("%v: parallel step %g != serial %g", st,
				par.Results[st].Stats.StepSeconds, ser.Results[st].Stats.StepSeconds)
		}
		if par.Results[st].Stats.EnergyTotal() != ser.Results[st].Stats.EnergyTotal() {
			t.Errorf("%v: energy differs", st)
		}
	}
}

// TestExploreStreamFaultedFreeCell: a degraded config's base plan covers
// only the surviving sub-array, so a free cell below it is an error from
// ExploreStream, not an index panic.
func TestExploreStreamFaultedFreeCell(t *testing.T) {
	c := cfg()
	c.Faults = hypar.Faults{Level: 1, Groups: 2} // 8 of 16 survive: depth 3
	s := NewSession(c)
	m, err := hypar.ModelByName("Lenet-c")
	if err != nil {
		t.Fatal(err)
	}
	emit := func(ExplorePoint) error { return nil }
	for _, fv := range []partition.FreeVar{{Level: 3, Layer: 0}, {Level: 0, Layer: len(m.Layers)}, {Level: -1, Layer: 0}} {
		err := s.ExploreStream(m, []partition.FreeVar{fv}, nil, emit)
		if !errors.Is(err, ErrExperiment) {
			t.Errorf("free %+v: err %v, want ErrExperiment", fv, err)
		}
	}
	n := 0
	if err := s.ExploreStream(m, []partition.FreeVar{{Level: 2, Layer: 0}}, nil, func(ExplorePoint) error {
		n++
		return nil
	}); err != nil || n != 2 {
		t.Errorf("surviving level: %d points, err %v; want 2, nil", n, err)
	}
}
