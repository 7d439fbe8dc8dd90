package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/service"
)

// inProcess is a hypard served in-process, standing in for the daemon.
type inProcess struct{ ts *httptest.Server }

func (p inProcess) url() string { return p.ts.URL }
func (p inProcess) pid() int    { return os.Getpid() }
func (p inProcess) stop()       { p.ts.Close() }

// TestSmokeEmitsEveryMetric runs every workload for 300 ms against an
// in-process service and requires every metric BENCHMARK.json names,
// passing output checks and a parseable trace file.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	sp, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	rc := runConfig{
		start: func() (target, error) {
			srv, err := service.New(service.Options{Config: baseConfig()})
			if err != nil {
				return nil, err
			}
			return inProcess{httptest.NewServer(srv.Handler())}, nil
		},
		traceDir: t.TempDir(),
		seed:     1,
		window:   300 * time.Millisecond,
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		// A short set-up and traced pass: this run checks names, not numbers.
		if !w.replay {
			w.warmN = min(w.warmN, 100)
		}
		w.traced = min(w.traced, 40)
		res, err := runWorkload(w, rc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed > 0 {
			t.Errorf("%s: %d failed: %s", name, res.failed, res.firstErr)
		}
		for _, m := range append(sp.e2eNames(), sp.layerNames()...) {
			if _, ok := res.metrics[m]; !ok {
				t.Errorf("%s: metric %s not emitted", name, m)
			}
		}
		checkTraceFile(t, filepath.Join(rc.traceDir, name+"-1.trace.json"))
	}
}
