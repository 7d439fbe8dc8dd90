package main

import (
	"bytes"
	"crypto/sha256"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
)

// requestBytes renders request i of a workload as path and body.
func requestBytes(w *workload, i int) string {
	path, body := w.request(w.key(i))
	return path + " " + string(body)
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := newWorkload(name, 1)
		b, _ := newWorkload(name, 1)
		c, err := newWorkload(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		differ := false
		for i := 0; i < 200; i++ {
			if requestBytes(a, i) != requestBytes(b, i) {
				t.Fatalf("%s: request %d differs between two generators of seed 1", name, i)
			}
			differ = differ || requestBytes(a, i) != requestBytes(c, i)
		}
		if !differ {
			t.Errorf("%s: seeds 1 and 2 give the same first 200 requests", name)
		}
	}
}

// TestDistinctBodies pins the property evaluate-cold and explore-sweep
// rest on: no request of the window or of the warm-up repeats another.
func TestDistinctBodies(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
	}{{"evaluate-cold", 100000}, {"explore-sweep", 20000}} {
		w, _ := newWorkload(c.name, 1)
		seen := make(map[[sha256.Size]byte]int, c.n+w.warmN)
		add := func(i int) {
			_, body := w.request(w.key(i))
			h := sha256.Sum256(body)
			if j, ok := seen[h]; ok {
				t.Fatalf("%s: requests %d and %d send the same body", c.name, j, i)
			}
			seen[h] = i
		}
		for i := 0; i < c.n; i++ {
			add(i)
		}
		for j := 0; j < w.warmN; j++ {
			add(warmBase + j)
		}
	}
}

func TestFirstRequestsAnswerOK(t *testing.T) {
	srv, err := service.New(service.Options{Config: baseConfig()})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, name := range workloadNames {
		w, _ := newWorkload(name, 1)
		for i := 0; i < 500; i++ {
			path, body := w.request(w.key(i))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s request %d: %s %s: status %d: %s", name, i, path, body, rec.Code, rec.Body.Bytes())
			}
		}
	}
}
