package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	hypar "repro"
)

// TestHeteroRequestHashDistinct pins that per-level platform
// assignments are part of the request identity: two different mixed
// assignments and the homogeneous config all hash to distinct keys (so
// caching and coalescing never conflate them) and return different
// evaluations.
func TestHeteroRequestHashDistinct(t *testing.T) {
	keys := make(map[string]bool)
	srv, err := New(Options{
		OnCompute: func(_, key string) { keys[key] = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bodies := []string{
		`{"zoo":"Lenet-c"}`,
		`{"zoo":"Lenet-c","config":{"platforms":{"0":"gpu-hbm"}}}`,
		`{"zoo":"Lenet-c","config":{"platforms":{"0":"tpu-systolic","1":"tpu-systolic"}}}`,
	}
	responses := make(map[string]string)
	for _, body := range bodies {
		code, resp := postJSON(t, ts.URL+"/v1/evaluate", body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, code, resp)
		}
		if prev, dup := responses[string(resp)]; dup {
			t.Errorf("requests %s and %s returned byte-identical evaluations", prev, body)
		}
		responses[string(resp)] = body
	}
	if len(keys) != len(bodies) {
		t.Errorf("%d requests computed %d distinct hashes, want %d", len(bodies), len(keys), len(bodies))
	}
}

// TestHeteroUniformSpecCanonicalHash pins the hash-preservation
// guarantee: a per-level assignment naming the default platform at
// every level canonicalizes to the plain single-platform config, so it
// hashes identically to a request that never mentioned platforms — a
// cache hit, not a recompute.
func TestHeteroUniformSpecCanonicalHash(t *testing.T) {
	_, ts, computes := newTestServer(t)
	code, _ := postJSON(t, ts.URL+"/v1/evaluate", `{"zoo":"Lenet-c"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	before := computes.Load()
	code, _ = postJSON(t, ts.URL+"/v1/evaluate",
		`{"zoo":"Lenet-c","config":{"platforms":{"0":"hmc","1":"hmc","2":"hmc","3":"hmc"}}}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if after := computes.Load(); after != before {
		t.Errorf("uniform per-level spec recomputed (%d -> %d computes), want cache hit", before, after)
	}
	// Sparse spelling: holes inherit the config's platform, so an
	// object naming only level 0 as the default also collapses.
	before = computes.Load()
	code, _ = postJSON(t, ts.URL+"/v1/evaluate", `{"zoo":"Lenet-c","config":{"platforms":{"0":"hmc"}}}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if after := computes.Load(); after != before {
		t.Errorf("sparse default spec recomputed (%d -> %d computes), want cache hit", before, after)
	}
}

// TestHeteroInvalidSpecRejected proves malformed per-level assignments
// are 400s, not served evaluations: an unknown platform name, a
// non-integer level key, an out-of-range level index, and two keys
// naming one level (which map order would otherwise resolve).
func TestHeteroInvalidSpecRejected(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for _, body := range []string{
		`{"zoo":"Lenet-c","config":{"platforms":{"0":"quantum"}}}`,
		`{"zoo":"Lenet-c","config":{"platforms":{"root":"hmc"}}}`,
		`{"zoo":"Lenet-c","config":{"platforms":{"25":"hmc"}}}`,
		`{"zoo":"Lenet-c","config":{"batch":64,"levels":2,"platforms":{"0":"hmc","00":"gpu-hbm","1":"tpu-systolic"}}}`,
		`{"zoo":"Lenet-c","config":{"levels":2,"platforms":{"1":"hmc","+1":"hmc","0":"gpu-hbm"}}}`,
	} {
		code, resp := postJSON(t, ts.URL+"/v1/evaluate", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", body, code, resp)
		}
	}
}

// TestHeteroUnknownFallbackRejected: a hole in a per-level spec inherits
// the config's platform, so an unknown platform that a hole would
// inherit is a 400 naming it — not a level run as hmc under an echoed
// "bogus", and not an error about the spec's length.
func TestHeteroUnknownFallbackRejected(t *testing.T) {
	_, ts, computes := newTestServer(t)
	for _, tc := range []struct{ body, name string }{
		{`{"zoo":"Lenet-c","config":{"levels":3,"platform":"bogus","platforms":{"0":"gpu-hbm","2":"hmc"}}}`, "bogus"},
		{`{"zoo":"Lenet-c","config":{"levels":3,"platform":"HMC","platforms":{"0":"gpu-hbm","2":"hmc"}}}`, "HMC"},
		{`{"zoo":"Lenet-c","config":{"levels":2,"platform":"bogus","platforms":{"0":"hmc"}}}`, "bogus"},
	} {
		code, resp := postJSON(t, ts.URL+"/v1/evaluate", tc.body)
		var er errorResponse
		if err := json.Unmarshal(resp, &er); err != nil || code != http.StatusBadRequest ||
			!strings.Contains(er.Error, strconv.Quote(tc.name)) || strings.Contains(er.Error, "covers") {
			t.Errorf("%s: status %d, %s; want a 400 naming %q", tc.body, code, resp, tc.name)
		}
	}
	if n := computes.Load(); n != 0 {
		t.Errorf("%d evaluations ran for refused configs", n)
	}
}

// TestHeteroExploreMatchesCompare: /v1/explore scores a mixed array's
// sweep with each level's platform weights, so its isHyPar point's
// gain equals /v1/compare's HyPar performance exactly.
func TestHeteroExploreMatchesCompare(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cfg := `"config":{"platforms":{"0":"gpu-hbm","1":"hmc","2":"hmc","3":"hmc"}}`
	code, b := postJSON(t, ts.URL+"/v1/compare", `{"zoo":"Lenet-c",`+cfg+`}`)
	if code != http.StatusOK {
		t.Fatalf("/v1/compare: status %d: %s", code, b)
	}
	var cmp compareResponse
	if err := json.Unmarshal(b, &cmp); err != nil {
		t.Fatal(err)
	}
	want := cmp.Gains[hypar.HyPar.String()].Performance

	code, b = postJSON(t, ts.URL+"/v1/explore",
		`{"zoo":"Lenet-c",`+cfg+`,"free":[{"level":0,"layer":0},{"level":0,"layer":1}]}`)
	if code != http.StatusOK {
		t.Fatalf("/v1/explore: status %d: %s", code, b)
	}
	found := false
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var pt explorePointJSON
		if err := json.Unmarshal(line, &pt); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if pt.Type != "point" || !pt.IsHyPar {
			continue
		}
		found = true
		if math.Float64bits(pt.Gain) != math.Float64bits(want) {
			t.Errorf("explore isHyPar gain %v, compare HyPar performance %v", pt.Gain, want)
		}
	}
	if !found {
		t.Fatalf("no isHyPar point in %s", b)
	}
}
