package hypar_test

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	hypar "repro"
	"repro/internal/runner"
	"repro/internal/service"
)

// TestResolveOncePerRequest pins config resolution to the request
// boundary. Served in-process with both cache tiers off, a cold request
// at a non-base config canonicalizes, validates and resolves its
// assignment exactly once on evaluate, plan, compare and explore, and
// builds its Arch once on all but plan, which simulates nothing and
// builds none; a request without a config resolves nothing; and a cold
// degrade resolves at most three configs: the degraded one, its healthy
// twin and the group sub-array. With the canonical tier on and the raw
// tier off, a repeated body is a canonical hit: it resolves its config
// once and builds no Arch.
func TestResolveOncePerRequest(t *testing.T) {
	srv, err := service.New(service.Options{CacheEntries: -1, RawCacheBytes: -1, Pool: runner.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	serve := func(h http.Handler, path, body string, want int) [4]int64 {
		t.Helper()
		before := hypar.ResolveCounts()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		after := hypar.ResolveCounts()
		if rec.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %.200s", path, body, rec.Code, want, rec.Body.String())
		}
		for i := range after {
			after[i] -= before[i]
		}
		return after
	}
	for _, path := range []string{"/v1/evaluate", "/v1/plan", "/v1/compare", "/v1/explore"} {
		want := [4]int64{1, 1, 1, 1}
		if path == "/v1/plan" {
			want[3] = 0
		}
		for _, cfg := range []string{`{"batch":64}`, `{"levels":3,"platforms":{"0":"gpu-hbm"}}`} {
			if got := serve(h, path, `{"zoo":"Lenet-c","config":`+cfg+`}`, http.StatusOK); got != want {
				t.Errorf("%s at %s: canonical/validate/assignment/arch counts %v, want %v", path, cfg, got, want)
			}
		}
		if got := serve(h, path, `{"zoo":"Lenet-c"}`, http.StatusOK); got != [4]int64{} {
			t.Errorf("%s without a config: counts %v, want none", path, got)
		}
	}
	if got := serve(h, "/v1/degrade", `{"zoo":"Lenet-c"}`, http.StatusBadRequest); got != [4]int64{} {
		t.Errorf("/v1/degrade without a config: counts %v, want none", got)
	}
	got := serve(h, "/v1/degrade", `{"zoo":"AlexNet","config":{"faults":{"level":1,"groups":1}}}`, http.StatusOK)
	t.Logf("/v1/degrade at faults 1:1: canonical/validate/assignment/arch counts %v", got)
	for i, n := range got {
		if n > 3 || n < 1 {
			t.Errorf("/v1/degrade at faults 1:1: counts %v, want 1 to 3 of each (entry %d)", got, i)
			break
		}
	}

	canon, err := service.New(service.Options{RawCacheBytes: -1, Pool: runner.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"zoo":"Lenet-c","config":{"batch":64}}`
	if got := serve(canon.Handler(), "/v1/evaluate", body, http.StatusOK); got != [4]int64{1, 1, 1, 1} {
		t.Errorf("a cold body with the canonical tier on: counts %v, want one of each", got)
	}
	if got := serve(canon.Handler(), "/v1/evaluate", body, http.StatusOK); got != [4]int64{1, 1, 1, 0} {
		t.Errorf("the same body again, a canonical hit: counts %v, want 1/1/1/0", got)
	}
}

// TestConfigProperties checks checkConfig's properties over 20,000
// generated configs: every field's valid spellings and near misses —
// wrong case, unknown names, sparse per-level specs with holes, depths
// around the bound, invalid fault specs.
func TestConfigProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		checkConfig(t, genConfig(r))
	}
}

// FuzzConfigResolve decodes arbitrary bytes into a Config and checks
// checkConfig's properties. The seeds are every config object of the
// daemon corpus and spec-hole bodies with an unknown inherited
// platform.
func FuzzConfigResolve(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"levels":3,"platform":"bogus","platforms":{"0":"gpu-hbm","2":"hmc"}}`))
	f.Add([]byte(`{"levels":3,"platform":"HMC","platforms":{"0":"gpu-hbm","2":"hmc"}}`))
	f.Add([]byte(`{"levels":2,"platform":"bogus","platforms":{"0":"hmc"}}`))
	for _, e := range daemonCorpus(f) {
		var req struct {
			Config json.RawMessage `json:"config"`
		}
		if json.Unmarshal([]byte(e.body), &req) == nil && req.Config != nil {
			f.Add([]byte(req.Config))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c hypar.Config
		if json.Unmarshal(data, &c) != nil {
			return
		}
		checkConfig(t, c)
	})
}

// checkConfig asserts the resolution properties of one config:
// Canonical is idempotent; c and its canonical form validate alike;
// a valid config's canonical JSON decodes onto a zero Config and
// re-canonicalizes to the same value; and Resolve fails exactly when
// Validate does, with its text, and otherwise holds c.Canonical().
func checkConfig(t *testing.T, c hypar.Config) {
	t.Helper()
	canon := c.Canonical()
	if again := canon.Canonical(); again != canon {
		t.Fatalf("%+v: Canonical not idempotent: %+v then %+v", c, canon, again)
	}
	err := c.Validate()
	if cerr := canon.Validate(); errText(cerr) != errText(err) {
		t.Fatalf("%+v: Validate %q, its canonical form's %q", c, errText(err), errText(cerr))
	}
	r, rerr := hypar.Resolve(c)
	if errText(rerr) != errText(err) {
		t.Fatalf("%+v: Resolve error %q, Validate's %q", c, errText(rerr), errText(err))
	}
	if err != nil {
		return
	}
	if r.Config() != canon {
		t.Fatalf("%+v: Resolve holds %+v, want %+v", c, r.Config(), canon)
	}
	b, err := json.Marshal(canon)
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	var back hypar.Config
	if err := json.Unmarshal(b, &back); err != nil || back.Canonical() != canon {
		t.Fatalf("%+v: canonical JSON %s decodes to %+v (%v), re-canonicalizing to %+v", c, b, back, err, back.Canonical())
	}
}

// errText is err's text, empty for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// genConfig draws one config for TestConfigProperties.
func genConfig(r *rand.Rand) hypar.Config {
	pick := func(vs ...string) string { return vs[r.Intn(len(vs))] }
	names := []string{"", "hmc", "gpu-hbm", "tpu-systolic", "HMC", "bogus"}
	c := hypar.Config{
		Batch:           []int{0, -1, 1, 32, 256}[r.Intn(5)],
		Levels:          r.Intn(8) - 1,
		Platform:        pick(names...),
		Topology:        pick("", "htree", "torus", "ideal", "ring"),
		LinkMbps:        []float64{0, -1, 800, 1600, 200000}[r.Intn(5)],
		OverlapGradComm: r.Intn(2) == 0,
		Precision:       pick("", "fp32", "fp16", "int8", "FP16", "fp8"),
		SearchMethod:    pick("", "hierarchical", "graph", "brute", "beam", "Beam", "annealing"),
		BeamWidth:       []int{0, 0, -3, 8, 1<<16 + 1}[r.Intn(5)],
	}
	if r.Intn(10) == 0 {
		c.Levels = 19 + r.Intn(3)
	}
	if r.Intn(2) == 0 {
		spec := make([]string, r.Intn(max(c.Levels, 0)+3))
		for i := range spec {
			if r.Intn(3) > 0 {
				spec[i] = pick(names...)
			}
		}
		c.Platforms = hypar.PlatformSpec(strings.Join(spec, ","))
	}
	if r.Intn(3) == 0 {
		c.Faults = hypar.Faults{Level: r.Intn(5) - 1, Groups: r.Intn(5) - 1}
	}
	return c
}
