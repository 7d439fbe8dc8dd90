package hypar_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	hypar "repro"
	"repro/internal/nn"
	"repro/internal/runner"
	"repro/internal/service"
)

// TestDaemonCorpusDigests pins hypard's response bytes. It serves a
// deterministic corpus of about 200 request bodies — plan, evaluate,
// compare and degrade over zoo, branched and inline models, several
// platforms, depths and per-level platform arrays; bench-shaped
// 8-variable explore sweeps, a 12-variable sweep and degraded sweeps;
// batches; and the error cases of docs/API.md's 400 row — through
// service.New(…).Handler() with both cache tiers off, so every body is
// computed, and hashes each status and body. One digest is pinned per
// endpoint group.
//
// The policy is TestIdentityDigests': a change that means to move a
// response updates the digest and says in CHANGES.md which group moved
// and why, and the digests are pinned only for linux/amd64 at GOAMD64=v1.
func TestDaemonCorpusDigests(t *testing.T) {
	if !pinnedTarget {
		t.Skip("daemon corpus digests are pinned for linux/amd64 GOAMD64=v1 only; this target may fuse multiply-adds")
	}
	want := map[string]string{
		"plan":     "3712705028f4ad8b",
		"evaluate": "359a07f11ab5e684",
		"compare":  "c8f6bf998f4d4291",
		"degrade":  "9210ddfe8e9c70f0",
		"explore":  "b18411792f2b0c74",
		"batch":    "77d658b94b158228",
		"errors":   "8d976ecffd293cdc",
	}
	checkDigests(t, corpusDigests(t), want)
}

// corpusEntry is one request of the daemon corpus and the digest group
// its response is hashed into.
type corpusEntry struct {
	group  string
	method string
	path   string
	body   string
}

// corpusDigests serves the corpus in order and digests each group.
func corpusDigests(t *testing.T) map[string]string {
	t.Helper()
	srv, err := service.New(service.Options{CacheEntries: -1, RawCacheBytes: -1, Pool: runner.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	groups := map[string]*digest{}
	for _, e := range daemonCorpus(t) {
		d, ok := groups[e.group]
		if !ok {
			d = newDigest()
			groups[e.group] = d
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(e.method, e.path, strings.NewReader(e.body)))
		d.s(e.path)
		d.i(rec.Code)
		d.s(rec.Body.String())
	}
	out := make(map[string]string, len(groups))
	for name, d := range groups {
		out[name] = d.sum()
	}
	return out
}

// daemonCorpus builds the corpus. Every body is a fixed function of
// the zoo and seeded generators, so the corpus never changes between
// runs.
func daemonCorpus(t testing.TB) []corpusEntry {
	t.Helper()
	var out []corpusEntry
	add := func(group, path string, body any) {
		b, ok := body.(string)
		if !ok {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			b = string(raw)
		}
		out = append(out, corpusEntry{group: group, method: http.MethodPost, path: path, body: b})
	}
	type obj = map[string]any
	var zoo []string
	for _, m := range append(hypar.Zoo(), hypar.BranchedZoo()...) {
		zoo = append(zoo, m.Name)
	}
	var inline []json.RawMessage
	for _, m := range []*hypar.Model{randomChain(3, 4), randomDAG(4, 5), tieChain(64, 256), wideFork(6)} {
		raw, err := nn.EncodeModel(m)
		if err != nil {
			t.Fatal(err)
		}
		inline = append(inline, raw)
	}
	strategies := []string{"hypar", "dp", "mp", "trick"}

	// Plans: every network over a default, a shallow gpu-hbm and a mixed
	// per-level array, rotating the strategy.
	planCfgs := []obj{
		{},
		{"levels": 2, "platform": "gpu-hbm"},
		{"levels": 3, "platforms": obj{"0": "gpu-hbm", "2": "tpu-systolic"}},
	}
	for i, name := range zoo {
		for j, c := range planCfgs {
			add("plan", "/v1/plan", obj{"zoo": name, "strategy": strategies[(i+j)%4], "config": c})
		}
	}
	for i, m := range inline {
		add("plan", "/v1/plan", obj{"model": m, "strategy": strategies[i%4], "config": obj{"batch": 32, "levels": 1 + i}})
	}
	for _, name := range []string{"Lenet-c", "SRES-8"} {
		add("plan", "/v1/plan", obj{"zoo": name, "config": obj{"faults": obj{"level": 1, "groups": 1}}})
		add("plan", "/v1/plan", obj{"zoo": name, "config": obj{"levels": 5, "platforms": obj{"0": "tpu-systolic", "4": "gpu-hbm"}}})
	}

	// Evaluations: every network on the default array, a 3-level fp16
	// systolic array and a mixed array; inline models at two depths;
	// beam and brute-force searches.
	evalCfgs := []obj{
		{},
		{"levels": 3, "platform": "tpu-systolic", "precision": "fp16"},
		{"batch": 64, "platforms": obj{"0": "gpu-hbm"}, "overlapGradComm": true},
	}
	for i, name := range zoo {
		for j, c := range evalCfgs {
			add("evaluate", "/v1/evaluate", obj{"zoo": name, "strategy": strategies[(i+j+1)%4], "config": c})
		}
	}
	for i, m := range inline {
		add("evaluate", "/v1/evaluate", obj{"model": m, "config": obj{"batch": 64, "levels": 2}})
		add("evaluate", "/v1/evaluate", obj{"model": m, "strategy": strategies[i%4],
			"config": obj{"batch": 16, "levels": 5, "topology": "torus", "precision": "int8"}})
	}
	for levels := 1; levels <= 5; levels++ {
		add("evaluate", "/v1/evaluate", obj{"zoo": "Lenet-c", "config": obj{"levels": levels, "batch": 128}})
		add("evaluate", "/v1/evaluate", obj{"zoo": "SRES-8", "config": obj{"levels": levels, "platform": "gpu-hbm", "topology": "htree"}})
	}
	add("evaluate", "/v1/evaluate", obj{"zoo": "Incep-2", "config": obj{"searchMethod": "beam", "beamWidth": 32}})
	add("evaluate", "/v1/evaluate", obj{"model": inline[3], "config": obj{"searchMethod": "beam", "levels": 3}})
	add("evaluate", "/v1/evaluate", obj{"zoo": "SFC", "config": obj{"searchMethod": "brute", "levels": 2, "batch": 32}})
	add("evaluate", "/v1/evaluate", obj{"zoo": "Lenet-c", "config": obj{"searchMethod": "brute", "levels": 3, "platform": "gpu-hbm"}})

	// Comparisons: every network on the default array and a deep
	// gpu-hbm array, and the inline models on a mixed one.
	for _, name := range zoo {
		add("compare", "/v1/compare", obj{"zoo": name})
		add("compare", "/v1/compare", obj{"zoo": name, "config": obj{"platform": "gpu-hbm", "levels": 5, "linkMbps": 100000}})
	}
	for _, m := range inline[:2] {
		add("compare", "/v1/compare", obj{"model": m, "config": obj{"levels": 3, "platforms": obj{"1": "gpu-hbm"}}})
	}

	// Degraded what-ifs: aligned snaps and grouped replans.
	for _, name := range []string{"Lenet-c", "AlexNet", "VGG-A", "SRES-8"} {
		for _, f := range []obj{{"level": 0, "groups": 1}, {"level": 1, "groups": 1}, {"level": 2, "groups": 3}} {
			add("degrade", "/v1/degrade", obj{"zoo": name, "config": obj{"faults": f}})
		}
	}
	add("degrade", "/v1/degrade", obj{"zoo": "AlexNet", "config": obj{"platforms": obj{"0": "gpu-hbm"}, "faults": obj{"level": 1, "groups": 2}}})

	// Sweeps shaped like bench's explore-sweep bodies: 8 distinct free
	// cells at the default depth over four networks, at four (batch,
	// link) configurations each.
	rng := rand.New(rand.NewSource(18))
	freeCells := func(levels, layers, n int) []obj {
		cells := rng.Perm(levels * layers)[:n]
		free := make([]obj, n)
		for k, v := range cells {
			free[k] = obj{"level": v / layers, "layer": v % layers}
		}
		return free
	}
	exploreModels := []string{"Lenet-c", "Cifar-c", "AlexNet", "VGG-A"}
	links := []float64{800, 1600, 3200, 6400}
	for i, name := range exploreModels {
		m, err := hypar.ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for j, batch := range []int{64, 128, 256, 512} {
			add("explore", "/v1/explore", obj{"zoo": name, "free": freeCells(4, len(m.Layers), 8),
				"config": obj{"batch": batch, "linkMbps": links[(i+j)%4]}})
		}
	}
	add("explore", "/v1/explore", obj{"zoo": "Lenet-c", "free": freeCells(4, 4, 12)})
	add("explore", "/v1/explore", obj{"zoo": "AlexNet", "free": freeCells(3, 8, 6),
		"config": obj{"faults": obj{"level": 1, "groups": 1}}})
	add("explore", "/v1/explore", obj{"zoo": "SRES-8", "free": freeCells(2, 8, 5),
		"config": obj{"levels": 2, "platforms": obj{"0": "gpu-hbm"}}})
	add("explore", "/v1/explore", obj{"model": inline[1], "config": obj{"levels": 3, "precision": "fp16"}})
	for levels := 2; levels <= 5; levels++ {
		add("explore", "/v1/explore", obj{"zoo": "VGG-A", "free": freeCells(levels, 11, 4),
			"config": obj{"levels": levels, "platforms": obj{"0": "gpu-hbm", "1": "tpu-systolic"}, "topology": "torus"}})
	}

	// Batches: mixed endpoints, duplicates, and a failing item.
	add("batch", "/v1/batch", obj{"items": []obj{
		{"zoo": "VGG-A", "strategy": "hypar"},
		{"zoo": "VGG-A", "strategy": "hypar"},
		{"endpoint": "plan", "zoo": "AlexNet", "strategy": "trick"},
		{"endpoint": "compare", "zoo": "SFC", "config": obj{"platform": "gpu-hbm"}},
	}})
	add("batch", "/v1/batch", obj{"items": []obj{
		{"model": inline[0], "config": obj{"levels": 2}},
		{"zoo": "nope"},
		{"endpoint": "explore", "zoo": "SFC"},
		{"zoo": "Incep-2", "config": obj{"searchMethod": "beam"}},
	}})
	var items []obj
	for i, name := range zoo {
		items = append(items, obj{"zoo": name, "endpoint": []string{"plan", "evaluate", "compare"}[i%3],
			"config": obj{"levels": 1 + i%5, "batch": 32 << (i % 3)}})
	}
	add("batch", "/v1/batch", obj{"items": items})

	// Error cases: docs/API.md's 400 row, then 404, 405 and 413.
	for _, e := range []struct{ path, body string }{
		{"/v1/evaluate", `{"zoo":`},
		{"/v1/evaluate", `{"zoo":"SFC"} x`},
		{"/v1/plan", `{"zoo":"SFC"}]`},
		{"/v1/evaluate", `{"zoo":"SFC","bogus":1}`},
		{"/v1/evaluate", `{"zoo":"SFC","config":{"batch":-1}}`},
		{"/v1/evaluate", `{"zoo":"SFC","config":{"platform":"quantum"}}`},
		{"/v1/evaluate", `{"zoo":"SFC","config":{"beamWidth":-3,"searchMethod":"beam"}}`},
		{"/v1/evaluate", `{"zoo":"SFC","strategy":"annealing"}`},
		{"/v1/evaluate", `{"zoo":"SFC","model":{"name":"x","input":{"h":1,"w":1,"c":1},"layers":[{"name":"f","type":"fc","cout":2}]}}`},
		{"/v1/evaluate", `{}`},
		{"/v1/evaluate", `{"model":{"name":"bad","input":{"h":0,"w":0,"c":0},"layers":[]}}`},
		{"/v1/evaluate", `{"model":{"name":"cyc","input":{"h":4,"w":4,"c":1},"layers":[{"name":"a","type":"conv","k":3,"pad":1,"cout":2,"inputs":["b"]},{"name":"b","type":"fc","cout":2}]}}`},
		{"/v1/evaluate", `{"zoo":"SFC","config":{"faults":{"level":0,"groups":2}}}`},
		{"/v1/evaluate", fmt.Sprintf(`{"model":%s}`, mustEncode(t, wideFork(18)))},
		{"/v1/compare", `{"zoo":"SFC","strategy":"dp"}`},
		{"/v1/degrade", `{"zoo":"SFC"}`},
		{"/v1/explore", `{"zoo":"SFC","strategy":"hypar"}`},
		{"/v1/explore", `{"zoo":"SFC","free":[{"level":0,"layer":0},{"level":0,"layer":0}]}`},
		{"/v1/explore", `{"zoo":"Lenet-c","config":{"faults":{"level":0,"groups":1}},"free":[{"level":3,"layer":0}]}`},
		{"/v1/explore", `{"zoo":"Lenet-c","config":{"levels":1,"faults":{"level":0,"groups":1}}}`},
		{"/v1/explore", `{"zoo":"Lenet-c","free":[{"level":0,"layer":9}]}`},
		{"/v1/explore", `{"zoo":"Lenet-c","free":[{"level":7,"layer":0}]}`},
		{"/v1/explore", fmt.Sprintf(`{"zoo":"VGG-A","free":%s}`, mustJSON(t, freeCells(4, 11, 13)))},
		{"/v1/batch", `{"items":[{"zoo":"SFC"}],"extra":1}`},
		{"/v1/batch", `{"items":[` + strings.Repeat(`{"zoo":"SFC"},`, 256) + `{"zoo":"SFC"}]}`},
		{"/v1/evaluate", `{"zoo":"NoSuchNet"}`},
		{"/v1/evaluate", `{"zoo":"SFC","padding":"` + strings.Repeat("x", 2<<20) + `"}`},
	} {
		add("errors", e.path, e.body)
	}
	out = append(out, corpusEntry{group: "errors", method: http.MethodGet, path: "/v1/evaluate"})
	return out
}

func mustEncode(t testing.TB, m *hypar.Model) string {
	t.Helper()
	raw, err := nn.EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
