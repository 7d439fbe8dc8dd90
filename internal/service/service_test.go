package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hypar "repro"
	"repro/internal/experiments"
	"repro/internal/partition"
	"repro/internal/runner"
)

// newTestServer builds a server on the paper's default config with a
// compute-counting hook.
func newTestServer(t *testing.T) (*Server, *httptest.Server, *atomic.Int64) {
	t.Helper()
	var computes atomic.Int64
	srv, err := New(Options{
		OnCompute: func(string, string) { computes.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, &computes
}

// postJSON POSTs body and returns status + response bytes.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestEvaluateFaithful proves the service path returns exactly what the
// library returns: every decoded field equals the direct
// hypar.Run result bit for bit (JSON float64 round-trips are exact).
func TestEvaluateFaithful(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for _, name := range []string{"Lenet-c", "VGG-A"} {
		code, body := postJSON(t, ts.URL+"/v1/evaluate", fmt.Sprintf(`{"zoo":%q,"strategy":"hypar"}`, name))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, code, body)
		}
		var got evaluateResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}

		m, err := hypar.ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := hypar.Run(m, hypar.HyPar, hypar.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !statsEqual(got.Stats, statsToJSON(want.Stats)) {
			t.Errorf("%s: stats differ from direct library call:\nhttp: %+v\nlib:  %+v", name, got.Stats, statsToJSON(want.Stats))
		}
		if got.Plan.TotalElems != want.Plan.TotalElems {
			t.Errorf("%s: plan TotalElems %v != %v", name, got.Plan.TotalElems, want.Plan.TotalElems)
		}
		for l, la := range got.Plan.Layers {
			if la.Assign != want.Plan.LayerString(l) {
				t.Errorf("%s: layer %d assignment %q != %q", name, l, la.Assign, want.Plan.LayerString(l))
			}
		}
	}
}

// statsEqual compares every field exactly. JSON float64 round-trips are
// exact, so equality here means the HTTP path lost nothing.
func statsEqual(a, b statsJSON) bool {
	return reflect.DeepEqual(a, b)
}

// TestPlanFaithful proves /v1/plan equals hypar.NewPlan.
func TestPlanFaithful(t *testing.T) {
	_, ts, _ := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/plan", `{"zoo":"AlexNet","strategy":"trick"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var got planResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	m, err := hypar.ModelByName("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hypar.NewPlan(m, hypar.OneWeirdTrick, hypar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.Plan.TotalElems != want.TotalElems || got.Plan.Accelerators != want.NumAccelerators() {
		t.Errorf("plan mismatch: %+v", got.Plan)
	}
	for l := range m.Layers {
		if got.Plan.Layers[l].Assign != want.LayerString(l) {
			t.Errorf("layer %d: %q != %q", l, got.Plan.Layers[l].Assign, want.LayerString(l))
		}
	}
	if got.Strategy != hypar.OneWeirdTrick {
		t.Errorf("strategy echoed as %v", got.Strategy)
	}
}

// TestCompareFaithful proves /v1/compare matches hypar.Compare: same
// stats per strategy, same Fig6/Fig7 normalizations.
func TestCompareFaithful(t *testing.T) {
	_, ts, _ := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/compare", `{"zoo":"SFC"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var got compareResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	m, err := hypar.ModelByName("SFC")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hypar.Compare(m, hypar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range hypar.Strategies {
		gr, ok := got.Results[st.String()]
		if !ok {
			t.Fatalf("strategy %v missing from response", st)
		}
		if !statsEqual(gr.Stats, statsToJSON(want.Results[st].Stats)) {
			t.Errorf("%v: stats differ:\nhttp: %+v\nlib:  %+v", st, gr.Stats, statsToJSON(want.Results[st].Stats))
		}
		if g := got.Gains[st.String()]; g.Performance != want.PerformanceGain(st) || g.EnergyEfficiency != want.EnergyEfficiency(st) {
			t.Errorf("%v: gains differ: %+v", st, g)
		}
	}
}

// TestExploreFaithful proves the /v1/explore NDJSON stream carries
// exactly the points Session.Explore computes, in code order.
func TestExploreFaithful(t *testing.T) {
	_, ts, _ := newTestServer(t)
	req := `{"zoo":"Lenet-c","free":[{"level":0,"layer":0},{"level":0,"layer":1},{"level":3,"layer":2}]}`
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}

	var header exploreHeaderJSON
	var points []explorePointJSON
	var summary exploreSummaryJSON
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lineBytes := sc.Bytes()
		var typ struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(lineBytes, &typ); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", lineBytes, err)
		}
		switch typ.Type {
		case "header":
			if err := json.Unmarshal(lineBytes, &header); err != nil {
				t.Fatal(err)
			}
		case "point":
			var p explorePointJSON
			if err := json.Unmarshal(lineBytes, &p); err != nil {
				t.Fatal(err)
			}
			points = append(points, p)
		case "summary":
			if err := json.Unmarshal(lineBytes, &summary); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unknown line type %q", typ.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if header.Points != 8 || len(points) != 8 {
		t.Fatalf("want 8 points, header says %d, got %d lines", header.Points, len(points))
	}

	m, err := hypar.ModelByName("Lenet-c")
	if err != nil {
		t.Fatal(err)
	}
	free := []partition.FreeVar{{Level: 0, Layer: 0}, {Level: 0, Layer: 1}, {Level: 3, Layer: 2}}
	ex, err := experiments.NewSessionWithPool(hypar.DefaultConfig(), runner.Serial()).Explore(m, free, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if p.Code != i {
			t.Errorf("point %d out of order: code %d", i, p.Code)
		}
		if p.Gain != ex.Points[i].Gain || p.IsHyPar != ex.Points[i].IsHyPar {
			t.Errorf("point %d differs from library: %+v vs %+v", i, p, ex.Points[i])
		}
	}
	if summary.Peak.Gain != ex.Peak.Gain || summary.HyPar.Gain != ex.HyPar.Gain {
		t.Errorf("summary differs: %+v", summary)
	}
}

// TestCoalescing proves N identical concurrent requests reach the
// evaluator exactly once and every caller gets byte-identical bytes.
func TestCoalescing(t *testing.T) {
	srv, ts, computes := newTestServer(t)
	const n = 16
	body := `{"zoo":"VGG-A","strategy":"hypar"}`

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("evaluator computed %d times for %d identical concurrent requests, want exactly 1", got, n)
	}

	// A later identical request replays the cached bytes without
	// recomputation.
	code, b := postJSON(t, ts.URL+"/v1/evaluate", body)
	if code != http.StatusOK || !bytes.Equal(b, bodies[0]) {
		t.Error("cached replay is not byte-identical")
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("cache hit recomputed (computes=%d)", got)
	}
	// The replay is served from one of the two cache tiers: the exact
	// same bytes normally land on the raw-bytes fast path, but a racing
	// coalesced follower may have seeded only the canonical cache.
	fast := srv.metrics["evaluate"].fastHits.Load()
	hits := srv.metrics["evaluate"].cacheHits.Load()
	if fast+hits < 1 {
		t.Errorf("fastHits=%d cacheHits=%d, want >=1 combined", fast, hits)
	}
}

// TestStatszCountsWaitingFollower: /statsz counts a follower as
// coalesced when it joins a flight, while the leader is still held, not
// only once the leader's result arrives.
func TestStatszCountsWaitingFollower(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var enter, leave sync.Once
	srv, err := New(Options{FaultHook: func(context.Context, string, string) error {
		enter.Do(func() { close(entered) })
		<-release
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer leave.Do(func() { close(release) })

	const body = `{"zoo":"Lenet-c","strategy":"hypar"}`
	codes := make(chan int, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			codes <- 0
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go post()
	<-entered
	go post()
	waitUntil(t, "/statsz to count the waiting follower", func() bool {
		return statszEndpoint(t, ts.URL, "evaluate").Coalesced == 1
	})
	leave.Do(func() { close(release) })
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("request answered %d", code)
		}
	}
	if st := statszEndpoint(t, ts.URL, "evaluate"); st.Computes != 1 || st.Coalesced != 1 {
		t.Errorf("%d computes and %d coalesced, want 1 and 1", st.Computes, st.Coalesced)
	}
}

// statszEndpoint fetches one endpoint's /statsz counters.
func statszEndpoint(t *testing.T, url, endpoint string) statsSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Endpoints[endpoint]
}

// TestRequestCanonicalization proves semantically identical requests
// (different spellings) hash to the same key: the second returns the
// first's cached bytes without recomputation.
func TestRequestCanonicalization(t *testing.T) {
	_, ts, computes := newTestServer(t)
	variants := []string{
		`{"zoo":"SCONV","strategy":"hypar"}`,
		`{"strategy":"HyPar","zoo":"SCONV","config":{"batch":256,"levels":4,"topology":"htree","linkMbps":1600,"precision":"fp32"}}`,
	}
	var first []byte
	for i, v := range variants {
		code, b := postJSON(t, ts.URL+"/v1/evaluate", v)
		if code != http.StatusOK {
			t.Fatalf("variant %d: status %d: %s", i, code, b)
		}
		if i == 0 {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Errorf("variant %d returned different bytes", i)
		}
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("computes=%d, want 1 (canonicalization failed)", got)
	}
}

// TestCustomModel submits a full JSON network description.
func TestCustomModel(t *testing.T) {
	_, ts, _ := newTestServer(t)
	req := `{"model":{"name":"custom","input":{"h":16,"w":16,"c":3},"layers":[
		{"name":"conv1","type":"conv","k":3,"pad":1,"cout":8,"pool":2},
		{"name":"fc1","type":"fc","cout":10,"act":"softmax"}]},
		"config":{"batch":32,"levels":2}}`
	code, body := postJSON(t, ts.URL+"/v1/evaluate", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var got evaluateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Model != "custom" || got.Config.Batch != 32 || got.Config.Levels != 2 {
		t.Errorf("echoed %q config %+v", got.Model, got.Config)
	}
	// Partial override inherits the base topology and link bandwidth.
	if got.Config.Topology != "htree" || got.Config.LinkMbps != 1600 {
		t.Errorf("partial config override lost defaults: %+v", got.Config)
	}
	if got.Stats.StepSeconds <= 0 {
		t.Errorf("no simulation result: %+v", got.Stats)
	}
}

// TestRequestErrors exercises the failure surface.
func TestRequestErrors(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"bad json", "/v1/evaluate", `{`, http.StatusBadRequest},
		{"no model", "/v1/evaluate", `{}`, http.StatusBadRequest},
		{"both refs", "/v1/evaluate", `{"zoo":"SFC","model":{"name":"x","input":{"h":1,"w":1,"c":1},"layers":[]}}`, http.StatusBadRequest},
		{"unknown zoo", "/v1/evaluate", `{"zoo":"ResNet-50"}`, http.StatusNotFound},
		{"bad strategy", "/v1/evaluate", `{"zoo":"SFC","strategy":"zigzag"}`, http.StatusBadRequest},
		{"bad config", "/v1/evaluate", `{"zoo":"SFC","config":{"batch":-1}}`, http.StatusBadRequest},
		{"unknown config field", "/v1/evaluate", `{"zoo":"SFC","config":{"batchSize":64}}`, http.StatusBadRequest},
		{"unknown field", "/v1/evaluate", `{"zoo":"SFC","frobnicate":1}`, http.StatusBadRequest},
		{"invalid model", "/v1/evaluate", `{"model":{"name":"x","input":{"h":8,"w":8,"c":1},"layers":[{"name":"l","type":"lstm","cout":4}]}}`, http.StatusBadRequest},
		{"strategy on compare", "/v1/compare", `{"zoo":"SFC","strategy":"dp"}`, http.StatusBadRequest},
		{"free on evaluate", "/v1/evaluate", `{"zoo":"SFC","free":[{"level":0,"layer":0}]}`, http.StatusBadRequest},
		{"free on plan", "/v1/plan", `{"zoo":"SFC","free":[{"level":0,"layer":0}]}`, http.StatusBadRequest},
		{"free out of range", "/v1/explore", `{"zoo":"SFC","free":[{"level":9,"layer":0}]}`, http.StatusBadRequest},
		{"too many free", "/v1/explore", `{"zoo":"VGG-A","free":[` + freeVars(13) + `]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body := postJSON(t, ts.URL+tc.url, tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.want, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q", tc.name, body)
		}
	}

	// GET on a POST endpoint.
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d", resp.StatusCode)
	}
}

// TestTrailingDataRejected covers every request-body decode site:
// anything but whitespace after the JSON object is a 400, while the
// same object followed by a newline succeeds.
func TestTrailingDataRejected(t *testing.T) {
	n := newTestCluster(t, 2, nil)[0]
	const fetchBody = `{"zoo":"SFC","strategy":"hypar"}`
	p, err := n.srv.parseBody([]byte(fetchBody), true, false)
	if err != nil {
		t.Fatal(err)
	}
	fetchKey := p.key("evaluate")
	// post sends the peer headers everywhere; only /peer/v1/fetch reads them.
	post := func(path, body string) (int, []byte) {
		req, err := http.NewRequest(http.MethodPost, n.url+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(peerEndpointHeader, "evaluate")
		req.Header.Set(peerKeyHeader, fetchKey)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	cases := []struct {
		path, body, junk string
		ok               int
	}{
		{"/v1/plan", `{"zoo":"SFC"}`, `{"zoo":"VGG-A"}`, http.StatusOK},
		{"/v1/evaluate", `{"zoo":"SFC"}`, ` garbage`, http.StatusOK},
		{"/v1/compare", `{"zoo":"SFC"}`, `}`, http.StatusOK},
		{"/v1/degrade", `{"zoo":"SFC","config":{"faults":{"level":1,"groups":2}}}`, `[]`, http.StatusOK},
		{"/v1/explore", `{"zoo":"Lenet-c"}`, `{}`, http.StatusOK},
		{"/v1/jobs", `{"zoo":"Lenet-c","free":[{"level":0,"layer":0}]}`, `0`, http.StatusAccepted},
		{"/v1/batch", `{"items":[{"zoo":"SFC"}]}`, `{"items":[]}`, http.StatusOK},
		{PeerFetchPath, fetchBody, `"x"`, http.StatusOK},
	}
	for _, tc := range cases {
		if code, b := post(tc.path, tc.body+tc.junk); code != http.StatusBadRequest {
			t.Errorf("%s with trailing %q: status %d, want 400 (%.120s)", tc.path, tc.junk, code, b)
		}
		if code, b := post(tc.path, tc.body+"\n"); code != tc.ok {
			t.Errorf("%s with a trailing newline: status %d, want %d (%.120s)", tc.path, code, tc.ok, b)
		}
	}
}

// freeVars renders n distinct free-variable objects for VGG-A.
func freeVars(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf(`{"level":%d,"layer":%d}`, i%4, i)
	}
	return strings.Join(parts, ",")
}

// TestHealthAndStats exercises the observability endpoints.
func TestHealthAndStats(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz["status"] != "ok" {
		t.Errorf("healthz: %v", hz)
	}

	if code, _ := postJSON(t, ts.URL+"/v1/plan", `{"zoo":"SFC"}`); code != http.StatusOK {
		t.Fatalf("plan failed: %d", code)
	}
	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var sz statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&sz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ep := sz.Endpoints["plan"]
	if ep.Requests < 1 || ep.Computes < 1 {
		t.Errorf("plan stats: %+v", ep)
	}
	if sz.CacheEntries < 1 {
		t.Errorf("cache entries: %d", sz.CacheEntries)
	}
}

// TestFlightPanicReleasesKey proves a panicking computation does not
// poison its singleflight key: followers get an error (not a hang) and
// the next caller for the key runs fresh.
func TestFlightPanicReleasesKey(t *testing.T) {
	var g flightGroup

	var entered sync.WaitGroup
	entered.Add(1)
	followerErr := make(chan error, 1)
	go func() {
		entered.Wait()
		_, err, leader := g.Do("k", func() (response, error) {
			// Only reached if this goroutine missed the leader's flight
			// (scheduling); then the key-release assertion below is the
			// whole test.
			return response{}, nil
		})
		if leader {
			followerErr <- nil
		} else {
			followerErr <- err
		}
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("leader panic did not propagate")
			}
		}()
		g.Do("k", func() (response, error) {
			entered.Done()
			// Give the follower time to join the flight; a scheduling
			// miss degrades the follower assertion, never flakes it.
			time.Sleep(100 * time.Millisecond)
			panic("boom")
		})
	}()

	select {
	case err := <-followerErr:
		if err != nil && !strings.Contains(err.Error(), "panic") {
			t.Fatalf("follower got %v, want a panic error (or nil on scheduling miss)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower hung on a poisoned key")
	}

	resp, err, leader := g.Do("k", func() (response, error) {
		return response{body: []byte("ok")}, nil
	})
	if err != nil || !leader || string(resp.body) != "ok" {
		t.Fatalf("key not released after panic: resp=%q err=%v leader=%v", resp.body, err, leader)
	}
}

// TestLRUBound proves the response cache evicts beyond its bound (the
// single-shard configuration — exact global LRU; the recency contract
// itself is pinned in internal/lru).
func TestLRUBound(t *testing.T) {
	c := newShardedLRU(2, 1)
	c.Put("a", response{body: []byte("a")})
	c.Put("b", response{body: []byte("b")})
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted early")
	}
	c.Put("c", response{body: []byte("c")}) // evicts b (a was refreshed)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted out of LRU order")
	}
	if c.Len() != 2 {
		t.Errorf("len %d", c.Len())
	}

	// Disabled cache never stores.
	d := newShardedLRU(-1, 1)
	d.Put("x", response{})
	if _, ok := d.Get("x"); ok {
		t.Error("disabled cache stored an entry")
	}
}
