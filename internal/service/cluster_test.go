package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hypar "repro"
	"repro/internal/cluster"
	"repro/internal/faultinject"
)

// clusterNode is one replica of an in-process test fleet.
type clusterNode struct {
	srv      *Server
	url      string
	computes *atomic.Int64
}

// newTestCluster boots n service.New replicas on loopback listeners
// wired to each other as peers, each with a compute-counting hook. mod
// (if non-nil) adjusts replica i's Options before New — the seam for
// drift and chaos variants.
func newTestCluster(t *testing.T, n int, mod func(i int, o *Options)) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		computes := &atomic.Int64{}
		o := Options{
			Self:      urls[i],
			Peers:     urls,
			OnCompute: func(string, string) { computes.Add(1) },
		}
		if mod != nil {
			mod(i, &o)
		}
		srv, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		go func(ln net.Listener) { _ = srv.Serve(ln) }(lns[i])
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
		nodes[i] = &clusterNode{srv: srv, url: urls[i], computes: computes}
	}
	return nodes
}

// fleetComputes sums actual evaluations across the fleet.
func fleetComputes(nodes []*clusterNode) int64 {
	var total int64
	for _, n := range nodes {
		total += n.computes.Load()
	}
	return total
}

// statszCluster fetches one replica's /statsz cluster block.
func statszCluster(t *testing.T, url string) *clusterSnapshot {
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
	return st.Cluster
}

// TestClusterByteIdenticalSingleCompute is the tentpole acceptance
// check: a 3-replica cluster serves byte-identical responses to
// single-replica mode while computing each unique request exactly once
// fleet-wide.
func TestClusterByteIdenticalSingleCompute(t *testing.T) {
	single, ts, _ := newTestServer(t)
	_ = single
	nodes := newTestCluster(t, 3, nil)

	bodies := []struct{ endpoint, body string }{
		{"/v1/evaluate", `{"zoo":"Lenet-c","strategy":"hypar"}`},
		{"/v1/evaluate", `{"zoo":"Cifar-c","strategy":"dp"}`},
		{"/v1/plan", `{"zoo":"AlexNet","strategy":"trick"}`},
		{"/v1/compare", `{"zoo":"SCONV"}`},
	}
	for _, b := range bodies {
		code, want := postJSON(t, ts.URL+b.endpoint, b.body)
		if code != http.StatusOK {
			t.Fatalf("single replica %s: status %d: %s", b.endpoint, code, want)
		}
		before := fleetComputes(nodes)
		for i, n := range nodes {
			code, got := postJSON(t, n.url+b.endpoint, b.body)
			if code != http.StatusOK {
				t.Fatalf("replica %d %s: status %d: %s", i, b.endpoint, code, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("replica %d %s: response differs from single-replica mode:\ncluster: %s\nsingle:  %s", i, b.endpoint, got, want)
			}
		}
		if got := fleetComputes(nodes) - before; got != 1 {
			t.Errorf("%s %s: fleet computed %d times, want exactly 1", b.endpoint, b.body, got)
		}
	}

	// Repeat traffic through every replica replays from each one's own
	// raw-bytes tier — zero additional computes, zero additional wire
	// traffic for the fleet.
	before := fleetComputes(nodes)
	for _, b := range bodies {
		for i, n := range nodes {
			code, got := postJSON(t, n.url+b.endpoint, b.body)
			if code != http.StatusOK {
				t.Fatalf("replica %d replay %s: status %d", i, b.endpoint, code)
			}
			_ = got
		}
	}
	if got := fleetComputes(nodes); got != before {
		t.Errorf("replays computed %d extra times, want 0", got-before)
	}
	var fastHits int64
	for _, n := range nodes {
		for _, ep := range []string{"plan", "evaluate", "compare"} {
			fastHits += n.srv.metrics[ep].fastHits.Load()
		}
	}
	if fastHits < int64(len(bodies)*len(nodes)) {
		t.Errorf("raw-tier replays = %d, want at least %d (every repeat through every replica)", fastHits, len(bodies)*len(nodes))
	}
}

// TestClusterStatszBlock proves /statsz grows the cluster block with
// ring geometry and peer-fill counters, and that single-replica servers
// omit it.
func TestClusterStatszBlock(t *testing.T) {
	_, ts, _ := newTestServer(t)
	if c := statszCluster(t, ts.URL); c != nil {
		t.Fatalf("single-replica /statsz has a cluster block: %+v", c)
	}

	nodes := newTestCluster(t, 3, nil)
	body := `{"zoo":"Lenet-c","strategy":"hypar"}`
	for _, n := range nodes {
		if code, b := postJSON(t, n.url+"/v1/evaluate", body); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, b)
		}
	}
	var peerHits, peerMisses, peerServed int64
	for i, n := range nodes {
		c := statszCluster(t, n.url)
		if c == nil {
			t.Fatalf("replica %d /statsz has no cluster block", i)
		}
		if c.Self != n.url {
			t.Errorf("replica %d cluster.self = %q, want %q", i, c.Self, n.url)
		}
		if len(c.Peers) != 3 {
			t.Errorf("replica %d cluster.peers = %v, want 3 entries", i, c.Peers)
		}
		if c.VNodes != cluster.DefaultVNodes {
			t.Errorf("replica %d cluster.vnodes = %d, want %d", i, c.VNodes, cluster.DefaultVNodes)
		}
		if c.RingSize <= 0 {
			t.Errorf("replica %d cluster.ringSize = %d, want > 0", i, c.RingSize)
		}
		peerHits += c.PeerHits
		peerMisses += c.PeerMisses
		peerServed += c.PeerServed
	}
	// One key, three replicas: exactly one owner, so the two non-owners
	// fetched from it.
	if peerHits+peerMisses != 2 {
		t.Errorf("fleet peerHits+peerMisses = %d, want 2 (two non-owner fills)", peerHits+peerMisses)
	}
	if peerServed != 2 {
		t.Errorf("fleet peerServed = %d, want 2", peerServed)
	}
}

// TestClusterBatchRoutesItems proves batch items route through the ring
// exactly like single requests: a batch posted to one replica computes
// each unique item once fleet-wide.
func TestClusterBatchRoutesItems(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	batch := `{"items":[
		{"endpoint":"evaluate","zoo":"Lenet-c","strategy":"hypar"},
		{"endpoint":"plan","zoo":"Cifar-c","strategy":"dp"},
		{"endpoint":"evaluate","zoo":"Lenet-c","strategy":"hypar"}
	]}`
	code, b := postJSON(t, nodes[0].url+"/v1/batch", batch)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, b)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("batch answered %d lines, want 3", len(lines))
	}
	if !bytes.Equal(lines[0], lines[2]) {
		t.Error("duplicate batch items got different responses")
	}
	if got := fleetComputes(nodes); got != 2 {
		t.Errorf("fleet computed %d times for 2 unique items, want 2", got)
	}

	// The same items through another replica replay entirely from the
	// owners' caches.
	if code, _ := postJSON(t, nodes[1].url+"/v1/batch", batch); code != http.StatusOK {
		t.Fatalf("batch via second replica: status %d", code)
	}
	if got := fleetComputes(nodes); got != 2 {
		t.Errorf("fleet computed %d times after re-batch, want still 2", got)
	}
}

// forwardedBody finds a request body whose canonical key is NOT owned
// by n, so posting it there must forward to a peer. The ring's members
// are httptest URLs on random ports, so which keys a node owns changes
// from run to run: the candidates are every zoo body, bare and at each
// batch from 1 to 32, so a miss would take hundreds of locally owned
// keys in a row.
func forwardedBody(t *testing.T, n *clusterNode) (body, key string) {
	t.Helper()
	zoo := []string{
		"Lenet-c", "Cifar-c", "SCONV", "SFC", "AlexNet",
		"VGG-A", "VGG-B", "VGG-C", "VGG-D", "VGG-E",
		"SRES-8", "Incep-2",
	}
	for batch := 0; batch <= 32; batch++ {
		for _, name := range zoo {
			body = fmt.Sprintf(`{"zoo":%q,"strategy":"hypar"}`, name)
			if batch > 0 {
				body = fmt.Sprintf(`{"zoo":%q,"strategy":"hypar","config":{"batch":%d}}`, name, batch)
			}
			p, err := n.srv.parseBody([]byte(body), true, false)
			if err != nil {
				t.Fatal(err)
			}
			key = p.key("evaluate")
			if n.srv.cluster.ring.Owner(key) != n.srv.cluster.self {
				return body, key
			}
		}
	}
	t.Fatal("no zoo body hashed to a remote owner; extend the candidate list")
	return "", ""
}

// TestClusterDriftDetected proves the 409 key-verification path: when a
// replica's base config drifts from the fleet's, forwarded fills are
// refused and the caller falls back to a locally computed — locally
// correct — response, poisoning nobody's cache.
func TestClusterDriftDetected(t *testing.T) {
	nodes := newTestCluster(t, 2, func(i int, o *Options) {
		if i == 1 {
			// Replica 1 boots with a drifted base config: same fleet,
			// different degraded-array default.
			cfg := hypar.DefaultConfig()
			cfg.Faults = hypar.Faults{Level: 1, Groups: 2}
			o.Config = cfg
		}
	})
	body, key := forwardedBody(t, nodes[0])

	// Reference: what a single healthy replica answers.
	_, ts, _ := newTestServer(t)
	refCode, want := postJSON(t, ts.URL+"/v1/evaluate", body)
	if refCode != http.StatusOK {
		t.Fatalf("reference: status %d", refCode)
	}

	code, got := postJSON(t, nodes[0].url+"/v1/evaluate", body)
	if code != http.StatusOK {
		t.Fatalf("drifted fleet: status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fallback response differs from healthy single-replica answer:\ngot:  %s\nwant: %s", got, want)
	}
	c0 := nodes[0].srv.cluster
	if c0.peerErrors.Load() == 0 {
		t.Error("drifted forward counted no peerErrors")
	}
	if c0.localFallbacks.Load() == 0 {
		t.Error("drifted forward did not fall back locally")
	}
	// The drifted owner refused before computing: its cache must not
	// hold the caller's key, and it must not have computed anything.
	if _, ok := nodes[1].srv.cache.Get(key); ok {
		t.Error("drifted owner cached a response under the caller's key")
	}
	if nodes[1].computes.Load() != 0 {
		t.Errorf("drifted owner computed %d times for a refused fill", nodes[1].computes.Load())
	}
}

// TestClusterPeerChaosFallsBack extends the chaos suite to peer
// fetches: injected peer errors and slowness must fall back to local
// compute within the request deadline and never poison either replica's
// cache.
func TestClusterPeerChaosFallsBack(t *testing.T) {
	in := faultinject.New(faultinject.Config{Seed: 42, ErrorRate: 1, SlowRate: 1, Slowness: 20 * time.Millisecond})
	nodes := newTestCluster(t, 2, func(i int, o *Options) {
		o.RequestTimeout = 10 * time.Second
		o.PeerFaultHook = in.Hook()
	})
	body, key := forwardedBody(t, nodes[0])

	_, ts, _ := newTestServer(t)
	if _, want := postJSON(t, ts.URL+"/v1/evaluate", body); true {
		start := time.Now()
		code, got := postJSON(t, nodes[0].url+"/v1/evaluate", body)
		if code != http.StatusOK {
			t.Fatalf("chaos fallback: status %d: %s", code, got)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("fallback took %s, past the request deadline", elapsed)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("fallback response differs from reference:\ngot:  %s\nwant: %s", got, want)
		}
	}
	c0 := nodes[0].srv.cluster
	if c0.peerErrors.Load() == 0 || c0.localFallbacks.Load() == 0 {
		t.Errorf("chaos fetch not counted: peerErrors=%d localFallbacks=%d",
			c0.peerErrors.Load(), c0.localFallbacks.Load())
	}
	if nodes[0].computes.Load() != 1 {
		t.Errorf("caller computed %d times, want exactly 1 local fallback", nodes[0].computes.Load())
	}
	// Neither cache is poisoned: the owner (which never saw the fill)
	// holds nothing, the caller holds the good fallback result and
	// replays it without recomputing.
	if _, ok := nodes[1].srv.cache.Get(key); ok {
		t.Error("owner cached an entry for a fetch that never reached it")
	}
	if code, _ := postJSON(t, nodes[0].url+"/v1/evaluate", body); code != http.StatusOK {
		t.Fatalf("replay after chaos: status %d", code)
	}
	if nodes[0].computes.Load() != 1 {
		t.Errorf("replay recomputed (computes=%d): fallback result was not cached", nodes[0].computes.Load())
	}

	// Once the chaos clears, peer fills work again for fresh keys.
	in.Disable()
	body2, _ := forwardedBody(t, nodes[1])
	if code, _ := postJSON(t, nodes[1].url+"/v1/evaluate", body2); code != http.StatusOK {
		t.Fatalf("post-chaos fill: status %d", code)
	}
	c1 := nodes[1].srv.cluster
	if c1.peerHits.Load()+c1.peerMisses.Load() == 0 {
		t.Error("post-chaos fetch did not reach the owner")
	}
}

// TestClusterConcurrentBurst hammers one key through every replica
// concurrently: responses stay byte-identical and the fleet computes
// once. Run with -race this doubles as the harness's data-race check.
func TestClusterConcurrentBurst(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	const body = `{"zoo":"Lenet-c","strategy":"hypar"}`
	const perNode = 8

	var wg sync.WaitGroup
	responses := make([][]byte, len(nodes)*perNode)
	errs := make([]error, len(nodes)*perNode)
	for ni, n := range nodes {
		for j := 0; j < perNode; j++ {
			wg.Add(1)
			go func(slot int, url string) {
				defer wg.Done()
				resp, err := http.Post(url+"/v1/evaluate", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					errs[slot] = err
					return
				}
				defer resp.Body.Close()
				var buf bytes.Buffer
				if _, err := buf.ReadFrom(resp.Body); err != nil {
					errs[slot] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[slot] = fmt.Errorf("status %d: %s", resp.StatusCode, buf.String())
					return
				}
				responses[slot] = buf.Bytes()
			}(ni*perNode+j, n.url)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < len(responses); i++ {
		if !bytes.Equal(responses[i], responses[0]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	if got := fleetComputes(nodes); got != 1 {
		t.Errorf("fleet computed %d times under burst, want exactly 1", got)
	}
}

// TestClusterOptionsValidation pins the misconfiguration errors New
// refuses cluster mode with.
func TestClusterOptionsValidation(t *testing.T) {
	if _, err := New(Options{Self: "http://a:1"}); err == nil {
		t.Error("Self without Peers accepted")
	}
	if _, err := New(Options{Peers: []string{"http://a:1"}}); err == nil {
		t.Error("Peers without Self accepted")
	}
	if _, err := New(Options{Self: "http://c:3", Peers: []string{"http://a:1", "http://b:2"}}); err == nil {
		t.Error("Self outside the peer list accepted")
	}
	if _, err := New(Options{Self: "http://a:1", Peers: []string{"http://a:1", "http://a:1"}}); err == nil {
		t.Error("duplicate peers accepted")
	}
	if _, err := New(Options{PeerFaultHook: func(context.Context, string, string) error { return nil }}); err == nil {
		t.Error("PeerFaultHook without cluster mode accepted")
	}
}
