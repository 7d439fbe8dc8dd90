package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func validTopologyJSON() string {
	return `{
		"vnodes": 128,
		"cacheEntries": 4096,
		"rawCacheBytes": 4194304,
		"requestTimeoutMs": 2000,
		"replicas": [
			{"name": "a", "addr": "127.0.0.1:8081"},
			{"name": "b", "addr": "127.0.0.1:8082"},
			{"name": "c", "addr": "127.0.0.1:8083"}
		]
	}`
}

func TestParseTopologyValid(t *testing.T) {
	topo, err := ParseTopology([]byte(validTopologyJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Replicas) != 3 {
		t.Fatalf("replicas = %d, want 3", len(topo.Replicas))
	}
	urls := topo.PeerURLs()
	want := []string{"http://127.0.0.1:8081", "http://127.0.0.1:8082", "http://127.0.0.1:8083"}
	for i := range want {
		if urls[i] != want[i] {
			t.Fatalf("PeerURLs()[%d] = %q, want %q", i, urls[i], want[i])
		}
	}
	if s := topo.Summary(); !strings.Contains(s, "3 replicas") || !strings.Contains(s, "a=127.0.0.1:8081") {
		t.Fatalf("Summary() = %q", s)
	}
}

// TestParseTopologyTrailingData: only whitespace may follow the
// topology object. A stray closing delimiter is trailing data too,
// although json.Decoder.More reports no further value in front of one.
func TestParseTopologyTrailingData(t *testing.T) {
	spec := `{"replicas":[{"name":"a","addr":"h:1"}]}`
	for _, tail := range []string{"}", "]", " ] ", "{}", "x", "1"} {
		_, err := ParseTopology([]byte(spec + tail))
		if !errors.Is(err, ErrTopology) || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("spec + %q = %v, want a trailing-data ErrTopology", tail, err)
		}
	}
	for _, tail := range []string{"\n", " \t\r\n"} {
		if _, err := ParseTopology([]byte(spec + tail)); err != nil {
			t.Errorf("spec + %q = %v, want it accepted", tail, err)
		}
	}
}

func TestParseTopologyRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the actionable error
	}{
		{"syntax", `{`, "invalid topology"},
		{"unknown field", `{"replicas":[{"name":"a","addr":"h:1"}],"shards":2}`, "shards"},
		{"trailing data", `{"replicas":[{"name":"a","addr":"h:1"}]} {}`, "trailing data"},
		{"no replicas", `{"replicas":[]}`, "no replicas"},
		{"missing name", `{"replicas":[{"addr":"h:1"}]}`, "no name"},
		{"separator in name", `{"replicas":[{"name":"a b","addr":"h:1"}]}`, "separators"},
		{"duplicate name", `{"replicas":[{"name":"a","addr":"h:1"},{"name":"a","addr":"h:2"}]}`, "duplicate replica name"},
		{"bad addr", `{"replicas":[{"name":"a","addr":"nohostport"}]}`, "not host:port"},
		{"no host", `{"replicas":[{"name":"a","addr":":8080"}]}`, "no host"},
		{"bad port", `{"replicas":[{"name":"a","addr":"h:99999"}]}`, "not in [1, 65535]"},
		{"duplicate endpoint", `{"replicas":[{"name":"a","addr":"10.0.0.1:8080"},{"name":"b","addr":"10.0.0.1:8080"}]}`, "duplicate endpoint"},
		{"vnodes too low", `{"vnodes":4,"replicas":[{"name":"a","addr":"h:1"}]}`, "vnodes 4 outside"},
		{"vnodes too high", `{"vnodes":100000,"replicas":[{"name":"a","addr":"h:1"}]}`, "vnodes 100000 outside"},
		{"negative cache", `{"cacheEntries":-1,"replicas":[{"name":"a","addr":"h:1"}]}`, "disables the response cache"},
		{"tiny cache", `{"cacheEntries":8,"replicas":[{"name":"a","addr":"h:1"}]}`, "under-provisions"},
		{"negative rawcache", `{"rawCacheBytes":-1,"replicas":[{"name":"a","addr":"h:1"}]}`, "disables the raw-bytes fast path"},
		{"tiny rawcache", `{"rawCacheBytes":1024,"replicas":[{"name":"a","addr":"h:1"}]}`, "64-byte floor"}, // replaced below
		{"huge rawcache", `{"rawCacheBytes":2147483648,"replicas":[{"name":"a","addr":"h:1"}]}`, "exceeds"},
		{"negative timeout", `{"requestTimeoutMs":-5,"replicas":[{"name":"a","addr":"h:1"}]}`, "negative"},
	}
	// The floor message embeds the numeric constant; build it here
	// instead of hard-coding digits in the table.
	for i := range cases {
		if cases[i].name == "tiny rawcache" {
			cases[i].want = fmt.Sprintf("%d-byte floor", MinRawCacheBytes)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTopology([]byte(tc.json))
			if !errors.Is(err, ErrTopology) {
				t.Fatalf("error = %v, want ErrTopology", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestTopologyRejectsOversizedFleet(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"replicas":[`)
	for i := 0; i <= MaxReplicas; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"name":"r%d","addr":"10.0.0.%d:8080"}`, i, i+1)
	}
	b.WriteString(`]}`)
	_, err := ParseTopology([]byte(b.String()))
	if !errors.Is(err, ErrTopology) || !strings.Contains(err.Error(), "peer list bound") {
		t.Fatalf("error = %v, want replica-bound rejection", err)
	}
}

func TestTopologyFlags(t *testing.T) {
	topo, err := ParseTopology([]byte(validTopologyJSON()))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(topo.Flags(1), " ")
	want := "-addr 127.0.0.1:8082 -self http://127.0.0.1:8082 " +
		"-peers http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083 " +
		"-vnodes 128 -cache 4096 -rawcache 4194304 -timeout 2s"
	if got != want {
		t.Fatalf("Flags(1) = %q, want %q", got, want)
	}

	// Defaults stay the daemon's: zero-valued fields emit no flags.
	minimal := &Topology{Replicas: []Replica{{Name: "a", Addr: "127.0.0.1:9000"}}}
	if err := minimal.Validate(); err != nil {
		t.Fatal(err)
	}
	got = strings.Join(minimal.Flags(0), " ")
	want = "-addr 127.0.0.1:9000 -self http://127.0.0.1:9000 -peers http://127.0.0.1:9000"
	if got != want {
		t.Fatalf("minimal Flags(0) = %q, want %q", got, want)
	}
}

// TestTopologyPlatformAssignment pins the per-level platform plumbing:
// agreeing specs validate and reach the boot flags as the canonical
// comma form, equivalent spellings don't read as drift, and a replica
// whose assignment differs from the fleet's is rejected before boot
// (drift means its request hashes match no ring owner and every
// /peer/v1/fetch 409s).
func TestTopologyPlatformAssignment(t *testing.T) {
	t.Run("agreeing specs emit the flag", func(t *testing.T) {
		topo, err := ParseTopology([]byte(`{
			"platformsPerLevel": {"0": "gpu-hbm", "1": "hmc"},
			"replicas": [
				{"name": "a", "addr": "10.0.0.1:8080"},
				{"name": "b", "addr": "10.0.0.2:8080", "platformsPerLevel": {"0": "gpu-hbm", "1": "hmc"}}
			]
		}`))
		if err != nil {
			t.Fatal(err)
		}
		for i := range topo.Replicas {
			got := strings.Join(topo.Flags(i), " ")
			if !strings.Contains(got, "-platforms-per-level gpu-hbm,hmc") {
				t.Errorf("Flags(%d) = %q, want -platforms-per-level gpu-hbm,hmc", i, got)
			}
		}
	})

	t.Run("equivalent spellings are not drift", func(t *testing.T) {
		// Sparse replica spec {"1":"hmc"} canonicalizes with a hole at
		// level 0 — a different assignment than the fleet's full spec,
		// but {"0":"hmc","1":"hmc"} twice with different key spellings
		// must agree.
		_, err := ParseTopology([]byte(`{
			"platformsPerLevel": {"0": "hmc", "1": "hmc"},
			"replicas": [
				{"name": "a", "addr": "10.0.0.1:8080", "platformsPerLevel": {"1": "hmc", "0": "hmc"}}
			]
		}`))
		if err != nil {
			t.Fatalf("same assignment spelled differently rejected: %v", err)
		}
	})

	t.Run("drifting replica rejected", func(t *testing.T) {
		_, err := ParseTopology([]byte(`{
			"platformsPerLevel": {"0": "gpu-hbm"},
			"replicas": [
				{"name": "a", "addr": "10.0.0.1:8080"},
				{"name": "b", "addr": "10.0.0.2:8080", "platformsPerLevel": {"0": "tpu-systolic"}}
			]
		}`))
		if !errors.Is(err, ErrTopology) {
			t.Fatalf("error = %v, want ErrTopology", err)
		}
		for _, want := range []string{`replica "b"`, "tpu-systolic", "gpu-hbm", "409"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("drift error %q does not mention %q", err, want)
			}
		}
	})

	t.Run("replicas drift without a fleet default", func(t *testing.T) {
		_, err := ParseTopology([]byte(`{
			"replicas": [
				{"name": "a", "addr": "10.0.0.1:8080", "platformsPerLevel": {"0": "hmc"}},
				{"name": "b", "addr": "10.0.0.2:8080", "platformsPerLevel": {"0": "gpu-hbm"}}
			]
		}`))
		if !errors.Is(err, ErrTopology) || !strings.Contains(err.Error(), `replica "a"`) {
			t.Fatalf("error = %v, want drift naming the first spelled-out replica", err)
		}
	})

	t.Run("bad specs rejected", func(t *testing.T) {
		cases := []struct {
			name string
			json string
			want string
		}{
			{"non-integer key", `{"platformsPerLevel":{"root":"hmc"},"replicas":[{"name":"a","addr":"h:1"}]}`, `key "root"`},
			{"out-of-range key", `{"platformsPerLevel":{"25":"hmc"},"replicas":[{"name":"a","addr":"h:1"}]}`, `key "25"`},
			{"negative key", `{"platformsPerLevel":{"-1":"hmc"},"replicas":[{"name":"a","addr":"h:1"}]}`, `key "-1"`},
			{"unknown platform", `{"replicas":[{"name":"a","addr":"h:1","platformsPerLevel":{"0":"quantum"}}]}`, "quantum"},
			{"level named twice", `{"replicas":[{"name":"a","addr":"h:1","platformsPerLevel":{"0":"hmc","-0":"gpu-hbm"}}]}`, "level 0 named twice"},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				_, err := ParseTopology([]byte(tc.json))
				if !errors.Is(err, ErrTopology) {
					t.Fatalf("error = %v, want ErrTopology", err)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %q does not mention %q", err, tc.want)
				}
			})
		}
	})
}

func TestTopologyProbe(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer healthy.Close()
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer sick.Close()

	topo := &Topology{Replicas: []Replica{
		{Name: "healthy", Addr: strings.TrimPrefix(healthy.URL, "http://")},
		{Name: "sick", Addr: strings.TrimPrefix(sick.URL, "http://")},
		{Name: "absent", Addr: "127.0.0.1:1"},
	}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	results := topo.Probe(ctx, nil)
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if !results[0].OK || results[0].Err != nil {
		t.Errorf("healthy replica: OK=%v err=%v", results[0].OK, results[0].Err)
	}
	if results[1].OK || results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "503") {
		t.Errorf("sick replica: OK=%v err=%v, want 503", results[1].OK, results[1].Err)
	}
	if results[2].OK || results[2].Err == nil {
		t.Errorf("absent replica: OK=%v err=%v, want connection error", results[2].OK, results[2].Err)
	}
	for i, r := range results {
		if r.Replica.Name != topo.Replicas[i].Name {
			t.Errorf("result %d is %q, want spec order preserved (%q)", i, r.Replica.Name, topo.Replicas[i].Name)
		}
	}
}
