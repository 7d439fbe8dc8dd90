package cluster

import (
	"errors"
	"testing"
)

// FuzzParseTopology throws arbitrary bytes at the hypardctl topology
// parser. Invariants: it never panics, every failure wraps ErrTopology
// (so hypardctl can distinguish bad specs from I/O errors), and any
// accepted topology re-validates and yields a constructible ring plus
// per-replica flag sets — the exact artifacts `hypardctl validate`
// hands to the operator — and is rejected once a stray `}` or `]`
// follows it.
func FuzzParseTopology(f *testing.F) {
	f.Add([]byte(validTopologyJSON()))
	f.Add([]byte(`{"replicas":[{"name":"solo","addr":"localhost:8080"}]}`))
	f.Add([]byte(`{"replicas":[{"name":"a","addr":"10.0.0.1:8080"},{"name":"b","addr":"10.0.0.1:8080"}]}`))
	f.Add([]byte(`{"vnodes":16,"cacheEntries":64,"replicas":[{"name":"a","addr":"[::1]:8080"}]}`))
	f.Add([]byte(`{"platformsPerLevel":{"0":"gpu-hbm","1":"hmc"},"replicas":[{"name":"a","addr":"10.0.0.1:8080","platformsPerLevel":{"0":"tpu-systolic"}}]}`))
	f.Add([]byte(`{"replicas":null}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := ParseTopology(data)
		if err != nil {
			if !errors.Is(err, ErrTopology) {
				t.Fatalf("ParseTopology error %v does not wrap ErrTopology", err)
			}
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("accepted topology fails re-validation: %v", err)
		}
		if _, err := NewRing(topo.PeerURLs(), topo.VNodes); err != nil {
			t.Fatalf("accepted topology has no constructible ring: %v", err)
		}
		for i := range topo.Replicas {
			if flags := topo.Flags(i); len(flags) < 6 {
				t.Fatalf("replica %d flag set too short: %v", i, flags)
			}
		}
		if topo.Summary() == "" {
			t.Fatal("accepted topology has empty summary")
		}
		for _, tail := range []string{"}", "]"} {
			if _, err := ParseTopology(append(append([]byte(nil), data...), tail...)); err == nil {
				t.Fatalf("accepted topology followed by %q is accepted too", tail)
			}
		}
	})
}
