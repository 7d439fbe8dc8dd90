package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	hypar "repro"
	"repro/internal/platform"
)

// ErrTopology reports an invalid deployment topology.
var ErrTopology = errors.New("cluster: invalid topology")

// Topology bounds, mirrored by the validation errors below.
const (
	// MinVNodes is the smallest explicit virtual-node count Validate
	// accepts: below it, per-replica key shares drift past the ±15%
	// fairness band the ring's property tests pin.
	MinVNodes = 16
	// MaxVNodes bounds the explicit per-replica virtual-node count.
	MaxVNodes = 4096
	// MaxReplicas bounds the fleet size one static peer list may name.
	MaxReplicas = 64
	// MinCacheEntries is the smallest explicit per-replica response
	// cache Validate accepts in a cluster: the service stripes its LRU
	// 16 ways, and fewer than 4 entries per stripe collapses the
	// striping the peer-fill hot path depends on.
	MinCacheEntries = 64
	// MinRawCacheBytes is the smallest explicit raw-bytes fast-path
	// budget Validate accepts: peer fills seed the caller's raw tier,
	// and a budget under 64 KiB evicts them before they replay.
	MinRawCacheBytes = 64 << 10
	// MaxRawCacheBytes bounds the explicit per-replica raw-bytes budget
	// (an over-capacity topology: 1 GiB of pinned response bytes per
	// replica is a misconfiguration, not a cache).
	MaxRawCacheBytes = 1 << 30
)

// Replica is one hypard instance of the fleet.
type Replica struct {
	// Name identifies the replica in reports and probe output.
	Name string `json:"name"`
	// Addr is the host:port the replica listens on and peers reach it
	// at.
	Addr string `json:"addr"`
	// PlatformsPerLevel optionally spells out this replica's default
	// per-level platform assignment, in the config's wire form (level
	// index → platform name). Every replica's effective assignment must
	// be identical: request hashes cover the canonical config, so a
	// replica whose default assignment drifts from the fleet's computes
	// different keys than the ring's owners and 409s on every
	// /peer/v1/fetch. Validate rejects the drift before any replica
	// boots.
	PlatformsPerLevel hypar.PlatformSpec `json:"platformsPerLevel,omitempty"`
}

// URL returns the replica's peer URL.
func (r Replica) URL() string { return "http://" + r.Addr }

// Topology is the deployment spec for a hypard fleet: the replica set,
// the consistent-hash ring geometry, and the per-replica cache split.
// Zero-valued optional fields mean "use the daemon's default" and are
// omitted from emitted flag sets.
type Topology struct {
	// VNodes is the virtual-node count per replica (0 = the ring
	// default).
	VNodes int `json:"vnodes,omitempty"`
	// CacheEntries is each replica's canonical response LRU bound
	// (0 = the daemon default). In a cluster every key has exactly one
	// owner, so the fleet's effective capacity is the per-replica value
	// summed across replicas.
	CacheEntries int `json:"cacheEntries,omitempty"`
	// RawCacheBytes is each replica's raw-bytes fast-path budget
	// (0 = the daemon default).
	RawCacheBytes int `json:"rawCacheBytes,omitempty"`
	// RequestTimeoutMs is the per-request evaluation deadline each
	// replica enforces and propagates to peer fetches (0 = none).
	RequestTimeoutMs int `json:"requestTimeoutMs,omitempty"`
	// PlatformsPerLevel is the fleet-wide default per-level platform
	// assignment (level index → platform name), emitted to every
	// replica as -platforms-per-level. A replica may spell out its own
	// PlatformsPerLevel, but it must match this one — see
	// Replica.PlatformsPerLevel for why drift is fatal.
	PlatformsPerLevel hypar.PlatformSpec `json:"platformsPerLevel,omitempty"`
	// Replicas lists every hypard instance of the fleet.
	Replicas []Replica `json:"replicas"`
}

// knownPlatforms checks that every platform spec names is registered;
// where names the spec's owner in errors.
func knownPlatforms(spec hypar.PlatformSpec, where string) error {
	for h, n := range spec.Names() {
		if n == "" {
			continue
		}
		if _, err := platform.ByName(n); err != nil {
			return fmt.Errorf("%w: %s platformsPerLevel level %d: %v", ErrTopology, where, h, err)
		}
	}
	return nil
}

// ParseTopology decodes and validates a topology spec. Unknown fields
// are rejected — a typoed key silently ignored here would boot a fleet
// that looks validated and is not.
func ParseTopology(b []byte) (*Topology, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var t Topology
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTopology, err)
	}
	// Anything but whitespace after the object, a stray closing
	// delimiter included, is a malformed spec, not an extension point.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after topology object", ErrTopology)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Validate checks the topology before any replica boots, refusing the
// misconfigurations that would otherwise surface as a half-broken fleet
// at runtime: duplicate endpoints (two replicas would claim one
// address), inconsistent ring geometry (replicas disagreeing on
// ownership), and cache splits too small to survive the service's
// striping. Every error names the offending replica or field and what
// to change.
func (t *Topology) Validate() error {
	if len(t.Replicas) == 0 {
		return fmt.Errorf("%w: no replicas (name at least one)", ErrTopology)
	}
	if len(t.Replicas) > MaxReplicas {
		return fmt.Errorf("%w: %d replicas exceeds the %d-replica static peer list bound",
			ErrTopology, len(t.Replicas), MaxReplicas)
	}
	names := make(map[string]int, len(t.Replicas))
	addrs := make(map[string]int, len(t.Replicas))
	for i, r := range t.Replicas {
		if r.Name == "" {
			return fmt.Errorf("%w: replica %d has no name", ErrTopology, i)
		}
		if strings.ContainsAny(r.Name, ", \t\n") {
			return fmt.Errorf("%w: replica name %q contains separators (use a plain token)", ErrTopology, r.Name)
		}
		if j, ok := names[r.Name]; ok {
			return fmt.Errorf("%w: duplicate replica name %q (replicas %d and %d)", ErrTopology, r.Name, j, i)
		}
		names[r.Name] = i
		host, port, err := net.SplitHostPort(r.Addr)
		if err != nil {
			return fmt.Errorf("%w: replica %q addr %q is not host:port: %v", ErrTopology, r.Name, r.Addr, err)
		}
		if host == "" {
			return fmt.Errorf("%w: replica %q addr %q has no host (peers could not reach it)", ErrTopology, r.Name, r.Addr)
		}
		p, err := strconv.Atoi(port)
		if err != nil || p < 1 || p > 65535 {
			return fmt.Errorf("%w: replica %q port %q is not in [1, 65535]", ErrTopology, r.Name, port)
		}
		key := net.JoinHostPort(host, port)
		if j, ok := addrs[key]; ok {
			return fmt.Errorf("%w: duplicate endpoint %s (replicas %q and %q would fight over one port)",
				ErrTopology, key, t.Replicas[j].Name, r.Name)
		}
		addrs[key] = i
	}
	if t.VNodes != 0 && (t.VNodes < MinVNodes || t.VNodes > MaxVNodes) {
		return fmt.Errorf("%w: vnodes %d outside [%d, %d] (too few skews key ownership, too many bloats every ring rebuild)",
			ErrTopology, t.VNodes, MinVNodes, MaxVNodes)
	}
	if t.CacheEntries < 0 {
		return fmt.Errorf("%w: cacheEntries %d disables the response cache, but peer fill serves the fleet from the owner's cache — give each replica a positive bound",
			ErrTopology, t.CacheEntries)
	}
	if t.CacheEntries != 0 && t.CacheEntries < MinCacheEntries {
		return fmt.Errorf("%w: cacheEntries %d under-provisions the per-replica cache: the service stripes it 16 ways, so give each replica at least %d entries (or leave it default)",
			ErrTopology, t.CacheEntries, MinCacheEntries)
	}
	if t.RawCacheBytes < 0 {
		return fmt.Errorf("%w: rawCacheBytes %d disables the raw-bytes fast path peer fills seed — give each replica a positive budget",
			ErrTopology, t.RawCacheBytes)
	}
	if t.RawCacheBytes != 0 && t.RawCacheBytes < MinRawCacheBytes {
		return fmt.Errorf("%w: rawCacheBytes %d is under the %d-byte floor (peer-fill seeds would evict before replaying)",
			ErrTopology, t.RawCacheBytes, MinRawCacheBytes)
	}
	if t.RawCacheBytes > MaxRawCacheBytes {
		return fmt.Errorf("%w: rawCacheBytes %d exceeds the %d-byte per-replica capacity bound",
			ErrTopology, t.RawCacheBytes, MaxRawCacheBytes)
	}
	if t.RequestTimeoutMs < 0 {
		return fmt.Errorf("%w: requestTimeoutMs %d is negative", ErrTopology, t.RequestTimeoutMs)
	}
	// Per-level platform assignments must agree across the whole fleet:
	// the canonical config feeds every request hash, so one replica
	// defaulting to a different assignment owns no key it computes and
	// 409s on every peer fetch. Specs decode to their canonical comma
	// form, so spelling differences ({"0":"hmc"} vs {"00":"hmc"}) don't
	// mask — or fake — drift.
	if err := knownPlatforms(t.PlatformsPerLevel, "topology"); err != nil {
		return err
	}
	agreed, agreedBy := t.PlatformsPerLevel, "the topology"
	for _, r := range t.Replicas {
		spec := r.PlatformsPerLevel
		if err := knownPlatforms(spec, "replica "+strconv.Quote(r.Name)); err != nil {
			return err
		}
		if spec.IsZero() {
			continue // inherits the fleet default
		}
		if agreed.IsZero() {
			agreed, agreedBy = spec, "replica "+strconv.Quote(r.Name)
			continue
		}
		if spec != agreed {
			return fmt.Errorf("%w: replica %q platformsPerLevel %q drifts from %s's %q — a drifted replica computes request hashes no ring owner recognizes and 409s on every /peer/v1/fetch",
				ErrTopology, r.Name, spec, agreedBy, agreed)
		}
	}
	// The ring itself must be constructible over the peer URLs.
	if _, err := NewRing(t.PeerURLs(), t.VNodes); err != nil {
		return fmt.Errorf("%w: %v", ErrTopology, err)
	}
	return nil
}

// PeerURLs returns every replica's peer URL in spec order — the -peers
// value each replica boots with (identical on all of them, so they
// compute identical rings).
func (t *Topology) PeerURLs() []string {
	urls := make([]string, len(t.Replicas))
	for i, r := range t.Replicas {
		urls[i] = r.URL()
	}
	return urls
}

// Flags returns the ready-to-run hypard flag set for replica i:
// listen address, cluster identity (self + full peer list) and the
// topology's explicit cache/deadline settings. Fields the topology
// leaves zero are omitted so the daemon's own defaults apply.
func (t *Topology) Flags(i int) []string {
	r := t.Replicas[i]
	flags := []string{
		"-addr", r.Addr,
		"-self", r.URL(),
		"-peers", strings.Join(t.PeerURLs(), ","),
	}
	if t.VNodes != 0 {
		flags = append(flags, "-vnodes", strconv.Itoa(t.VNodes))
	}
	if t.CacheEntries != 0 {
		flags = append(flags, "-cache", strconv.Itoa(t.CacheEntries))
	}
	if t.RawCacheBytes != 0 {
		flags = append(flags, "-rawcache", strconv.Itoa(t.RawCacheBytes))
	}
	if t.RequestTimeoutMs != 0 {
		flags = append(flags, "-timeout", (time.Duration(t.RequestTimeoutMs) * time.Millisecond).String())
	}
	// Validate guarantees replica and fleet specs agree, so emit
	// whichever is spelled out (the replica's own wins as the more
	// specific spelling of the same assignment).
	spec := r.PlatformsPerLevel
	if spec.IsZero() {
		spec = t.PlatformsPerLevel
	}
	if !spec.IsZero() {
		flags = append(flags, "-platforms-per-level", string(spec))
	}
	return flags
}

// ProbeResult is one replica's reachability outcome.
type ProbeResult struct {
	// Replica is the probed instance.
	Replica Replica
	// OK reports whether /healthz answered 200 within the deadline.
	OK bool
	// Err holds the failure when OK is false.
	Err error
	// Latency is the probe round trip.
	Latency time.Duration
}

// Probe checks every replica's /healthz in parallel — the upfront
// reachability pass of hypardctl validate -probe. Results come back in
// replica order regardless of completion order; client may be nil (a
// plain http.Client bounded by ctx).
func (t *Topology) Probe(ctx context.Context, client *http.Client) []ProbeResult {
	if client == nil {
		client = &http.Client{}
	}
	results := make([]ProbeResult, len(t.Replicas))
	var wg sync.WaitGroup
	for i, r := range t.Replicas {
		wg.Add(1)
		go func(i int, r Replica) {
			defer wg.Done()
			t0 := time.Now()
			res := ProbeResult{Replica: r}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.URL()+"/healthz", nil)
			if err != nil {
				res.Err = err
			} else if resp, err := client.Do(req); err != nil {
				res.Err = err
			} else {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					res.OK = true
				} else {
					res.Err = fmt.Errorf("healthz answered %d", resp.StatusCode)
				}
			}
			res.Latency = time.Since(t0)
			results[i] = res
		}(i, r)
	}
	wg.Wait()
	return results
}

// Summary renders a one-screen human description of the validated
// topology: fleet size, ring geometry and the per-replica share of an
// evenly distributed key space.
func (t *Topology) Summary() string {
	var b strings.Builder
	vn := t.VNodes
	if vn == 0 {
		vn = DefaultVNodes
	}
	fmt.Fprintf(&b, "%d replicas, %d virtual nodes each (ring size %d)\n",
		len(t.Replicas), vn, len(t.Replicas)*vn)
	names := make([]string, len(t.Replicas))
	for i, r := range t.Replicas {
		names[i] = fmt.Sprintf("%s=%s", r.Name, r.Addr)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "replicas: %s\n", strings.Join(names, " "))
	return b.String()
}
