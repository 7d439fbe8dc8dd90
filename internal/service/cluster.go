package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// Peer protocol wire constants. The fetch endpoint is internal: replicas
// of one fleet call it on each other, clients never do.
const (
	// PeerFetchPath is the internal owner-fill endpoint.
	PeerFetchPath = "/peer/v1/fetch"
	// peerEndpointHeader names the logical endpoint the forwarded body
	// belongs to ("plan", "evaluate", "compare", "degrade").
	peerEndpointHeader = "X-Hypar-Peer-Endpoint"
	// peerKeyHeader carries the caller's canonical request hash. The
	// owner recomputes the key from the forwarded body and refuses a
	// mismatch with 409 — disagreement means the replicas' base configs
	// have drifted, and serving the owner's answer under the caller's
	// key would poison the caller's raw tier.
	peerKeyHeader = "X-Hypar-Peer-Key"
	// peerDeadlineHeader propagates the caller's remaining budget in
	// milliseconds, so the owner never computes past a deadline the
	// caller has already given up on.
	peerDeadlineHeader = "X-Hypar-Peer-Deadline-Ms"
	// peerCacheHeader reports whether the owner answered from cache
	// ("hit") or had to compute ("miss").
	peerCacheHeader = "X-Hypar-Peer-Cache"
	// maxPeerResponseBytes bounds a peer response body; a fleet member
	// streaming garbage must not balloon the caller.
	maxPeerResponseBytes = 32 << 20
)

// clusterState is the per-server cluster half: ring, identity, peer
// transport and the /statsz cluster counters. nil on a single-replica
// server — every cluster touch point checks for that, so single-replica
// behavior is byte-for-byte the pre-cluster code path.
//
// Routing covers the cacheable request/response endpoints (plan,
// evaluate, compare, degrade — singly or as batch items). Explore
// streams NDJSON and jobs are async handles bound to the replica that
// accepted them; both stay local by design.
type clusterState struct {
	self   string
	ring   *cluster.Ring
	client *http.Client
	// faultHook runs at the head of every peer fetch (the chaos seam
	// mirroring Options.FaultHook for local computes): an error stands
	// in for a failed peer and exercises the local-fallback path.
	faultHook func(ctx context.Context, endpoint, key string) error

	peerHits       atomic.Int64 // owner answered from its cache
	peerMisses     atomic.Int64 // owner had to compute
	peerErrors     atomic.Int64 // fetch failed (peer down, drifted, slow)
	localFallbacks atomic.Int64 // computed locally after a failed fetch
	peerServed     atomic.Int64 // fetches this replica answered as owner
}

// clusterSnapshot is the /statsz "cluster" block.
type clusterSnapshot struct {
	Self           string   `json:"self"`
	Peers          []string `json:"peers"`
	VNodes         int      `json:"vnodes"`
	RingSize       int      `json:"ringSize"`
	PeerHits       int64    `json:"peerHits"`
	PeerMisses     int64    `json:"peerMisses"`
	PeerErrors     int64    `json:"peerErrors"`
	LocalFallbacks int64    `json:"localFallbacks"`
	PeerServed     int64    `json:"peerServed"`
}

func (c *clusterState) snapshot() *clusterSnapshot {
	return &clusterSnapshot{
		Self:           c.self,
		Peers:          c.ring.Members(),
		VNodes:         c.ring.VNodes(),
		RingSize:       c.ring.Size(),
		PeerHits:       c.peerHits.Load(),
		PeerMisses:     c.peerMisses.Load(),
		PeerErrors:     c.peerErrors.Load(),
		LocalFallbacks: c.localFallbacks.Load(),
		PeerServed:     c.peerServed.Load(),
	}
}

// initCluster wires cluster mode when Options names a peer fleet, and
// is a no-op otherwise. Called from New after the standard endpoints
// are registered.
func (s *Server) initCluster(opts Options) error {
	if opts.Self == "" && len(opts.Peers) == 0 {
		if opts.PeerFaultHook != nil {
			return fmt.Errorf("%w: PeerFaultHook set without Self/Peers", ErrService)
		}
		return nil
	}
	if opts.Self == "" || len(opts.Peers) == 0 {
		return fmt.Errorf("%w: cluster mode needs both Self and Peers (the full static peer list, including Self)", ErrService)
	}
	ring, err := cluster.NewRing(opts.Peers, opts.VNodes)
	if err != nil {
		return err
	}
	self := false
	for _, p := range opts.Peers {
		if p == opts.Self {
			self = true
			break
		}
	}
	if !self {
		return fmt.Errorf("%w: Self %q is not in the peer list %v — every replica must appear in its own ring, or the fleets' rings disagree", ErrService, opts.Self, opts.Peers)
	}
	client := opts.PeerClient
	if client == nil {
		// Deadlines ride on the request context; the transport bounds
		// only what a context cannot — dialing a black-holed peer, and a
		// wedged owner that never starts its response (the header
		// timeout matches the server's own WriteTimeout, so it can never
		// cut off a live computation the owner is still allowed to run).
		client = &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConnsPerHost:   16,
			IdleConnTimeout:       time.Minute,
			ResponseHeaderTimeout: 2 * time.Minute,
		}}
	}
	s.cluster = &clusterState{
		self:      opts.Self,
		ring:      ring,
		client:    client,
		faultHook: opts.PeerFaultHook,
	}
	s.metrics["peer"] = &endpointStats{}
	s.mux.HandleFunc(PeerFetchPath, s.post("peer", s.handlePeerFetch))
	return nil
}

// resolve routes one request hash to its computation. Single-replica
// servers and owned keys go straight through the local cache →
// singleflight → compute pipeline; in cluster mode a key owned by
// another replica is fetched from that owner (one fill serves the whole
// fleet: the owner's singleflight and LRU dedupe across replicas), with
// local compute as the fallback when the owner is unreachable. p may be
// nil for callers that cannot be forwarded (they resolve locally).
func (s *Server) resolve(waitCtx, computeCtx context.Context, endpoint, key string, p *parsed, compute func(ctx context.Context) (response, error)) (response, error) {
	c := s.cluster
	if c == nil || p == nil {
		return s.resolveCtx(waitCtx, computeCtx, endpoint, key, compute)
	}
	owner := c.ring.Owner(key)
	if owner == c.self {
		return s.resolveCtx(waitCtx, computeCtx, endpoint, key, compute)
	}
	m := s.metrics[endpoint]
	if resp, ok := s.cache.Get(key); ok {
		m.cacheHits.Add(1)
		return resp, nil
	}
	// Local callers for the same key coalesce onto one peer fetch, so a
	// burst of identical requests costs one wire round trip, not N.
	resp, err, _ := s.flight.DoCtx(waitCtx, key, &m.coalesced, func() (response, error) {
		if resp, ok := s.cache.Get(key); ok {
			m.cacheHits.Add(1)
			return resp, nil
		}
		if c.faultHook != nil {
			if err := c.faultHook(waitCtx, endpoint, key); err != nil {
				c.peerErrors.Add(1)
				return s.peerFallback(computeCtx, m, endpoint, key, compute)
			}
		}
		resp, hit, err := c.fetch(waitCtx, endpoint, key, owner, p)
		if err == nil {
			// The owner's answer is deliberately NOT put in the local
			// canonical cache: in a cluster each key is cached at its
			// owner so fleet capacity adds instead of duplicating. The
			// caller's raw-bytes tier still gets seeded (storeFast in
			// serveBody), keeping exact-bytes repeats wire-speed.
			if hit {
				c.peerHits.Add(1)
			} else {
				c.peerMisses.Add(1)
			}
			return resp, nil
		}
		if waitCtx != nil && waitCtx.Err() != nil {
			// The caller's own deadline or disconnect ended the fetch —
			// there is no budget left to fall back into.
			return response{}, waitCtx.Err()
		}
		c.peerErrors.Add(1)
		return s.peerFallback(computeCtx, m, endpoint, key, compute)
	})
	return resp, err
}

// peerFallback computes locally after a failed peer fetch, through the
// same admission/hook/cache tail as an owned compute. The fallback
// result does land in the local canonical cache: with the owner down,
// this replica is the key's effective home until the fleet heals.
func (s *Server) peerFallback(computeCtx context.Context, m *endpointStats, endpoint, key string, compute func(ctx context.Context) (response, error)) (response, error) {
	s.cluster.localFallbacks.Add(1)
	return s.computeLocked(computeCtx, m, endpoint, key, compute)
}

// peerBody renders the canonical forwarded body for a parsed request:
// the canonical model, strategy (only where the endpoint accepts one)
// and full canonical config. Canonicalization is idempotent, so the
// owner re-deriving the key from these bytes lands on the caller's key
// — and every replica forwarding the same logical request produces
// byte-identical bodies, so the owner's raw-bytes tier serves the whole
// fleet without JSON.
func peerBody(endpoint string, p *parsed) []byte {
	var b bytes.Buffer
	b.Grow(len(p.modelJSON) + len(p.cfgJSON) + 64)
	b.WriteString(`{"model":`)
	b.Write(p.modelJSON)
	if endpoint == "plan" || endpoint == "evaluate" {
		b.WriteString(`,"strategy":"`)
		b.WriteString(p.strategy.String())
		b.WriteString(`"`)
	}
	b.WriteString(`,"config":`)
	b.Write(p.cfgJSON)
	b.WriteString(`}`)
	return b.Bytes()
}

// fetch asks the owning replica for one key. The bool reports whether
// the owner answered from cache.
func (c *clusterState) fetch(ctx context.Context, endpoint, key, owner string, p *parsed) (response, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+PeerFetchPath, bytes.NewReader(peerBody(endpoint, p)))
	if err != nil {
		return response{}, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(peerEndpointHeader, endpoint)
	req.Header.Set(peerKeyHeader, key)
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(peerDeadlineHeader, strconv.FormatInt(ms, 10))
	}
	httpResp, err := c.client.Do(req)
	if err != nil {
		return response{}, false, err
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(httpResp.Body, maxPeerResponseBytes+1))
	if err != nil {
		return response{}, false, err
	}
	if len(body) > maxPeerResponseBytes {
		return response{}, false, fmt.Errorf("%w: peer %s response exceeds %d bytes", ErrService, owner, maxPeerResponseBytes)
	}
	if httpResp.StatusCode != http.StatusOK {
		// Carry the owner's error through for observability, but the
		// caller treats every non-200 as "peer failed" and falls back —
		// including 409 key mismatches (config drift).
		var eb errorResponse
		msg := strings.TrimSpace(string(body))
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return response{}, false, fmt.Errorf("%w: peer %s answered %d: %s", ErrService, owner, httpResp.StatusCode, msg)
	}
	ct := httpResp.Header.Get("Content-Type")
	if ct == "" {
		ct = "application/json"
	}
	return response{contentType: ct, body: body}, httpResp.Header.Get(peerCacheHeader) == "hit", nil
}

// handlePeerFetch answers POST /peer/v1/fetch — the owner side of a
// peer fill. The body is the caller's canonical forwarded request; the
// owner verifies the caller's key against its own derivation (409 on
// drift), then resolves through its local cache → singleflight →
// compute pipeline. It never re-forwards: the caller chose this replica
// as owner, and serving locally regardless of ring opinion makes
// routing loops structurally impossible.
func (s *Server) handlePeerFetch(w http.ResponseWriter, r *http.Request) error {
	c := s.cluster
	endpoint := r.Header.Get(peerEndpointHeader)
	switch endpoint {
	case "plan", "evaluate", "compare", "degrade":
	default:
		return badRequest(fmt.Errorf("%w: %s %q is not a forwardable endpoint", ErrService, peerEndpointHeader, endpoint))
	}
	wantKey := r.Header.Get(peerKeyHeader)
	if wantKey == "" {
		return badRequest(fmt.Errorf("%w: missing %s", ErrService, peerKeyHeader))
	}
	buf := getBodyBuf()
	defer putBodyBuf(buf)
	if err := readBody(r, MaxRequestBytes, buf); err != nil {
		return err
	}
	body := buf.Bytes()
	m := s.metrics["peer"]
	// Exact forwarded bytes replay from the owner's raw tier without
	// touching JSON — every replica renders the same canonical body, so
	// one replica's earlier fetch seeds this fast path for the rest.
	if resp, ok := s.tryFast(endpoint, body); ok {
		m.fastHits.Add(1)
		c.peerServed.Add(1)
		w.Header().Set(peerCacheHeader, "hit")
		writeResponse(w, resp)
		return nil
	}
	p, err := s.parseBody(body, endpoint == "plan" || endpoint == "evaluate", false)
	if err != nil {
		return err
	}
	if endpoint == "degrade" && p.res.Config().Faults.IsZero() {
		return badRequest(fmt.Errorf("%w: forwarded degrade body has no fault spec", ErrService))
	}
	key := p.key(endpoint)
	if key != wantKey {
		return &httpError{
			code: http.StatusConflict,
			err: fmt.Errorf("%w: key mismatch (caller %.12s…, owner %.12s…) — replica base configs have drifted; revalidate the topology",
				ErrService, wantKey, key),
		}
	}
	hit := false
	if _, ok := s.cache.Get(key); ok {
		hit = true
	}
	waitCtx, cancelWait := s.deadlineCtx(r.Context())
	defer cancelWait()
	if ms, err := strconv.ParseInt(r.Header.Get(peerDeadlineHeader), 10, 64); err == nil && ms > 0 {
		// The caller's remaining budget caps the owner's wait (and, if
		// this fetch leads, the computation) — work past it would be
		// thrown away on the calling side.
		var cancel context.CancelFunc
		waitCtx, cancel = context.WithTimeout(waitCtx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	computeCtx, cancelCompute := s.deadlineCtx(nil)
	defer cancelCompute()
	resp, err := s.resolveCtx(waitCtx, computeCtx, endpoint, key, func(ctx context.Context) (response, error) {
		switch endpoint {
		case "plan":
			return s.computePlan(ctx, p)
		case "evaluate":
			return s.computeEvaluate(ctx, p)
		case "compare":
			return s.computeCompare(ctx, p)
		default:
			return s.computeDegrade(ctx, p)
		}
	})
	if err != nil {
		return err
	}
	c.peerServed.Add(1)
	s.storeFast(endpoint, body, resp)
	if hit {
		w.Header().Set(peerCacheHeader, "hit")
	} else {
		w.Header().Set(peerCacheHeader, "miss")
	}
	writeResponse(w, resp)
	return nil
}
