// Package service exposes the HyPar library as a long-running HTTP/JSON
// evaluation service — the serving surface of cmd/hypard. Four POST
// endpoints cover the library's planning and evaluation API:
//
//	POST /v1/plan      partition one network (no simulation)
//	POST /v1/evaluate  partition + simulate one training step
//	POST /v1/compare   all four strategies, with Fig6/7 normalizations
//	POST /v1/explore   parallelism-space sweep, streamed as NDJSON
//	POST /v1/batch     many plan/evaluate/compare items in one request
//	POST /v1/jobs      run an explore-class sweep asynchronously
//	GET  /v1/jobs/{id} job progress; /result replays the finished sweep
//
// plus GET /healthz (liveness) and GET /statsz (per-endpoint metrics).
// Requests name either a zoo network ("zoo") or carry a full JSON
// network description ("model", see nn.DecodeModel); the configuration
// is a partial override of the server's base config, including the
// accelerator platform ("platform": "hmc", "gpu-hbm" or
// "tpu-systolic") — overrides merge onto the operator's raw base
// before canonicalization, so switching platform resolves topology and
// link bandwidth to that platform's native defaults unless the
// operator or request pinned them.
//
// Every request canonicalizes to a deterministic SHA-256 hash. Identical
// concurrent requests coalesce onto one evaluation (singleflight) and
// completed responses live in a bounded LRU keyed by that hash, so a
// response is rendered once and replayed byte-for-byte — the evaluation
// path is deterministic, which makes byte-identical replay exact, not
// approximate. Both the response cache and the singleflight table are
// striped into independently locked shards keyed by the request hash,
// so the hot replay path scales with cores instead of serializing on
// one global mutex. The server keeps no per-config or per-model state:
// each sweep runs on an experiments.Session built from the request's
// own resolved config, every plan is solved cold, and an inline model
// is decoded for its request alone (zoo networks are pinned at New).
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hypar "repro"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/runner"
)

// ErrService reports an invalid service request.
var ErrService = errors.New("service: invalid request")

// Request limits.
const (
	// MaxRequestBytes bounds a request body.
	MaxRequestBytes = 2 << 20
	// MaxFreeVars bounds an exploration sweep to 2^MaxFreeVars points.
	MaxFreeVars = 12
	// DefaultCacheEntries is the result-cache bound when Options leaves
	// CacheEntries zero.
	DefaultCacheEntries = 256
)

// Options configures a Server.
type Options struct {
	// Config is the base evaluation configuration; request configs are
	// partial overrides of it, applied before canonicalization — so a
	// base that leaves Topology/LinkMbps empty lets a request that
	// switches Platform resolve to that platform's native fabric. The
	// zero value means hypar.DefaultConfig (the paper workload, with
	// platform fields left to the canonical defaults).
	Config hypar.Config
	// Pool is the worker pool sweeps fan out on (nil = runner.Default).
	Pool *runner.Pool
	// CacheEntries bounds the response LRU (0 = DefaultCacheEntries,
	// negative = caching disabled).
	CacheEntries int
	// RawCacheBytes bounds the raw-bytes fast path — the exact-bytes →
	// response table consulted before any JSON decode — by the summed
	// size of retained request and response bytes (0 =
	// DefaultRawCacheBytes, negative = fast path disabled).
	RawCacheBytes int
	// JobEntries bounds the async job table (0 = DefaultJobEntries,
	// negative = the /v1/jobs endpoints are disabled).
	JobEntries int
	// OnCompute, when set, is invoked once per actual evaluation — after
	// cache and coalescing, not once per request. Tests hook it to prove
	// N identical concurrent requests evaluate exactly once.
	OnCompute func(endpoint, key string)
	// RequestTimeout bounds each request's evaluation and wait: past it,
	// the request fails with a 504-class in-band error while coalesced
	// peers are unaffected (the computation itself is bounded by the
	// same timeout, measured from its own start). Zero means no
	// deadline.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrent evaluations (admission control):
	// when the bound is reached, new computations are shed with 429 +
	// Retry-After instead of queueing without bound. Cache hits and
	// coalesced followers are never shed — they do no work. Zero means
	// the default bound (8× the pool width, at least 32); negative
	// disables admission control.
	MaxInflight int
	// FaultHook, when set, runs at the head of every actual evaluation
	// (the same seam as OnCompute): returning an error fails the
	// evaluation in-band, panicking exercises the panic path, sleeping
	// injects slowness. Chaos tests plug internal/faultinject in here;
	// production leaves it nil.
	FaultHook func(ctx context.Context, endpoint, key string) error

	// Self is this replica's peer URL (e.g. "http://10.0.0.1:8080").
	// Setting it (with Peers) enables cluster mode: each canonical
	// request hash is owned by exactly one replica of the fleet, and
	// non-owners fill from the owner over /peer/v1/fetch. Empty = the
	// single-replica service, byte-for-byte the pre-cluster behavior.
	Self string
	// Peers is the full static peer list, including Self. Every replica
	// must boot with the same list (order-independent) so their rings
	// agree; hypardctl validate emits consistent flag sets.
	Peers []string
	// VNodes is the consistent-hash virtual-node count per replica
	// (0 = cluster.DefaultVNodes).
	VNodes int
	// PeerClient overrides the HTTP client used for peer fetches
	// (tests; nil = a pooled client with dial and response-header
	// timeouts).
	PeerClient *http.Client
	// PeerFaultHook, when set, runs at the head of every peer fetch —
	// the cluster counterpart of FaultHook: an error stands in for an
	// unreachable owner and must drive the local-compute fallback.
	// Chaos tests plug internal/faultinject in here.
	PeerFaultHook func(ctx context.Context, endpoint, key string) error
}

// endpointStats aggregates one endpoint's counters.
type endpointStats struct {
	requests  atomic.Int64
	errors    atomic.Int64
	fastHits  atomic.Int64
	cacheHits atomic.Int64
	coalesced atomic.Int64
	computes  atomic.Int64
	latencyNs atomic.Int64
}

// statsSnapshot is the JSON form of one endpoint's counters. fastHits
// counts raw-bytes fast-path replays (no JSON touched); cacheHits
// counts canonical-hash cache replays (decoded, hashed, not computed).
type statsSnapshot struct {
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	FastHits  int64 `json:"fastHits"`
	CacheHits int64 `json:"cacheHits"`
	Coalesced int64 `json:"coalesced"`
	Computes  int64 `json:"computes"`
	LatencyNs int64 `json:"latencyNs"`
}

// snapshot captures the counters.
func (e *endpointStats) snapshot() statsSnapshot {
	return statsSnapshot{
		Requests:  e.requests.Load(),
		Errors:    e.errors.Load(),
		FastHits:  e.fastHits.Load(),
		CacheHits: e.cacheHits.Load(),
		Coalesced: e.coalesced.Load(),
		Computes:  e.computes.Load(),
		LatencyNs: e.latencyNs.Load(),
	}
}

// Server is the evaluation service: the pinned zoo and a pool of
// hypar.Evaluators behind a coalescing, caching HTTP surface.
type Server struct {
	// baseRaw is the operator's base config exactly as given; request
	// overrides decode onto it so fields the operator left to platform
	// defaults stay overridable per request. base is it resolved once,
	// at New — the value every request without a "config" override
	// evaluates on.
	baseRaw hypar.Config
	base    *hypar.Resolved
	// baseCfgJSON is base's canonical JSON, rendered once at New: every
	// request whose resolved config equals the base (the overwhelmingly
	// common case — any request without a "config" override) hashes
	// these bytes instead of re-marshaling per request.
	baseCfgJSON []byte
	pool        *runner.Pool
	// pinned maps each zoo and branched network name to the instance
	// pinned at New and its canonical JSON: those bytes never change, so
	// zoo requests hash them without re-encoding.
	pinned map[string]pinnedModel

	// evaluators recycles single-threaded hypar.Evaluators (their
	// simulation engines) across requests: concurrent distinct requests
	// each borrow their own, so they parallelize, while the engine's
	// slab still gets reused instead of rebuilt.
	evaluators sync.Pool

	cache     *shardedLRU
	raw       *shardedLRU // exact-bytes fast path (nil = disabled)
	flight    shardedFlight
	jobs      *jobTable
	onCompute func(endpoint, key string)
	faultHook func(ctx context.Context, endpoint, key string) error

	// timeout is the per-request evaluation/wait deadline (0 = none);
	// admit is the admission-control semaphore (nil = unlimited).
	timeout time.Duration
	admit   chan struct{}

	// Resilience counters: requests shed by admission control (429),
	// refused by a full/draining job table (503), and failed by the
	// request deadline (504).
	shed     atomic.Int64
	refused  atomic.Int64
	deadline atomic.Int64

	// cluster holds the peer ring and counters in cluster mode, nil on
	// a single-replica server.
	cluster *clusterState

	mux     *http.ServeMux
	hs      *http.Server
	start   time.Time
	metrics map[string]*endpointStats
}

// New builds a Server. The base config is resolved eagerly so a
// misconfigured daemon fails at startup, not per request, and its Arch
// is built here too, so no request pays for it; a failed build is
// reported, as for any config, by the requests that simulate.
func New(opts Options) (*Server, error) {
	raw := opts.Config
	if raw == (hypar.Config{}) {
		raw = hypar.DefaultConfig()
	}
	base, err := hypar.Resolve(raw)
	if err != nil {
		return nil, err
	}
	base.Arch()
	pool := opts.Pool
	if pool == nil {
		pool = runner.Default()
	}
	entries := opts.CacheEntries
	if entries == 0 {
		entries = DefaultCacheEntries
	}
	jobEntries := opts.JobEntries
	if jobEntries == 0 {
		jobEntries = DefaultJobEntries
	}
	rawBytes := opts.RawCacheBytes
	if rawBytes == 0 {
		rawBytes = DefaultRawCacheBytes
	}
	baseCfgJSON, err := json.Marshal(base.Config())
	if err != nil {
		return nil, err
	}
	s := &Server{
		baseRaw:     raw,
		base:        base,
		pool:        pool,
		baseCfgJSON: baseCfgJSON,
		cache:       newShardedLRU(entries, lruShardsFor(entries)),
		jobs:        newJobTable(jobEntries),
		onCompute:   opts.OnCompute,
		faultHook:   opts.FaultHook,
		timeout:     opts.RequestTimeout,
		mux:         http.NewServeMux(),
		start:       time.Now(),
		metrics:     make(map[string]*endpointStats),
	}
	if rawBytes > 0 {
		s.raw = newRawCache(rawBytes)
	}
	inflight := opts.MaxInflight
	if inflight == 0 {
		// Default bound: far above the pool's own parallelism so normal
		// bursts (benchmarks run 8 concurrent clients) never shed, low
		// enough that a hostile flood degrades with 429s instead of
		// unbounded goroutine/memory growth.
		inflight = 8 * pool.Width()
		if inflight < 32 {
			inflight = 32
		}
	}
	if inflight > 0 {
		s.admit = make(chan struct{}, inflight)
	}
	// WriteTimeout bounds how long one stalled client can hold a
	// response open. This matters beyond hygiene: the /v1/explore
	// leader streams while holding its singleflight key, so without a
	// write deadline a client that stops reading would wedge that key
	// (and every coalesced follower) indefinitely. Two minutes is two
	// orders of magnitude above the largest permitted sweep's compute
	// time.
	s.hs = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       time.Minute,
	}
	s.evaluators.New = func() any { return hypar.NewEvaluator() }
	if s.pinned, err = pinModels(hypar.Zoo(), hypar.BranchedZoo()); err != nil {
		return nil, err
	}
	for _, ep := range []string{"plan", "evaluate", "compare", "explore", "batch", "degrade", "jobs", "healthz", "statsz"} {
		s.metrics[ep] = &endpointStats{}
	}
	s.mux.HandleFunc("/v1/plan", s.post("plan", s.handlePlan))
	s.mux.HandleFunc("/v1/evaluate", s.post("evaluate", s.handleEvaluate))
	s.mux.HandleFunc("/v1/compare", s.post("compare", s.handleCompare))
	s.mux.HandleFunc("/v1/degrade", s.post("degrade", s.handleDegrade))
	s.mux.HandleFunc("/v1/explore", s.post("explore", s.handleExplore))
	s.mux.HandleFunc("/v1/batch", s.post("batch", s.handleBatch))
	if jobEntries > 0 {
		s.mux.HandleFunc("POST /v1/jobs", s.post("jobs", s.handleJobSubmit))
		s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
		s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
		s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
		s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	if err := s.initCluster(opts); err != nil {
		return nil, err
	}
	return s, nil
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	s.hs.Addr = addr
	err := s.hs.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Serve serves on an existing listener until Shutdown. The underlying
// http.Server exists from New on, so a Shutdown that races ahead of
// Serve still wins: Serve returns immediately instead of accepting
// forever.
func (s *Server) Serve(l net.Listener) error {
	err := s.hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops the listener, drains in-flight requests — including
// NDJSON /v1/explore streams, which run entirely inside their handler
// and therefore finish before Shutdown returns — and then drains the
// background job table: running jobs get until ctx's deadline to
// finish, after which they are canceled. New connections are refused
// from the moment Shutdown is called.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	if jerr := s.jobs.drain(ctx); err == nil {
		err = jerr
	}
	return err
}

// pinnedModel is one pinned network with its canonical JSON.
type pinnedModel struct {
	model *nn.Model
	json  []byte
}

// pinModels pins one instance of each given network — the paper zoo
// and the branched workloads — with its canonical JSON. An earlier
// set's name shadows a later one's.
func pinModels(sets ...[]*nn.Model) (map[string]pinnedModel, error) {
	pinned := make(map[string]pinnedModel)
	for _, set := range sets {
		for _, m := range set {
			if _, ok := pinned[m.Name]; ok {
				continue
			}
			enc, err := nn.EncodeModel(m)
			if err != nil {
				return nil, fmt.Errorf("pinned model %s: %w", m.Name, err)
			}
			pinned[m.Name] = pinnedModel{model: m, json: enc}
		}
	}
	return pinned, nil
}

// ---------------------------------------------------------------------------
// Request parsing

// freeVarJSON is the wire form of one exploration free variable.
type freeVarJSON struct {
	Level int `json:"level"`
	Layer int `json:"layer"`
}

// request is the common POST body: a model reference, an optional
// strategy and a partial config override. Explore adds free variables.
// Strategy parses through hypar.Strategy's UnmarshalJSON (ParseStrategy
// spellings), so an unknown name fails the body decode as a 400.
type request struct {
	Zoo      string          `json:"zoo,omitempty"`
	Model    json.RawMessage `json:"model,omitempty"`
	Strategy *hypar.Strategy `json:"strategy,omitempty"`
	Config   json.RawMessage `json:"config,omitempty"`
	Free     []freeVarJSON   `json:"free,omitempty"`
}

// httpError carries a status code with the error, plus an optional
// Retry-After hint (seconds) for shed/refused responses.
type httpError struct {
	code       int
	retryAfter int
	err        error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

// badRequest wraps err as a 400.
func badRequest(err error) error { return &httpError{code: http.StatusBadRequest, err: err} }

// computeErr classifies an evaluation failure: context ends (deadline,
// cancel) pass through untouched so httpStatus maps them to their
// 504/disconnect semantics; everything else is the request's fault — a
// 400.
func computeErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return err
	}
	return badRequest(err)
}

// httpStatus maps an error to its HTTP status code and Retry-After
// hint: an explicit httpError keeps its own, a context deadline is a
// 504 (the request exceeded its evaluation budget), anything else is a
// 500.
func httpStatus(err error) (code, retryAfter int) {
	var he *httpError
	if errors.As(err, &he) {
		return he.code, he.retryAfter
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, 0
	}
	return http.StatusInternalServerError, 0
}

// noteFailure advances the resilience counter matching the failure
// class (shed 429s, refused 503s, deadline 504s).
func (s *Server) noteFailure(code int) {
	switch code {
	case http.StatusTooManyRequests:
		s.shed.Add(1)
	case http.StatusServiceUnavailable:
		s.refused.Add(1)
	case http.StatusGatewayTimeout:
		s.deadline.Add(1)
	}
}

// errShed is the admission-control refusal: a 429 with a Retry-After
// hint, shaped so batch items and single requests render it uniformly.
func (s *Server) errShed() error {
	return &httpError{
		code:       http.StatusTooManyRequests,
		retryAfter: 1,
		err:        fmt.Errorf("%w: server at its in-flight evaluation bound (%d), retry later", ErrService, cap(s.admit)),
	}
}

// parsed is a fully resolved request.
type parsed struct {
	model     *nn.Model
	modelJSON []byte          // canonical bytes, hash input
	cfgJSON   []byte          // res's canonical config bytes, hash input
	res       *hypar.Resolved // the server's base when the config resolves to it
	strategy  hypar.Strategy
	free      []partition.FreeVar
}

// parseRequest reads, decodes, resolves and canonicalizes a request
// body. Fields that are meaningless for the endpoint (strategy on
// compare and explore, free outside explore) are rejected rather than
// silently folded into the request hash — accepting them would give
// semantically identical requests different keys, defeating coalescing
// and caching. A body over MaxRequestBytes is a 413, not a 400 — the
// request may be well-formed, the server just refuses to read it.
func (s *Server) parseRequest(r *http.Request, wantStrategy, wantFree bool) (*parsed, error) {
	buf := getBodyBuf()
	defer putBodyBuf(buf)
	if err := readBody(r, MaxRequestBytes, buf); err != nil {
		return nil, err
	}
	return s.parseBody(buf.Bytes(), wantStrategy, wantFree)
}

// parseBody decodes, resolves and canonicalizes an already-read
// request body — the slow path behind the raw-bytes fast path. Nothing
// in the returned parsed aliases body, so callers may release a pooled
// body buffer once parseBody returns.
func (s *Server) parseBody(body []byte, wantStrategy, wantFree bool) (*parsed, error) {
	var req request
	if err := decodeBody(bytes.NewReader(body), &req); err != nil {
		return nil, badRequest(fmt.Errorf("%w: body: %v", ErrService, err))
	}
	return s.resolveRequest(req, wantStrategy, wantFree)
}

// decodeBody decodes one JSON object from r into v. Unknown fields and
// anything but whitespace after the object are errors, as in
// nn.DecodeModel; a read error such as *http.MaxBytesError is returned
// as is.
func decodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return errors.New("trailing data after the JSON object")
	}
	return nil
}

// resolveRequest resolves and canonicalizes an already-decoded request
// envelope — the shared tail of parseRequest and the per-item parsing
// of /v1/batch.
func (s *Server) resolveRequest(req request, wantStrategy, wantFree bool) (*parsed, error) {
	p := &parsed{strategy: hypar.HyPar}
	switch {
	case req.Zoo != "" && req.Model != nil:
		return nil, badRequest(fmt.Errorf(`%w: both "zoo" and "model" given`, ErrService))
	case req.Zoo != "":
		// Resolve against the pinned zoo so every request for the
		// same network shares one *Model instance, whose memo holds
		// its shapes and graph, and its canonical bytes from New.
		pm, ok := s.pinned[req.Zoo]
		if !ok {
			_, err := hypar.ModelByName(req.Zoo)
			return nil, &httpError{code: http.StatusNotFound, err: err}
		}
		p.model, p.modelJSON = pm.model, pm.json
	case req.Model != nil:
		m, err := nn.DecodeModel(req.Model)
		if err != nil {
			return nil, badRequest(err)
		}
		enc, err := nn.EncodeModel(m)
		if err != nil {
			return nil, badRequest(err)
		}
		modelEncodes.Add(1)
		p.model, p.modelJSON = m, enc
	default:
		return nil, badRequest(fmt.Errorf(`%w: one of "zoo" or "model" is required`, ErrService))
	}

	if req.Strategy != nil {
		if !wantStrategy {
			return nil, badRequest(fmt.Errorf(`%w: "strategy" is not accepted here`, ErrService))
		}
		p.strategy = *req.Strategy
	}

	// The common case — no config override, or one that resolves back
	// to the base — reuses the base resolved and rendered once at New.
	p.res, p.cfgJSON = s.base, s.baseCfgJSON
	if req.Config != nil {
		cfg := s.baseRaw
		cdec := json.NewDecoder(strings.NewReader(string(req.Config)))
		cdec.DisallowUnknownFields()
		if err := cdec.Decode(&cfg); err != nil {
			return nil, badRequest(fmt.Errorf("%w: config: %v", ErrService, err))
		}
		res, err := hypar.Resolve(cfg)
		if err != nil {
			return nil, badRequest(err)
		}
		if res.Config() != s.base.Config() {
			b, err := json.Marshal(res.Config())
			if err != nil {
				return nil, badRequest(err)
			}
			configMarshals.Add(1)
			p.res, p.cfgJSON = res, b
		}
	}

	if len(req.Free) > 0 && !wantFree {
		return nil, badRequest(fmt.Errorf(`%w: "free" is not accepted here`, ErrService))
	}
	if len(req.Free) > MaxFreeVars {
		return nil, badRequest(fmt.Errorf("%w: %d free variables exceeds the %d-variable (2^%d points) limit",
			ErrService, len(req.Free), MaxFreeVars, MaxFreeVars))
	}
	// With faults the sweep's base plan covers only the surviving
	// sub-array, so free levels are bounded by its depth.
	depth := p.res.Config().EffectiveLevels()
	for i, fv := range req.Free {
		if fv.Level < 0 || fv.Level >= depth {
			return nil, badRequest(fmt.Errorf("%w: free variable level %d out of range [0,%d)", ErrService, fv.Level, depth))
		}
		if fv.Layer < 0 || fv.Layer >= len(p.model.Layers) {
			return nil, badRequest(fmt.Errorf("%w: free variable layer %d out of range [0,%d)", ErrService, fv.Layer, len(p.model.Layers)))
		}
		// A repeated cell would sweep the same plans twice under one
		// label key, and hide HyPar's own point behind its duplicate.
		if slices.Contains(req.Free[:i], fv) {
			return nil, badRequest(fmt.Errorf("%w: free variable (level %d, layer %d) given twice", ErrService, fv.Level, fv.Layer))
		}
		p.free = append(p.free, partition.FreeVar{Level: fv.Level, Layer: fv.Layer})
	}
	return p, nil
}

// configMarshals counts per-request config re-marshals on the key
// path. Base-config requests must never marshal — they reuse the JSON
// rendered once at New — and the allocation tests pin that at zero.
var configMarshals atomic.Int64

// modelEncodes counts per-request model encodes on the key path. Only
// inline models encode; zoo requests reuse the bytes pinned at New, and
// the allocation tests pin that at zero.
var modelEncodes atomic.Int64

// keyHasher is the pooled per-request hashing state: one SHA-256, a
// preimage scratch buffer, and fixed digest/hex arrays, so deriving a
// request key allocates only the returned string.
type keyHasher struct {
	h    hash.Hash
	buf  []byte
	sum  [sha256.Size]byte
	hexb [2 * sha256.Size]byte
}

// keyHashers recycles keyHashers across requests. Hashers whose
// preimage buffer was grown by one oversized model are dropped on
// release instead of pinned.
var keyHashers = sync.Pool{New: func() any {
	return &keyHasher{h: sha256.New(), buf: make([]byte, 0, 1024)}
}}

// key derives the deterministic request hash: SHA-256 over the endpoint
// and every canonicalized request component (the exact byte stream the
// pre-pooled implementation hashed, so keys are stable). Two requests
// that mean the same evaluation — whatever their field order,
// whitespace, default spelling or config shorthand — hash identically.
func (p *parsed) key(endpoint string) string {
	k := keyHashers.Get().(*keyHasher)
	b := k.buf[:0]
	b = append(b, endpoint...)
	b = append(b, 0)
	b = append(b, p.modelJSON...)
	b = append(b, 0)
	b = append(b, p.cfgJSON...)
	b = append(b, 0)
	b = append(b, p.strategy.String()...)
	b = append(b, 0)
	for _, fv := range p.free {
		b = strconv.AppendInt(b, int64(fv.Level), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(fv.Layer), 10)
		b = append(b, ',')
	}
	k.buf = b
	k.h.Reset()
	k.h.Write(b)
	hex.Encode(k.hexb[:], k.h.Sum(k.sum[:0]))
	key := string(k.hexb[:])
	if cap(k.buf) <= bodyBufMax {
		keyHashers.Put(k)
	}
	return key
}

// ---------------------------------------------------------------------------
// Response shapes

// layerAssignJSON is one layer's hierarchical choice string.
type layerAssignJSON struct {
	Name   string `json:"name"`
	Assign string `json:"assign"` // H1..Hh 0/1 marks, e.g. "0001"
}

// planJSON is the wire form of a partition plan.
type planJSON struct {
	Levels       int               `json:"levels"`
	Accelerators int               `json:"accelerators"`
	Layers       []layerAssignJSON `json:"layers"`
	TotalElems   float64           `json:"totalElems"`
	TotalBytes   float64           `json:"totalBytes"`
}

// statsJSON is the wire form of one simulated training step.
type statsJSON struct {
	StepSeconds     float64   `json:"stepSeconds"`
	ComputeSeconds  float64   `json:"computeSeconds"`
	CommSeconds     []float64 `json:"commSeconds"`
	CommBytes       float64   `json:"commBytes"`
	DRAMBytes       float64   `json:"dramBytes"`
	PeakMemoryBytes float64   `json:"peakMemoryBytes"`
	FitsMemory      bool      `json:"fitsMemory"`
	EnergyCompute   float64   `json:"energyCompute"`
	EnergySRAM      float64   `json:"energySRAM"`
	EnergyDRAM      float64   `json:"energyDRAM"`
	EnergyLink      float64   `json:"energyLink"`
	EnergyTotal     float64   `json:"energyTotal"`
	Tasks           int       `json:"tasks"`
}

// planToJSON renders a plan whose tensors are accounted in dt.
func planToJSON(p *hypar.Plan, m *nn.Model, dt hypar.DType) planJSON {
	pj := planJSON{
		Levels:       p.NumLevels(),
		Accelerators: p.NumAccelerators(),
		Layers:       make([]layerAssignJSON, 0, len(m.Layers)),
		TotalElems:   p.TotalElems,
		TotalBytes:   p.TotalBytes(dt),
	}
	for l, layer := range m.Layers {
		pj.Layers = append(pj.Layers, layerAssignJSON{Name: layer.Name, Assign: p.LayerString(l)})
	}
	return pj
}

// statsToJSON renders step statistics.
func statsToJSON(st *hypar.Stats) statsJSON {
	return statsJSON{
		StepSeconds:     st.StepSeconds,
		ComputeSeconds:  st.ComputeSeconds,
		CommSeconds:     st.CommSeconds,
		CommBytes:       st.CommBytes,
		DRAMBytes:       st.DRAMBytes,
		PeakMemoryBytes: st.PeakMemoryBytes,
		FitsMemory:      st.FitsMemory,
		EnergyCompute:   st.EnergyCompute,
		EnergySRAM:      st.EnergySRAM,
		EnergyDRAM:      st.EnergyDRAM,
		EnergyLink:      st.EnergyLink,
		EnergyTotal:     st.EnergyTotal(),
		Tasks:           st.Tasks,
	}
}

// planResponse answers /v1/plan.
type planResponse struct {
	Model    string         `json:"model"`
	Strategy hypar.Strategy `json:"strategy"`
	Config   hypar.Config   `json:"config"`
	Plan     planJSON       `json:"plan"`
}

// evaluateResponse answers /v1/evaluate.
type evaluateResponse struct {
	planResponse
	Stats statsJSON `json:"stats"`
}

// strategyResult is one strategy's outcome inside /v1/compare.
type strategyResult struct {
	Plan  planJSON  `json:"plan"`
	Stats statsJSON `json:"stats"`
}

// gainsJSON carries the Fig6/Fig7 normalizations.
type gainsJSON struct {
	Performance      float64 `json:"performance"`
	EnergyEfficiency float64 `json:"energyEfficiency"`
}

// compareResponse answers /v1/compare.
type compareResponse struct {
	Model   string                    `json:"model"`
	Config  hypar.Config              `json:"config"`
	Results map[string]strategyResult `json:"results"`
	Gains   map[string]gainsJSON      `json:"gains"`
}

// explorePointJSON is one NDJSON line of /v1/explore. pointEncoder
// renders it without reflection; its json.Marshal form is the
// reference the encoder is tested against.
type explorePointJSON struct {
	Type    string            `json:"type"` // "point"
	Code    int               `json:"code"`
	Labels  map[string]string `json:"labels"`
	Gain    float64           `json:"gain"`
	IsHyPar bool              `json:"isHyPar"`
}

// exploreHeaderJSON is the first NDJSON line of /v1/explore.
type exploreHeaderJSON struct {
	Type   string       `json:"type"` // "header"
	Model  string       `json:"model"`
	Config hypar.Config `json:"config"`
	Points int          `json:"points"`
}

// exploreSummaryJSON is the last NDJSON line of /v1/explore.
type exploreSummaryJSON struct {
	Type  string           `json:"type"` // "summary"
	Peak  explorePointJSON `json:"peak"`
	HyPar explorePointJSON `json:"hypar"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// ---------------------------------------------------------------------------
// Handler plumbing

// post wraps a handler with method enforcement and metrics.
func (s *Server) post(endpoint string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	m := s.metrics[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		m.requests.Add(1)
		// Deferred so every exit counts, including a disconnected client.
		defer func() { m.latencyNs.Add(time.Since(t0).Nanoseconds()) }()
		if r.Method != http.MethodPost {
			m.errors.Add(1)
			s.writeError(w, http.StatusMethodNotAllowed, 0, fmt.Errorf("%w: use POST", ErrService))
			return
		}
		if err := h(w, r); err != nil {
			m.errors.Add(1)
			if errors.Is(err, context.Canceled) && r.Context().Err() != nil {
				// The client disconnected while this request waited on a
				// coalesced computation — there is nobody to answer.
				return
			}
			code, retryAfter := httpStatus(err)
			s.noteFailure(code)
			s.writeError(w, code, retryAfter, err)
		}
	}
}

// writeError renders the uniform error body, with a Retry-After header
// when the failure is worth retrying (shed and refused requests).
func (s *Server) writeError(w http.ResponseWriter, code, retryAfter int, err error) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfter))
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

// writeResponse replays a rendered response.
func writeResponse(w http.ResponseWriter, resp response) {
	w.Header().Set("Content-Type", resp.contentType)
	_, _ = w.Write(resp.body)
}

// deadlineCtx applies the server's request timeout (if any) on top of
// parent (nil = background). The returned cancel must always be
// called.
func (s *Server) deadlineCtx(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	if s.timeout <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, s.timeout)
}

// resolveCtx runs the cache → admission → singleflight → compute
// pipeline for one request hash and returns the rendered response.
// Every consumer of a key — single-request handlers, batch items,
// async jobs — funnels through here, which is what makes them share
// one cache entry and one in-flight computation.
//
// The two contexts separate the caller's wait from the shared work: a
// follower whose waitCtx ends stops waiting on another consumer's
// computation and gets waitCtx's error, without canceling that work;
// computeCtx (threaded into compute if this caller leads) bounds the
// evaluation itself — client disconnects never flow into it, only the
// server's own timeout or, for jobs, the job's cancellation. Either
// may be nil (never cancels).
func (s *Server) resolveCtx(waitCtx, computeCtx context.Context, endpoint, key string, compute func(ctx context.Context) (response, error)) (response, error) {
	m := s.metrics[endpoint]
	if resp, ok := s.cache.Get(key); ok {
		m.cacheHits.Add(1)
		return resp, nil
	}
	resp, err, _ := s.flight.DoCtx(waitCtx, key, &m.coalesced, func() (response, error) {
		// Double-check: a racing leader may have populated the cache
		// between this request's miss and its turn in the flight. The
		// re-check makes "identical requests evaluate once" exact, not
		// just overwhelmingly likely.
		if resp, ok := s.cache.Get(key); ok {
			m.cacheHits.Add(1)
			return resp, nil
		}
		return s.computeLocked(computeCtx, m, endpoint, key, compute)
	})
	return resp, err
}

// computeLocked runs the admission → counters → hooks → compute →
// cache-fill tail for one key: the only place an actual evaluation
// happens. Callers must hold the key's flight slot (or be the
// peer-fallback path, which holds it through resolve's non-owner
// flight).
func (s *Server) computeLocked(computeCtx context.Context, m *endpointStats, endpoint, key string, compute func(ctx context.Context) (response, error)) (response, error) {
	// Admission control: an actual evaluation takes a semaphore slot
	// or is shed with 429 + Retry-After. Cache hits and coalesced
	// followers never get here — they do no work and are never shed.
	if s.admit != nil {
		select {
		case s.admit <- struct{}{}:
			defer func() { <-s.admit }()
		default:
			return response{}, s.errShed()
		}
	}
	m.computes.Add(1)
	if s.onCompute != nil {
		s.onCompute(endpoint, key)
	}
	if s.faultHook != nil {
		if err := s.faultHook(computeCtx, endpoint, key); err != nil {
			return response{}, err
		}
	}
	if computeCtx != nil {
		if err := computeCtx.Err(); err != nil {
			return response{}, err
		}
	}
	resp, err := compute(computeCtx)
	if err == nil {
		s.cache.Put(key, resp)
	}
	return resp, err
}

// resolveRetry is resolveCtx plus the canceled-coalesced-leader retry
// policy, shared by every consumer that can coalesce onto an async
// job's computation: a context.Canceled failure that is NOT this
// caller's own cancellation (its waitCtx is still live, or nil) means
// the flight's leader was a since-canceled job — the key is free
// again, so retry, typically becoming the new leader. The bound only
// keeps an adversarial stream of canceled-job leaders from pinning the
// caller.
func (s *Server) resolveRetry(waitCtx, computeCtx context.Context, endpoint, key string, compute func(ctx context.Context) (response, error)) (response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := s.resolveCtx(waitCtx, computeCtx, endpoint, key, compute)
		ownCancel := waitCtx != nil && waitCtx.Err() != nil
		if err == nil || ownCancel || !errors.Is(err, context.Canceled) || attempt >= 8 {
			return resp, err
		}
	}
}

// serveBody is the read → fast path → parse → hash → resolve pipeline
// shared by the non-streaming POST endpoints (plan, evaluate, compare,
// degrade). The verbatim body is looked up in the raw-bytes cache
// before any JSON is touched; a miss falls through to the full decode
// → canonicalize → SHA-256 path, and every successful resolution —
// computed, coalesced or canonical-cache hit — seeds the fast path so
// the next request with these exact bytes replays without
// encoding/json. check (if non-nil) runs endpoint-specific validation
// on the parsed request before any work is keyed.
//
// The wait context derives from the client's (disconnects stop a
// follower's wait); the compute context does not — it carries only the
// server timeout, so a shared computation survives the disconnect of
// whichever request happened to lead it.
func (s *Server) serveBody(w http.ResponseWriter, r *http.Request, endpoint string, wantStrategy bool, check func(*parsed) error, compute func(context.Context, *parsed) (response, error)) error {
	buf := getBodyBuf()
	defer putBodyBuf(buf)
	if err := readBody(r, MaxRequestBytes, buf); err != nil {
		return err
	}
	body := buf.Bytes()
	if resp, ok := s.tryFast(endpoint, body); ok {
		s.metrics[endpoint].fastHits.Add(1)
		writeResponse(w, resp)
		return nil
	}
	p, err := s.parseBody(body, wantStrategy, false)
	if err != nil {
		return err
	}
	if check != nil {
		if err := check(p); err != nil {
			return err
		}
	}
	waitCtx, cancelWait := s.deadlineCtx(r.Context())
	defer cancelWait()
	computeCtx, cancelCompute := s.deadlineCtx(nil)
	defer cancelCompute()
	resp, err := s.resolve(waitCtx, computeCtx, endpoint, p.key(endpoint), p, func(ctx context.Context) (response, error) {
		return compute(ctx, p)
	})
	if err != nil {
		return err
	}
	s.storeFast(endpoint, body, resp)
	writeResponse(w, resp)
	return nil
}

// jsonResponse marshals v as a compact JSON response body.
func jsonResponse(v any) (response, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return response{}, err
	}
	return response{contentType: "application/json", body: append(b, '\n')}, nil
}

// runShared evaluates one (model, strategy, resolved config) on a
// pooled evaluator. Each evaluator is single-threaded by design (it
// reuses one simulation engine), so a request borrows one for the
// duration of the call; distinct concurrent requests run on distinct
// evaluators and the cache/singleflight layer above keeps redundant
// evaluations from ever reaching this point.
func (s *Server) runShared(ctx context.Context, m *nn.Model, st hypar.Strategy, res *hypar.Resolved) (*hypar.Result, error) {
	ev := s.evaluators.Get().(*hypar.Evaluator)
	defer s.evaluators.Put(ev)
	return ev.Eval(ctx, m, st, res)
}

// ---------------------------------------------------------------------------
// Endpoints

// handlePlan answers POST /v1/plan.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) error {
	return s.serveBody(w, r, "plan", true, nil, s.computePlan)
}

// computePlan renders the /v1/plan response for a resolved request.
func (s *Server) computePlan(ctx context.Context, p *parsed) (response, error) {
	plan, err := p.res.Plan(ctx, p.model, p.strategy, hypar.PlanOptions{})
	if err != nil {
		return response{}, computeErr(err)
	}
	return jsonResponse(planResponse{
		Model:    p.model.Name,
		Strategy: p.strategy,
		Config:   p.res.Config(),
		Plan:     planToJSON(plan, p.model, p.res.DType()),
	})
}

// handleEvaluate answers POST /v1/evaluate.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) error {
	return s.serveBody(w, r, "evaluate", true, nil, s.computeEvaluate)
}

// computeEvaluate renders the /v1/evaluate response for a resolved
// request.
func (s *Server) computeEvaluate(ctx context.Context, p *parsed) (response, error) {
	res, err := s.runShared(ctx, p.model, p.strategy, p.res)
	if err != nil {
		return response{}, computeErr(err)
	}
	return jsonResponse(evaluateResponse{
		planResponse: planResponse{
			Model:    p.model.Name,
			Strategy: p.strategy,
			Config:   p.res.Config(),
			Plan:     planToJSON(res.Plan, p.model, p.res.DType()),
		},
		Stats: statsToJSON(res.Stats),
	})
}

// handleCompare answers POST /v1/compare.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) error {
	return s.serveBody(w, r, "compare", false, nil, s.computeCompare)
}

// computeCompare renders the /v1/compare response for a resolved
// request.
func (s *Server) computeCompare(ctx context.Context, p *parsed) (response, error) {
	resp := compareResponse{
		Model:   p.model.Name,
		Config:  p.res.Config(),
		Results: make(map[string]strategyResult, len(hypar.Strategies)),
		Gains:   make(map[string]gainsJSON, len(hypar.Strategies)),
	}
	// The four strategies are independent; fan them out on the
	// server pool (each worker borrowing a pooled evaluator), all on the
	// request's one resolved config.
	results, err := runner.MapCtx(ctx, s.pool, hypar.Strategies,
		func(_ int, st hypar.Strategy) (*hypar.Result, error) {
			res, err := s.runShared(ctx, p.model, st, p.res)
			if err != nil {
				return nil, computeErr(fmt.Errorf("strategy %v: %w", st, err))
			}
			return res, nil
		})
	if err != nil {
		return response{}, err
	}
	cmp := &hypar.Comparison{Model: p.model.Name, Results: make(map[hypar.Strategy]*hypar.Result, len(hypar.Strategies))}
	for i, st := range hypar.Strategies {
		cmp.Results[st] = results[i]
		resp.Results[st.String()] = strategyResult{
			Plan:  planToJSON(results[i].Plan, p.model, p.res.DType()),
			Stats: statsToJSON(results[i].Stats),
		}
	}
	for _, st := range hypar.Strategies {
		resp.Gains[st.String()] = gainsJSON{
			Performance:      cmp.PerformanceGain(st),
			EnergyEfficiency: cmp.EnergyEfficiency(st),
		}
	}
	return jsonResponse(resp)
}

// defaultFree sweeps every layer's top-level (H1) parallelism, capped
// to 8 variables (256 points) — the Figure 9 shape for any model.
func defaultFree(m *nn.Model) []partition.FreeVar {
	n := len(m.Layers)
	if n > 8 {
		n = 8
	}
	free := make([]partition.FreeVar, 0, n)
	for l := 0; l < n; l++ {
		free = append(free, partition.FreeVar{Level: 0, Layer: l})
	}
	return free
}

// finishExploreParse applies the explore-specific defaults and checks
// to a resolved request — shared by /v1/explore and /v1/jobs.
func finishExploreParse(p *parsed) error {
	if p.free == nil {
		p.free = defaultFree(p.model)
	}
	cfg := p.res.Config()
	if cfg.Levels == 0 {
		return badRequest(fmt.Errorf("%w: explore needs levels >= 1", ErrService))
	}
	if cfg.EffectiveLevels() == 0 {
		return badRequest(fmt.Errorf("%w: explore needs a surviving sub-array of depth >= 1, but the faults leave %d accelerator(s)",
			ErrService, cfg.SurvivingAccelerators()))
	}
	return nil
}

// teeBlock is how many bytes of point lines exploreBody lets wait
// before it tees them: a 256-point sweep (~43 KB) leaves in two blocks,
// its header line and the rest.
const teeBlock = 64 << 10

// exploreBody computes the full NDJSON sweep body for a resolved
// explore request: a header line, one line per sweep point in code
// order, and a summary line. tap (if non-nil) receives the body in
// blocks of whole lines as they are produced: the header line at once,
// then point lines whenever at least teeBlock bytes of them are
// waiting, then the rest together with the summary line. The
// /v1/explore handler streams each block to its client, async jobs
// count its point lines as progress; the slice is only valid during
// the call. ctx (if non-nil) cancels the sweep between lines; a nil ctx
// never cancels, which is what the HTTP leader wants (its coalesced
// followers still need the result even if the leader's own client
// disconnects).
//
// Point lines are appended by a pointEncoder straight into the body,
// which is allocated once at its bounded size and becomes the cached
// response as it is.
func (s *Server) exploreBody(ctx context.Context, p *parsed, tap func(block []byte)) (response, error) {
	live := func() error {
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	var body []byte
	teed := 0 // body[:teed] has gone to tap
	// tee hands tap the lines completed since the last tee.
	tee := func() {
		if tap != nil {
			tap(body[teed:])
		}
		teed = len(body)
	}

	if err := live(); err != nil {
		return response{}, err
	}
	points := 1 << uint(len(p.free))
	header, err := json.Marshal(exploreHeaderJSON{
		Type: "header", Model: p.model.Name, Config: p.res.Config(), Points: points,
	})
	if err != nil {
		return response{}, err
	}
	enc := newPointEncoder(p.free)
	body = append(make([]byte, 0, enc.bodyCap(len(header), points)), header...)
	body = append(body, '\n')
	tee()

	// The summary repeats the peak and HyPar point objects: keep their
	// body offsets ([lo, hi); hi == 0 while no point filled the slot).
	var peakGain float64
	var peak, hp [2]int
	err = experiments.NewResolvedSession(p.res, s.pool).ExploreStream(p.model, p.free, noLabels, func(ep experiments.ExplorePoint) error {
		if err := live(); err != nil {
			return err
		}
		start := len(body)
		var err error
		if body, err = enc.appendPoint(body, ep.Code, ep.Gain, ep.IsHyPar); err != nil {
			return err
		}
		if ep.Gain > peakGain {
			peakGain, peak = ep.Gain, [2]int{start, len(body)}
		}
		if ep.IsHyPar {
			hp = [2]int{start, len(body)}
		}
		body = append(body, '\n')
		if len(body)-teed >= teeBlock {
			tee()
		}
		return nil
	})
	if err != nil {
		return response{}, err
	}
	if err := live(); err != nil {
		return response{}, err
	}
	slot := func(at [2]int) {
		if at[1] == 0 {
			body = append(body, nullPoint...)
		} else {
			body = append(body, body[at[0]:at[1]]...)
		}
	}
	body = append(body, summaryHead...)
	slot(peak)
	body = append(body, summaryHyPar...)
	slot(hp)
	body = append(body, '}', '\n')
	tee()
	return response{contentType: "application/x-ndjson", body: body}, nil
}

// noLabels is the label function exploreBody sweeps with: its
// pointEncoder renders the labels from each point's code, so no
// per-point map is built.
func noLabels(int) map[string]string { return nil }

// handleExplore answers POST /v1/explore with an NDJSON stream: a
// header line, one line per sweep point in code order, and a summary
// line. The stream begins before the sweep finishes (runner.StreamWith
// backpressure), is teed into the cache, and coalesced followers replay
// the leader's bytes. Each block exploreBody tees leaves in one Write.
// Only the header line is flushed at once, so the client sees the 200
// and the point count immediately; point lines follow in blocks of at
// least 64 KiB and the last block carries the summary, so a 256-point
// sweep (~43 KB) costs about four socket writes (GET /v1/jobs/{id}
// reports progress instead).
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) error {
	p, err := s.parseRequest(r, false, true)
	if err != nil {
		return err
	}
	if err := finishExploreParse(p); err != nil {
		return err
	}
	key := p.key("explore")
	m := s.metrics["explore"]
	waitCtx, cancelWait := s.deadlineCtx(r.Context())
	defer cancelWait()
	computeCtx, cancelCompute := s.deadlineCtx(nil)
	defer cancelCompute()
	var streamed bool
	resp, err := s.resolveRetry(waitCtx, computeCtx, "explore", key, func(cctx context.Context) (response, error) {
		// This request is the flight leader: it streams lines to its
		// own client as they are computed while exploreBody tees them
		// into the body buffer for the cache and followers. A client
		// write failure (leader disconnected mid-stream) must not
		// abort the sweep: followers coalesced onto this flight still
		// need the result, so the computation keeps filling the body
		// (cctx carries only the server timeout, never the client's
		// disconnect) and only the doomed client writes stop.
		var clientGone, flushed bool
		flusher, _ := w.(http.Flusher)
		w.Header().Set("Content-Type", "application/x-ndjson")
		streamed = true
		return s.exploreBody(cctx, p, func(b []byte) {
			if clientGone {
				return
			}
			if _, err := w.Write(b); err != nil {
				clientGone = true
			} else if !flushed && flusher != nil {
				flusher.Flush()
				flushed = true
			}
		})
	})
	if err != nil {
		if streamed {
			// Headers are already out; the broken stream is the error
			// signal the client sees. Count the failure here since
			// returning nil bypasses post()'s error accounting.
			m.errors.Add(1)
			code, _ := httpStatus(err)
			s.noteFailure(code)
			return nil
		}
		return err
	}
	if !streamed {
		// Followers, retried followers, and cache hits replay the
		// rendered body.
		writeResponse(w, resp)
	}
	return nil
}

// handleHealthz answers GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics["healthz"].requests.Add(1)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.start).Seconds(),
	})
}

// jobsSnapshot is the /statsz view of the job table.
type jobsSnapshot struct {
	Tracked int `json:"tracked"`
	Active  int `json:"active"`
}

// resilienceSnapshot is the /statsz view of admission control and
// deadlines: the in-flight bound and occupancy, plus how many requests
// were shed (429), refused by the job table (503) or failed their
// deadline (504).
type resilienceSnapshot struct {
	MaxInflight      int   `json:"maxInflight"` // 0 = unlimited
	Inflight         int   `json:"inflight"`
	Shed             int64 `json:"shed"`
	Refused          int64 `json:"refused"`
	DeadlineExceeded int64 `json:"deadlineExceeded"`
	RequestTimeoutMs int64 `json:"requestTimeoutMs"` // 0 = no deadline
}

// rawCacheSnapshot is the /statsz view of the raw-bytes fast path: its
// byte budget, current resident bytes and entries, and stripe count.
// All zeros when the fast path is disabled.
type rawCacheSnapshot struct {
	BudgetBytes int `json:"budgetBytes"`
	Bytes       int `json:"bytes"`
	Entries     int `json:"entries"`
	Shards      int `json:"shards"`
}

// statszResponse is the /statsz body.
type statszResponse struct {
	UptimeSeconds float64            `json:"uptimeSeconds"`
	PoolWidth     int                `json:"poolWidth"`
	CacheEntries  int                `json:"cacheEntries"`
	CacheShards   int                `json:"cacheShards"`
	RawCache      rawCacheSnapshot   `json:"rawCache"`
	Jobs          jobsSnapshot       `json:"jobs"`
	Resilience    resilienceSnapshot `json:"resilience"`
	// Cluster reports the peer ring and peer-fill counters; omitted on
	// a single-replica server.
	Cluster   *clusterSnapshot         `json:"cluster,omitempty"`
	Endpoints map[string]statsSnapshot `json:"endpoints"`
}

// rawSnapshot captures the raw-bytes fast path's occupancy.
func (s *Server) rawSnapshot() rawCacheSnapshot {
	if s.raw == nil {
		return rawCacheSnapshot{}
	}
	return rawCacheSnapshot{
		BudgetBytes: s.raw.Max(),
		Bytes:       s.raw.Cost(),
		Entries:     s.raw.Len(),
		Shards:      len(s.raw.shards),
	}
}

// handleStatsz answers GET /statsz.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.metrics["statsz"].requests.Add(1)
	tracked, active := s.jobs.counts()
	resp := statszResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		PoolWidth:     s.pool.Width(),
		CacheEntries:  s.cache.Len(),
		CacheShards:   len(s.cache.shards),
		RawCache:      s.rawSnapshot(),
		Jobs:          jobsSnapshot{Tracked: tracked, Active: active},
		Resilience: resilienceSnapshot{
			MaxInflight:      cap(s.admit),
			Inflight:         len(s.admit),
			Shed:             s.shed.Load(),
			Refused:          s.refused.Load(),
			DeadlineExceeded: s.deadline.Load(),
			RequestTimeoutMs: s.timeout.Milliseconds(),
		},
		Endpoints: make(map[string]statsSnapshot, len(s.metrics)),
	}
	if s.cluster != nil {
		resp.Cluster = s.cluster.snapshot()
	}
	for name, m := range s.metrics {
		resp.Endpoints[name] = m.snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
