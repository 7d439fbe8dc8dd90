package service

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/lru"
)

// DefaultRawCacheBytes is the raw-bytes fast-path budget when Options
// leaves RawCacheBytes zero: the summed size of retained request and
// response bytes. 4 MiB holds thousands of typical zoo-request entries
// while bounding what hostile all-unique traffic can pin.
const DefaultRawCacheBytes = 4 << 20

// rawEntryOverhead is the per-entry cost charged on top of the key and
// body bytes, approximating the map/list bookkeeping so the budget
// tracks real memory, not just payload.
const rawEntryOverhead = 128

// rawShards is the stripe count of the raw-bytes cache — fixed like
// the singleflight table's: the cache exists for the hottest traffic,
// where per-shard locking is what matters, and the byte budget (not
// the stripe count) bounds memory.
const rawShards = 16

// newRawCache builds the raw-bytes fast path: an exact-bytes →
// rendered-response table consulted before any JSON work. Keys are the
// verbatim request body prefixed by the endpoint; only bodies that
// already completed the full decode → canonicalize → hash → evaluate
// pipeline are stored, so replaying an entry returns exactly the bytes
// the slow path would. It is striped like the response cache, into
// rawShards shards, and bounded by a total byte budget — each entry
// costs its key and body bytes plus rawEntryOverhead — so hostile
// all-unique traffic churns the cold tail instead of growing memory.
func newRawCache(budget int) *shardedLRU {
	cost := func(k string, r response) int { return len(k) + len(r.body) + rawEntryOverhead }
	return newStriped(budget, rawShards, func(bound int) *lru.Cache[string, response] {
		return lru.NewSized(bound, cost)
	})
}

// rawKey builds the fast-path key: the endpoint, a separator no JSON
// body can contain, and the verbatim body bytes. One allocation (the
// backing string) per call.
func rawKey(endpoint string, body []byte) string {
	var b strings.Builder
	b.Grow(len(endpoint) + 1 + len(body))
	b.WriteString(endpoint)
	b.WriteByte(0)
	b.Write(body)
	return b.String()
}

// tryFast consults the raw-bytes fast path for the verbatim body. A
// hit means these exact bytes already ran the full slow path on this
// server, so the stored response is byte-identical to what decoding
// and evaluating again would produce — no JSON is touched.
func (s *Server) tryFast(endpoint string, body []byte) (response, bool) {
	if s.raw == nil {
		return response{}, false
	}
	return s.raw.Get(rawKey(endpoint, body))
}

// storeFast records body → resp on the fast path after a successful
// slow-path resolution (computed, coalesced or canonical-cache hit).
// Errors are never stored, mirroring the canonical cache.
func (s *Server) storeFast(endpoint string, body []byte, resp response) {
	if s.raw == nil {
		return
	}
	s.raw.Put(rawKey(endpoint, body), resp)
}

// errTooLarge renders an oversized-body failure as 413 (Request Entity
// Too Large) instead of a generic 400: the request may be perfectly
// well-formed, the server just refuses to read it.
func errTooLarge(limit int64) error {
	return &httpError{
		code: http.StatusRequestEntityTooLarge,
		err:  fmt.Errorf("%w: request body exceeds the %d-byte limit", ErrService, limit),
	}
}

// readBody reads the whole request body into buf, bounded by limit.
// Exceeding the limit is a 413; any other read failure is the
// client's 400. The buffer is the caller's (typically pooled) — its
// bytes are only valid until the caller releases it.
func readBody(r *http.Request, limit int64, buf *bytes.Buffer) error {
	if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, limit)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return errTooLarge(mbe.Limit)
		}
		return badRequest(fmt.Errorf("%w: body: %v", ErrService, err))
	}
	return nil
}

// bodyBufs recycles request-body buffers across requests so the
// steady-state hot path reads without allocating. A buffer grown past
// bodyBufMax (one hostile large request) is dropped on release instead
// of pinning megabytes in the pool.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const bodyBufMax = 64 << 10

// getBodyBuf borrows an empty body buffer.
func getBodyBuf() *bytes.Buffer {
	b := bodyBufs.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// putBodyBuf releases the buffer unless it grew past the cap.
func putBodyBuf(b *bytes.Buffer) {
	if b.Cap() <= bodyBufMax {
		bodyBufs.Put(b)
	}
}
