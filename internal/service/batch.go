package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/runner"
)

// Batch limits.
const (
	// MaxBatchItems bounds one /v1/batch request's item list.
	MaxBatchItems = 256
	// MaxBatchBytes bounds a /v1/batch request body — items carry full
	// model descriptions, so the bound is wider than MaxRequestBytes.
	MaxBatchBytes = 16 << 20
)

// batchItem is one entry of a /v1/batch request: the common request
// envelope plus the endpoint it targets.
type batchItem struct {
	// Endpoint selects the per-item semantics: "plan", "evaluate"
	// (default) or "compare". Explore-class sweeps go through /v1/jobs
	// instead — their streamed, minutes-long shape does not belong in a
	// synchronous batch.
	Endpoint string `json:"endpoint,omitempty"`
	request
}

// batchRequest is the /v1/batch body.
type batchRequest struct {
	Items []batchItem `json:"items"`
}

// batchWork is one unique (deduplicated) computation of a batch.
type batchWork struct {
	endpoint string
	key      string
	p        *parsed
}

// batchLine is one item's outcome: a rendered response or an error.
type batchLine struct {
	resp response
	err  error
}

// errorLine renders err exactly as the single-request error body (one
// compact JSON object plus newline), so batch item errors read the
// same as endpoint errors.
func errorLine(err error) []byte {
	b, _ := json.Marshal(errorResponse{Error: err.Error()}) // cannot fail
	return append(b, '\n')
}

// handleBatch answers POST /v1/batch: a list of plan/evaluate/compare
// items evaluated as one request. Identical items (same request hash)
// are deduplicated inside the batch and computed once; the unique set
// fans out on the server pool, with every unit funneling through the
// same cache → singleflight → compute pipeline as single requests — a
// batch item and a single request for the same work share one cache
// entry and coalesce onto one computation.
//
// The response is NDJSON: line i is the outcome of item i in input
// order — on success exactly the bytes the item's single-request
// endpoint returns, on failure the uniform {"error": "..."} body.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) error {
	var req batchRequest
	if err := decodeBody(http.MaxBytesReader(nil, r.Body, MaxBatchBytes), &req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return errTooLarge(mbe.Limit)
		}
		return badRequest(fmt.Errorf("%w: body: %v", ErrService, err))
	}
	if len(req.Items) == 0 {
		return badRequest(fmt.Errorf(`%w: "items" must name at least one item`, ErrService))
	}
	if len(req.Items) > MaxBatchItems {
		return badRequest(fmt.Errorf("%w: %d items exceeds the %d-item batch limit",
			ErrService, len(req.Items), MaxBatchItems))
	}

	// Parse every item and deduplicate by request hash: itemWork[i] is
	// the index into work of item i's computation, -1 for items whose
	// parse already failed (their line is the parse error).
	lines := make([][]byte, len(req.Items))
	itemWork := make([]int, len(req.Items))
	var work []batchWork
	seen := make(map[string]int)
	for i, it := range req.Items {
		itemWork[i] = -1
		endpoint := it.Endpoint
		if endpoint == "" {
			endpoint = "evaluate"
		}
		switch endpoint {
		case "plan", "evaluate", "compare":
		default:
			s.metrics["batch"].errors.Add(1)
			lines[i] = errorLine(fmt.Errorf(`%w: item %d: unknown endpoint %q (plan, evaluate or compare)`, ErrService, i, it.Endpoint))
			continue
		}
		p, err := s.resolveRequest(it.request, endpoint != "compare", false)
		if err != nil {
			s.metrics[endpoint].errors.Add(1)
			lines[i] = errorLine(fmt.Errorf("item %d: %w", i, err))
			continue
		}
		key := p.key(endpoint)
		if j, ok := seen[key]; ok {
			// Intra-batch duplicate: reuse the first occurrence's
			// computation and count the coalescing on the item's
			// endpoint, same as concurrent identical requests would.
			itemWork[i] = j
			s.metrics[endpoint].coalesced.Add(1)
			continue
		}
		seen[key] = len(work)
		itemWork[i] = len(work)
		work = append(work, batchWork{endpoint: endpoint, key: key, p: p})
	}

	// Fan the unique set out on the pool. Compute failures stay
	// per-item (they become that item's error line); only a canceled
	// request context aborts the whole batch — the client is gone, so
	// that is a normal disconnect (stop dispatching, answer nothing),
	// not a server error. The request context also flows into the
	// follower wait (resolveCtx), so claimed items waiting on another
	// consumer's computation release their pool workers promptly when
	// the client disconnects; the compute context carries only the
	// server deadline, so a disconnect never cancels shared work. The
	// recover mirrors runJob's: these workers are bare pool goroutines
	// with no net/http recover above them, and the flight layer
	// re-panics by design.
	waitCtx, cancelWait := s.deadlineCtx(r.Context())
	defer cancelWait()
	computeCtx, cancelCompute := s.deadlineCtx(nil)
	defer cancelCompute()
	results, err := runner.MapCtx(waitCtx, s.pool, work,
		func(_ int, u batchWork) (bl batchLine, _ error) {
			defer func() {
				if rec := recover(); rec != nil {
					bl = batchLine{err: fmt.Errorf("%w: panic during evaluation: %v", ErrService, rec)}
				}
			}()
			resp, err := s.resolve(waitCtx, computeCtx, u.endpoint, u.key, u.p, func(cctx context.Context) (response, error) {
				switch u.endpoint {
				case "plan":
					return s.computePlan(cctx, u.p)
				case "evaluate":
					return s.computeEvaluate(cctx, u.p)
				default:
					return s.computeCompare(cctx, u.p)
				}
			})
			return batchLine{resp: resp, err: err}, nil
		})
	if err != nil {
		if r.Context().Err() != nil {
			return nil
		}
		return err
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	for i := range req.Items {
		line := lines[i]
		if line == nil {
			bl := results[itemWork[i]]
			if bl.err != nil {
				// Count the failure on the item's endpoint — in-band
				// error lines must not be invisible to /statsz.
				s.metrics[work[itemWork[i]].endpoint].errors.Add(1)
				line = errorLine(bl.err)
			} else {
				line = bl.resp.body
			}
		}
		if _, err := w.Write(line); err != nil {
			// Client went away mid-response; nothing left to salvage.
			return nil
		}
	}
	return nil
}
