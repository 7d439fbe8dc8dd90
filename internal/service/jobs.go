package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// DefaultJobEntries is the async job-table bound when Options leaves
// JobEntries zero.
const DefaultJobEntries = 64

// Job states.
const (
	jobStateRunning  = "running"
	jobStateDone     = "done"
	jobStateFailed   = "failed"
	jobStateCanceled = "canceled"
)

// pointLinePrefix identifies a sweep-point NDJSON line. JSON marshals
// struct fields in declaration order and Type is explorePointJSON's
// first field, so the prefix is stable.
var pointLinePrefix = []byte(`{"type":"point"`)

// job is one asynchronous explore-class sweep. The immutable identity
// fields are set at submission; the mutable progress/result fields are
// guarded by mu.
type job struct {
	id      string
	key     string
	model   string
	points  int // sweep points, 2^len(free)
	created time.Time
	ctx     context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	state    string
	done     int // points computed so far (advances on the computing leader)
	errMsg   string
	resp     response
	finished time.Time
}

// add records n more computed sweep points, never more than the
// sweep has.
func (j *job) add(n int) {
	j.mu.Lock()
	j.done = min(j.done+n, j.points)
	j.mu.Unlock()
}

// finish records the sweep's outcome. A cancellation error only means
// "canceled" when this job's own context was canceled — a coalesced
// computation can also die of another consumer's cancel, and that
// failure must not masquerade as this job having been canceled.
func (j *job) finish(resp response, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = jobStateDone
		j.resp = resp
		j.done = j.points
	case errors.Is(err, context.Canceled) && j.ctx.Err() != nil:
		j.state = jobStateCanceled
	default:
		j.state = jobStateFailed
		j.errMsg = err.Error()
	}
}

// jobStatusJSON is the wire form of one job's status.
type jobStatusJSON struct {
	ID             string  `json:"id"`
	Status         string  `json:"status"`
	Model          string  `json:"model"`
	Points         int     `json:"points"`
	Done           int     `json:"done"`
	Error          string  `json:"error,omitempty"`
	ElapsedSeconds float64 `json:"elapsedSeconds"`
	Result         string  `json:"result,omitempty"`
}

// status snapshots the job for JSON rendering.
func (j *job) status() jobStatusJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatusJSON{
		ID:     j.id,
		Status: j.state,
		Model:  j.model,
		Points: j.points,
		Done:   j.done,
		Error:  j.errMsg,
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	st.ElapsedSeconds = end.Sub(j.created).Seconds()
	if j.state == jobStateDone {
		st.Result = "/v1/jobs/" + j.id + "/result"
	}
	return st
}

// isFinished reports whether the job reached a terminal state.
func (j *job) isFinished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state != jobStateRunning
}

// jobTable is the bounded registry of async jobs. Finished jobs stay
// visible (their status and result remain queryable) until the bound
// forces eviction in submission order or a DELETE removes them; when
// every tracked job is still running, new submissions are refused
// rather than evicting live work.
type jobTable struct {
	mu       sync.Mutex
	max      int
	seq      int
	jobs     map[string]*job
	order    []string // submission order, for bounded eviction
	draining bool
	wg       sync.WaitGroup
}

// newJobTable builds a table bounded to max jobs; max <= 0 disables the
// job endpoints entirely (New skips registering them).
func newJobTable(max int) *jobTable {
	return &jobTable{max: max, jobs: make(map[string]*job)}
}

// add registers a new job, evicting the oldest finished job when full.
func (t *jobTable) add(model string, key string, points int) (*job, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.draining {
		return nil, &httpError{code: http.StatusServiceUnavailable, retryAfter: 2,
			err: fmt.Errorf("%w: server is draining", ErrService)}
	}
	if len(t.jobs) >= t.max {
		evicted := false
		for i, id := range t.order {
			if t.jobs[id].isFinished() {
				delete(t.jobs, id)
				t.order = append(t.order[:i], t.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return nil, &httpError{code: http.StatusServiceUnavailable, retryAfter: 1,
				err: fmt.Errorf("%w: job table full (%d jobs, all running)", ErrService, t.max)}
		}
	}
	t.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:      fmt.Sprintf("j%d", t.seq),
		key:     key,
		model:   model,
		points:  points,
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		state:   jobStateRunning,
	}
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	t.wg.Add(1)
	return j, nil
}

// get looks a job up by id.
func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// remove deletes a job from the table.
func (t *jobTable) remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.jobs[id]; !ok {
		return
	}
	delete(t.jobs, id)
	for i, oid := range t.order {
		if oid == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// list snapshots every tracked job in submission order.
func (t *jobTable) list() []*job {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*job, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.jobs[id])
	}
	return out
}

// counts returns (tracked, active) job counts.
func (t *jobTable) counts() (int, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	active := 0
	for _, j := range t.jobs {
		if !j.isFinished() {
			active++
		}
	}
	return len(t.jobs), active
}

// drain refuses new submissions, then waits for running jobs. Jobs get
// until ctx's deadline to finish on their own; past it they are
// canceled and drain waits for the (prompt) cancellation to land.
func (t *jobTable) drain(ctx context.Context) error {
	t.mu.Lock()
	t.draining = true
	t.mu.Unlock()
	done := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		t.mu.Lock()
		for _, j := range t.jobs {
			j.cancel()
		}
		t.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// ---------------------------------------------------------------------------
// Handlers

// handleJobSubmit answers POST /v1/jobs: the /v1/explore envelope, run
// asynchronously. The response is the job's initial status (202); the
// sweep computes on a background goroutine through the same
// cache → singleflight → compute pipeline as /v1/explore, under the
// same request hash — a job and a synchronous explore for the same
// sweep share one cache entry and coalesce onto one computation, and a
// finished job's /result replays bytes identical to /v1/explore's.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) error {
	p, err := s.parseRequest(r, false, true)
	if err != nil {
		return err
	}
	if err := finishExploreParse(p); err != nil {
		return err
	}
	j, err := s.jobs.add(p.model.Name, p.key("explore"), 1<<uint(len(p.free)))
	if err != nil {
		return err
	}
	go s.runJob(j, p)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	return json.NewEncoder(w).Encode(j.status())
}

// runJob computes one job's sweep. Progress advances by the point
// objects in each block the leader tees. The summary line repeats two
// of them, but it comes in the last block, whose point lines bring
// done to points anyway, and add clamps. A job coalesced onto another
// in-flight computation of the same sweep jumps straight from 0 to
// done when that computation lands. Cancellation cuts the sweep
// between lines when this job leads, and — because the wait goes
// through resolveCtx(j.ctx) — promptly abandons a wait on another
// consumer's computation when this job follows, so Shutdown's job
// drain is never held hostage by a long-running synchronous explore
// leader.
// resolveRetry handles the inverse case: a follower poisoned by a
// since-canceled job leader retries instead of reporting a cancel it
// never asked for.
func (s *Server) runJob(j *job, p *parsed) {
	defer s.jobs.wg.Done()
	// The flight layer re-panics after releasing the key so failures
	// stay loud on HTTP paths, where net/http recovers per connection.
	// This goroutine has no such net — recover here, or one hostile
	// model submitted as a job would kill the whole daemon where the
	// same request via /v1/evaluate drops one connection.
	defer func() {
		if r := recover(); r != nil {
			j.finish(response{}, fmt.Errorf("%w: panic during sweep: %v", ErrService, r))
		}
	}()
	resp, err := s.resolveRetry(j.ctx, j.ctx, "explore", j.key, func(cctx context.Context) (response, error) {
		return s.exploreBody(cctx, p, func(b []byte) { j.add(bytes.Count(b, pointLinePrefix)) })
	})
	j.finish(resp, err)
}

// jobFromPath resolves the {id} path value.
func (s *Server) jobFromPath(r *http.Request) (*job, error) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		return nil, &httpError{code: http.StatusNotFound,
			err: fmt.Errorf("%w: no job %q", ErrService, id)}
	}
	return j, nil
}

// jobGet wraps a GET job handler with metrics and error rendering.
func (s *Server) jobGet(w http.ResponseWriter, r *http.Request, h func() error) {
	m := s.metrics["jobs"]
	m.requests.Add(1)
	if err := h(); err != nil {
		m.errors.Add(1)
		code, retryAfter := httpStatus(err)
		s.noteFailure(code)
		s.writeError(w, code, retryAfter, err)
	}
}

// handleJobStatus answers GET /v1/jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	s.jobGet(w, r, func() error {
		j, err := s.jobFromPath(r)
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", "application/json")
		return json.NewEncoder(w).Encode(j.status())
	})
}

// handleJobList answers GET /v1/jobs.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.jobGet(w, r, func() error {
		jobs := s.jobs.list()
		out := struct {
			Jobs []jobStatusJSON `json:"jobs"`
		}{Jobs: make([]jobStatusJSON, 0, len(jobs))}
		for _, j := range jobs {
			out.Jobs = append(out.Jobs, j.status())
		}
		w.Header().Set("Content-Type", "application/json")
		return json.NewEncoder(w).Encode(out)
	})
}

// handleJobResult answers GET /v1/jobs/{id}/result: the finished
// sweep's NDJSON, byte-identical to what /v1/explore streams for the
// same request. Unfinished jobs answer 409 with the job's status.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	s.jobGet(w, r, func() error {
		j, err := s.jobFromPath(r)
		if err != nil {
			return err
		}
		j.mu.Lock()
		state, resp, errMsg := j.state, j.resp, j.errMsg
		j.mu.Unlock()
		switch state {
		case jobStateDone:
			writeResponse(w, resp)
			return nil
		case jobStateFailed:
			return &httpError{code: http.StatusConflict,
				err: fmt.Errorf("%w: job %s failed: %s", ErrService, j.id, errMsg)}
		default:
			return &httpError{code: http.StatusConflict,
				err: fmt.Errorf("%w: job %s is %s", ErrService, j.id, state)}
		}
	})
}

// handleJobCancel answers DELETE /v1/jobs/{id}: a running job is
// canceled (it transitions to "canceled" once the sweep notices, which
// happens between lines); a finished job is removed from the table.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.jobGet(w, r, func() error {
		j, err := s.jobFromPath(r)
		if err != nil {
			return err
		}
		removed := false
		if j.isFinished() {
			s.jobs.remove(j.id)
			removed = true
		} else {
			j.cancel()
		}
		w.Header().Set("Content-Type", "application/json")
		return json.NewEncoder(w).Encode(struct {
			ID      string `json:"id"`
			Status  string `json:"status"`
			Removed bool   `json:"removed"`
		}{ID: j.id, Status: j.status().Status, Removed: removed})
	})
}
