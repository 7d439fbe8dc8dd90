// Package runner provides the bounded worker pool the evaluation
// harness fans out on: figure runners sweep models × strategies,
// explorations simulate hundreds of plan points, and the brute-force
// reference enumerates code ranges. The pool is std-lib only, sized by
// GOMAXPROCS by default, collects results in deterministic input order,
// and cancels the dispatch of outstanding items on the first error. The
// reported error is the lowest-indexed failure among the items that
// ran; when several items would fail, cancellation can skip a
// lower-indexed one, so a parallel run may report a later failure than
// the serial run (which always reports the first). Successful runs are
// fully deterministic at any width.
//
// A Pool is a width, not a shared queue: every Map/Stream call spawns
// its own bounded set of workers, so nested fan-outs cannot deadlock
// (they merely oversubscribe). Width 1 runs inline on the calling
// goroutine — the serial reference path every determinism test and
// benchmark baseline uses.
package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of concurrent workers a fan-out uses.
type Pool struct {
	width int
}

// New returns a pool of the given width. Width <= 0 selects
// GOMAXPROCS(0), the number of usable CPUs.
func New(width int) *Pool {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	return &Pool{width: width}
}

// Serial returns the inline, single-worker pool.
func Serial() *Pool { return New(1) }

// Width returns the pool's worker bound.
func (p *Pool) Width() int {
	if p == nil || p.width <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.width
}

// defaultWidth is the process-wide default pool width; 0 means
// GOMAXPROCS. cmd/hypar's -parallel flag sets it.
var defaultWidth atomic.Int64

// SetDefaultWidth sets the width Default() pools use; n <= 0 restores
// GOMAXPROCS sizing.
func SetDefaultWidth(n int) {
	if n < 0 {
		n = 0
	}
	defaultWidth.Store(int64(n))
}

// Default returns a pool of the process-wide default width.
func Default() *Pool { return New(int(defaultWidth.Load())) }

// indexedErr pairs an error with the item index that produced it, so
// the lowest-index error wins regardless of completion order.
type indexedErr struct {
	index int
	err   error
}

// run dispatches indexes [0, n) to at most width workers, stopping the
// dispatch of new items after the first error. It returns the error of
// the lowest failed index among those that ran.
func (p *Pool) run(n int, fn func(worker, index int) error) error {
	if n <= 0 {
		return nil
	}
	width := p.Width()
	if width > n {
		width = n
	}
	if width == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		failed  atomic.Bool
		mu      sync.Mutex
		firstMu indexedErr
		wg      sync.WaitGroup
	)
	firstMu.index = n
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				// Check before claiming: a claimed index always runs,
				// so cancellation never abandons claimed work.
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(worker, i); err != nil {
					failed.Store(true)
					mu.Lock()
					if i < firstMu.index {
						firstMu = indexedErr{index: i, err: err}
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstMu.err
}

// Map applies fn to every item and returns the results in input order,
// regardless of pool width or completion order.
func Map[T, R any](p *Pool, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := p.run(len(items), func(_, i int) error {
		r, err := fn(i, items[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapCtx is Map with cooperative cancellation: once ctx is done, no
// further items are dispatched and the context's error is reported
// (items already claimed by a worker still run to completion — the
// pool never abandons claimed work). A nil ctx behaves exactly like
// Map. The service's batch endpoint uses this so a client that
// disconnects mid-batch stops consuming pool capacity.
func MapCtx[T, R any](ctx context.Context, p *Pool, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	if ctx == nil {
		return Map(p, items, fn)
	}
	return Map(p, items, func(i int, item T) (R, error) {
		if err := ctx.Err(); err != nil {
			var zero R
			return zero, err
		}
		return fn(i, item)
	})
}

// MapWith is Map with per-worker state: newState runs once per worker
// (e.g. to build a reusable simulation engine) and its value is passed
// to every fn call that worker executes. States are never shared
// between workers, so they need no locking.
func MapWith[S, T, R any](p *Pool, items []T, newState func() S, fn func(s S, i int, item T) (R, error)) ([]R, error) {
	width := p.Width()
	if width > len(items) {
		width = len(items)
	}
	states := make([]S, width)
	made := make([]bool, width)
	out := make([]R, len(items))
	err := p.run(len(items), func(worker, i int) error {
		if !made[worker] {
			states[worker] = newState()
			made[worker] = true
		}
		r, err := fn(states[worker], i, items[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// errStreamStopped is the sentinel workers return once the consumer has
// aborted a Stream; it never escapes to the caller.
var errStreamStopped = errors.New("runner: stream stopped by consumer")

// Stream applies fn to every item on the pool and hands each result to
// emit in input order, while later items are still being computed: item
// i's emit only waits for items 0..i, not for the whole batch. emit runs
// on the calling goroutine, so it may write to non-thread-safe sinks
// (an http.ResponseWriter, a terminal). An emit error cancels the
// remaining computation and is returned. With width 1 the behavior is
// compute-then-emit per item, the serial reference path.
func Stream[T, R any](p *Pool, items []T, fn func(i int, item T) (R, error), emit func(i int, r R) error) error {
	return StreamWith(p, items, func() struct{} { return struct{}{} },
		func(_ struct{}, i int, item T) (R, error) { return fn(i, item) }, emit)
}

// StreamWith is Stream with per-worker state (see MapWith). Workers
// stay at most 2·width items ahead of the emit cursor, so a slow
// consumer bounds buffering and an emit error cancels outstanding work
// promptly instead of after the whole batch.
func StreamWith[S, T, R any](p *Pool, items []T, newState func() S,
	fn func(s S, i int, item T) (R, error), emit func(i int, r R) error) error {
	n := len(items)
	if n == 0 {
		return nil
	}
	width := p.Width()
	if width > n {
		width = n
	}
	window := 2 * width
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		out      = make([]R, n)
		ready    = make([]bool, n)
		emitNext int  // next index the consumer will emit
		done     bool // producer finished
		failIdx  = -1 // lowest index whose fn call failed
		failErr  error
		stopped  atomic.Bool // consumer aborted
		states   = make([]S, width)
		made     = make([]bool, width)
		doneCh   = make(chan struct{})
	)
	go func() {
		// The p.run error is the errStreamStopped sentinel whenever fn
		// failed (real errors are recorded in failIdx/failErr instead,
		// because a window-waiting worker can abort with the sentinel at
		// a lower index than the real failure), so it is ignored here.
		_ = p.run(n, func(worker, i int) error {
			mu.Lock()
			for i >= emitNext+window && !stopped.Load() && failIdx == -1 {
				cond.Wait()
			}
			aborted := stopped.Load() || failIdx != -1
			mu.Unlock()
			if aborted {
				return errStreamStopped
			}
			if !made[worker] {
				states[worker] = newState()
				made[worker] = true
			}
			r, err := fn(states[worker], i, items[i])
			mu.Lock()
			if err != nil {
				if failIdx == -1 || i < failIdx {
					failIdx, failErr = i, err
				}
			} else {
				out[i] = r
				ready[i] = true
			}
			cond.Broadcast()
			mu.Unlock()
			if err != nil {
				return errStreamStopped
			}
			return nil
		})
		mu.Lock()
		done = true
		cond.Broadcast()
		mu.Unlock()
		close(doneCh)
	}()

	for i := 0; i < n; i++ {
		mu.Lock()
		for !ready[i] && !done {
			cond.Wait()
		}
		ok := ready[i]
		r := out[i]
		mu.Unlock()
		if !ok {
			// The producer finished without computing item i: it failed
			// on an earlier error, surfaced below.
			break
		}
		if err := emit(i, r); err != nil {
			stopped.Store(true)
			mu.Lock()
			cond.Broadcast()
			mu.Unlock()
			<-doneCh
			return err
		}
		mu.Lock()
		emitNext = i + 1
		cond.Broadcast()
		mu.Unlock()
	}
	<-doneCh
	mu.Lock()
	err := failErr
	mu.Unlock()
	return err
}

// Chunks splits [0, n) into roughly perChunk-sized half-open ranges so
// range enumerations (brute force, explorations) can fan out without a
// task per point. perChunk <= 0 picks a size that yields about four
// chunks per worker of the given width.
func Chunks(n, width, perChunk int) [][2]int {
	if n <= 0 {
		return nil
	}
	if width <= 0 {
		width = 1
	}
	if perChunk <= 0 {
		perChunk = (n + 4*width - 1) / (4 * width)
		if perChunk < 1 {
			perChunk = 1
		}
	}
	chunks := make([][2]int, 0, (n+perChunk-1)/perChunk)
	for lo := 0; lo < n; lo += perChunk {
		hi := lo + perChunk
		if hi > n {
			hi = n
		}
		chunks = append(chunks, [2]int{lo, hi})
	}
	return chunks
}
