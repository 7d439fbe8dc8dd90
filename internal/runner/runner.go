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
// A Pool is a width, not a shared queue: every Map/StreamWith call spawns
// its own bounded set of workers, so nested fan-outs cannot deadlock
// (they merely oversubscribe). StreamWith hands results to its consumer
// a range of items at a time (Chunks), so the hand-off costs one lock
// per range, not per item. Width 1 runs inline on the calling
// goroutine — the serial reference path every determinism test and
// benchmark baseline uses.
package runner

import (
	"context"
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

// StreamWith computes items [0, n) on the pool, with per-worker state
// (see MapWith), and hands each result to emit in index order while
// later items are still being computed. Items are handed over in the
// ranges of Chunks(n, width): a worker computes a whole range without
// the stream's lock and publishes it at once, and item i's emit waits
// for its range, not for the whole batch. emit runs on the calling
// goroutine, so it may write to non-thread-safe sinks (an
// http.ResponseWriter, a terminal). Workers claim no range more than
// 2·width ranges ahead of the one being emitted, so a slow consumer
// bounds buffering and an emit error cancels outstanding work promptly
// instead of after the whole batch.
//
// fn computes items lo, lo+1, … into out[0], out[1], …, where out runs
// to the end of the worker's range: it may stop short of the end, and
// returns how many items it computed — at least one, unless it fails,
// when the count is of the items before the failed one. So fn may take
// a range a few items at a time, or one. Workers check for cancellation
// before every fn call. A compute error stops the stream: nothing at or
// past the failed index is emitted, and the error returned is the
// lowest-indexed failure among the items that ran. An emit error stops
// the stream too and is returned. With width 1 every call's items are
// computed and then emitted on the calling goroutine, the serial
// reference path, which reports the first error.
func StreamWith[S, R any](p *Pool, n int, newState func() S,
	fn func(s S, lo int, out []R) (int, error), emit func(i int, r R) error) error {
	if n <= 0 {
		return nil
	}
	width := p.Width()
	if width > n {
		width = n
	}
	out := make([]R, n)
	if width == 1 {
		s := newState()
		for i := 0; i < n; {
			k, err := fn(s, i, out[i:])
			for end := i + k; i < end; i++ {
				if err := emit(i, out[i]); err != nil {
					return err
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	chunks := Chunks(n, width)
	window := 2 * width
	var (
		mu     sync.Mutex
		filled = sync.NewCond(&mu) // the emitter waits for its range
		room   = sync.NewCond(&mu) // workers wait for the window
		// ends[c] is the end of range c's computed prefix once a worker
		// has published the range, -1 before: the range's high bound,
		// or the index where a failure or the stop flag cut it short.
		ends    = make([]int, len(chunks))
		next    int // next range to claim
		cursor  int // range the emitter is waiting on or emitting
		failIdx = n // lowest index whose fn call failed
		failErr error
		stopped atomic.Bool // a compute or emit error ends the stream
		wg      sync.WaitGroup
	)
	for c := range ends {
		ends[c] = -1
	}
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s S
			made := false
			mu.Lock()
			defer mu.Unlock()
			for {
				for next < len(chunks) && next >= cursor+window && !stopped.Load() {
					room.Wait()
				}
				if next >= len(chunks) || stopped.Load() {
					return
				}
				c := next
				next++
				mu.Unlock()
				if !made {
					s, made = newState(), true
				}
				i, hi := chunks[c][0], chunks[c][1]
				var err error
				for i < hi && !stopped.Load() {
					var k int
					k, err = fn(s, i, out[i:hi])
					i += k
					if err != nil {
						stopped.Store(true)
						break
					}
				}
				mu.Lock()
				ends[c] = i
				if err != nil && i < failIdx {
					failIdx, failErr = i, err
				}
				filled.Signal()
				if i < hi {
					return
				}
			}
		}()
	}

	var emitErr error
	mu.Lock()
	for c, ch := range chunks {
		// Range c is claimed or claimable: the ranges before it were
		// emitted whole, so no error has stopped the workers short of
		// it, and it lies inside the window.
		for ends[c] < 0 {
			filled.Wait()
		}
		end := ends[c]
		mu.Unlock()
		for i := ch[0]; i < end && emitErr == nil; i++ {
			emitErr = emit(i, out[i])
		}
		mu.Lock()
		if emitErr != nil {
			stopped.Store(true)
		}
		if end < ch[1] || emitErr != nil {
			break
		}
		cursor = c + 1
		room.Signal()
	}
	room.Broadcast()
	mu.Unlock()
	wg.Wait()
	if emitErr != nil {
		return emitErr
	}
	return failErr
}

// Chunks splits [0, n) into about four half-open ranges per worker of
// the given width, so range enumerations (brute force, explorations)
// can fan out without a task per point.
func Chunks(n, width int) [][2]int {
	if n <= 0 {
		return nil
	}
	if width <= 0 {
		width = 1
	}
	perChunk := (n + 4*width - 1) / (4 * width)
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
