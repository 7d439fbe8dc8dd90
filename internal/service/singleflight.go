package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// response is the cached/coalesced unit of work: a fully rendered
// response body. Replaying it byte-for-byte is what makes identical
// requests return identical bytes whether they hit the cache, lead a
// flight, or follow one.
type response struct {
	contentType string
	body        []byte
}

// flightGroup is a minimal singleflight: concurrent Do calls with the
// same key share one execution of fn. The std-lib has no singleflight
// and this module takes no dependencies, so the classic construction is
// reimplemented here (with a done channel rather than a WaitGroup, so
// follower waits can be made cancelable — DoCtx). One flightGroup is
// one lock domain; the service stripes several behind shardedFlight so
// unrelated keys never contend on one mutex.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// flightCall is one in-flight computation.
type flightCall struct {
	done chan struct{} // closed when resp/err are final
	resp response
	err  error
}

// Do executes fn once per key among concurrent callers. The returned
// leader flag reports whether this caller ran fn itself (followers get
// the leader's result). fn must not call Do reentrantly with the same
// key.
func (g *flightGroup) Do(key string, fn func() (response, error)) (response, error, bool) {
	return g.DoCtx(nil, key, nil, fn)
}

// DoCtx is Do with a cancelable follower wait: a follower whose ctx is
// done stops waiting and returns ctx's error (the leader keeps
// computing for the remaining consumers — abandoning a wait never
// cancels the shared work). The leader itself ignores ctx; cancel
// inside fn if the computation should stop. A nil ctx waits
// indefinitely. joined (if non-nil) counts this caller as it becomes a
// follower, before its wait, so it shows while the leader computes.
func (g *flightGroup) DoCtx(ctx context.Context, key string, joined *atomic.Int64, fn func() (response, error)) (resp response, err error, leader bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		if joined != nil {
			joined.Add(1)
		}
		if ctx == nil {
			<-c.done
			return c.resp, c.err, false
		}
		select {
		case <-c.done:
			return c.resp, c.err, false
		case <-ctx.Done():
			return response{}, ctx.Err(), false
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	// Release the flight even if fn panics — otherwise the key is
	// poisoned and every follower blocks forever. A panicking leader
	// hands followers an error, then re-panics so the failure stays
	// loud (net/http recovers it per connection). The key leaves the
	// map before done closes: a woken follower that retries (a canceled
	// job's followers do) must start a new flight, not rejoin this
	// finished one.
	defer func() {
		r := recover()
		if r != nil {
			c.err = fmt.Errorf("service: panic during computation: %v", r)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
		if r != nil {
			panic(r)
		}
	}()
	c.resp, c.err = fn()
	return c.resp, c.err, true
}

// shardedFlight stripes the singleflight table by request hash, the
// same way shardedLRU stripes the response cache: the registration
// lock of one key's flight is shared only with keys in the same shard,
// so concurrent distinct requests register and release without a
// global mutex. Coalescing semantics are unchanged — one key always
// maps to one shard, so identical keys still share one execution.
type shardedFlight struct {
	shards [flightShards]flightGroup
}

// Do routes the key to its shard's singleflight group.
func (g *shardedFlight) Do(key string, fn func() (response, error)) (response, error, bool) {
	return g.shards[shardIndex(key, flightShards)].Do(key, fn)
}

// DoCtx routes the key to its shard's group with a cancelable follower
// wait (see flightGroup.DoCtx).
func (g *shardedFlight) DoCtx(ctx context.Context, key string, joined *atomic.Int64, fn func() (response, error)) (response, error, bool) {
	return g.shards[shardIndex(key, flightShards)].DoCtx(ctx, key, joined, fn)
}
