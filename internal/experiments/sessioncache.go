package experiments

import (
	"sync/atomic"

	hypar "repro"
	"repro/internal/lru"
	"repro/internal/runner"
)

// SessionCache is a bounded LRU of Sessions keyed by their (canonical,
// comparable) configuration. A Session amortizes real work — zoo
// pinning (shape inference memoizes per model instance) and the cached
// zoo-wide strategy comparison — so a server that builds a throwaway
// Session per request leaks exactly the work a Session exists to
// reuse. The cache hands every caller asking for the same config the
// same Session instance; Sessions are safe for concurrent use, so no
// further coordination is needed. Methods are safe for concurrent use.
type SessionCache struct {
	c       *lru.Cache[hypar.Config, *Session]
	pool    *runner.Pool
	onBuild func(hypar.Config)
	builds  atomic.Int64
}

// NewSessionCache builds a cache bounded to max sessions, each created
// on the given pool (nil = runner.Default). max <= 0 disables reuse:
// every Get builds a fresh Session, the pre-cache behavior.
func NewSessionCache(max int, pool *runner.Pool) *SessionCache {
	if pool == nil {
		pool = runner.Default()
	}
	return &SessionCache{c: lru.New[hypar.Config, *Session](max), pool: pool}
}

// SetOnBuild installs a hook invoked once per Session actually
// constructed — after cache lookup, so tests can prove N requests at
// one config build exactly one Session. Install before the cache is
// shared across goroutines.
func (c *SessionCache) SetOnBuild(fn func(hypar.Config)) { c.onBuild = fn }

// Get returns the cached Session at r's canonical config, building
// (and caching) it from r on a miss and evicting the least recently
// used session beyond the bound. Building a Session is cheap (the zoo
// comparison inside it is lazy), so the build runs under the cache
// lock, which makes "one session per config" exact under concurrent
// misses.
func (c *SessionCache) Get(r *hypar.Resolved) *Session {
	cfg := r.Config()
	s, _ := c.c.GetOrAdd(cfg, func() *Session {
		c.builds.Add(1)
		if c.onBuild != nil {
			c.onBuild(cfg)
		}
		return NewResolvedSession(r, c.pool)
	})
	return s
}

// Len returns the number of cached sessions.
func (c *SessionCache) Len() int { return c.c.Len() }

// Builds returns how many Sessions have been constructed (cache
// misses) over the cache's lifetime.
func (c *SessionCache) Builds() int64 { return c.builds.Load() }
