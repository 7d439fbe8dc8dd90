// Package lru provides the one bounded, thread-safe LRU cache the rest
// of the repository builds on: the shards of the service's response
// cache and of its raw-bytes tier are instances of Cache rather than
// hand-rolled copies — eviction and locking invariants live here once,
// not per call site.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded, thread-safe LRU keyed by any comparable type.
// The default bound is the entry count; NewSized installs a cost
// function instead, making the bound a total-cost budget (e.g. bytes).
// A bound <= 0 disables storage: every Get misses and every Put is
// dropped.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
	cost  func(K, V) int // nil = 1 per entry (max counts entries)
	total int            // summed cost of resident entries
}

// entry is one cached value with its key (needed for eviction) and the
// cost charged when it was inserted, so refresh and eviction release
// exactly what was charged even if the cost function is not pure.
type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int
}

// New builds a cache bounded to max entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max, ll: list.New(), items: make(map[K]*list.Element)}
}

// NewSized builds a cache bounded to a total cost budget instead of an
// entry count: cost prices each entry (clamped to >= 1) and the cache
// evicts least-recently-used entries while the summed cost exceeds
// maxCost. An entry whose own cost exceeds the whole budget is not
// stored at all — caching it would require flushing everything else
// for a value too big to keep. The service's raw-bytes response cache
// uses this with cost = key bytes + body bytes.
func NewSized[K comparable, V any](maxCost int, cost func(K, V) int) *Cache[K, V] {
	c := New[K, V](maxCost)
	c.cost = cost
	return c
}

// costOf prices one entry: the configured cost function clamped to at
// least 1 (a zero/negative cost would let unbounded entries accumulate
// under a finite budget), or 1 per entry when no function is set.
func (c *Cache[K, V]) costOf(key K, val V) int {
	if c.cost == nil {
		return 1
	}
	if n := c.cost(key, val); n > 1 {
		return n
	}
	return 1
}

// Get returns the cached value and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put inserts or refreshes the value, evicting the least recently used
// entries beyond the bound. A value too costly for the whole budget is
// dropped without disturbing resident entries.
func (c *Cache[K, V]) Put(key K, val V) {
	if c.max <= 0 {
		return
	}
	cost := c.costOf(key, val)
	if cost > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*entry[K, V])
		c.total += cost - e.cost
		e.val, e.cost = val, cost
		// A refresh can raise the entry's cost past the budget; shed
		// colder entries the same way an insert would.
		c.evict()
		return
	}
	c.insert(key, val, cost)
}

// insert adds a fresh entry at the given cost and evicts past the
// bound. Callers hold mu and have checked cost <= max.
func (c *Cache[K, V]) insert(key K, val V, cost int) {
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val, cost: cost})
	c.total += cost
	c.evict()
}

// evict sheds least-recently-used entries while the summed cost is
// over the bound. Callers hold mu. The newest entry is never evicted:
// insert/Put guarantee its cost fits the budget alone, so the loop
// always terminates before reaching the front.
func (c *Cache[K, V]) evict() {
	for c.total > c.max && c.ll.Len() > 1 {
		last := c.ll.Back()
		c.ll.Remove(last)
		e := last.Value.(*entry[K, V])
		delete(c.items, e.key)
		c.total -= e.cost
	}
}

// Len returns the current entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cost returns the summed cost of resident entries (the entry count
// when no cost function is set).
func (c *Cache[K, V]) Cost() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Max returns the configured bound.
func (c *Cache[K, V]) Max() int { return c.max }
