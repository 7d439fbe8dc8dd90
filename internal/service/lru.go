package service

import (
	"repro/internal/lru"
)

// flightShards is the stripe count of the singleflight table. Response
// cache striping adapts to the configured capacity (see lruShardsFor);
// the flight table holds only in-progress work, so a fixed power of two
// is always fine.
const flightShards = 16

// shardIndex picks the stripe for a request hash: FNV-1a over the key,
// masked to the (power of two) shard count. Request hashes are hex
// SHA-256, so any decent mix spreads them uniformly.
func shardIndex(key string, shards int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h & uint32(shards-1))
}

// lruShardsFor picks the response-cache stripe count for a capacity:
// 16 shards when the cache is large enough that every shard holds a
// useful working set (>= 4 entries), halving down to a single shard —
// exact global LRU — for small caches, where striping would cost
// precision without relieving any real contention.
func lruShardsFor(max int) int {
	shards := 16
	for shards > 1 && max/shards < 4 {
		shards /= 2
	}
	return shards
}

// shardedLRU stripes a response cache into independently locked
// lru.Cache shards keyed by request hash, so concurrent hot-path Gets
// on different keys proceed without contending on one global mutex.
// One type serves both response tiers: the canonical response cache is
// bounded by entry count (newShardedLRU), the raw-bytes fast path by
// bytes (newRawCache). The total bound is divided across shards (first
// shards absorb the remainder), which keeps the eviction-bound
// invariant exact: the summed size never exceeds the bound. Recency is
// per shard — a pathological key distribution can evict earlier than a
// global LRU would, but hashes are uniform, so shard loads stay within
// noise of each other.
type shardedLRU struct {
	shards []*lru.Cache[string, response]
}

// newShardedLRU builds a striped cache of total capacity max entries
// across the given power-of-two shard count; max <= 0 disables caching
// entirely.
func newShardedLRU(max, shards int) *shardedLRU {
	if max <= 0 {
		max, shards = 0, 1
	} else if shards < 1 {
		shards = 1
	}
	return newStriped(max, shards, lru.New[string, response])
}

// newStriped splits total across shards, each built by mk.
func newStriped(total, shards int, mk func(bound int) *lru.Cache[string, response]) *shardedLRU {
	s := &shardedLRU{shards: make([]*lru.Cache[string, response], shards)}
	base, rem := total/shards, total%shards
	for i := range s.shards {
		bound := base
		if i < rem {
			bound++
		}
		s.shards[i] = mk(bound)
	}
	return s
}

// Get returns the cached response from the key's shard.
func (s *shardedLRU) Get(key string) (response, bool) {
	return s.shards[shardIndex(key, len(s.shards))].Get(key)
}

// Put stores the response in the key's shard.
func (s *shardedLRU) Put(key string, resp response) {
	s.shards[shardIndex(key, len(s.shards))].Put(key, resp)
}

// Len returns the entry count summed over all shards.
func (s *shardedLRU) Len() int { return s.sum((*lru.Cache[string, response]).Len) }

// Cost returns the summed cost of resident entries: bytes for a
// byte-bounded cache, entries otherwise.
func (s *shardedLRU) Cost() int { return s.sum((*lru.Cache[string, response]).Cost) }

// Max returns the total bound.
func (s *shardedLRU) Max() int { return s.sum((*lru.Cache[string, response]).Max) }

// sum adds f over the shards.
func (s *shardedLRU) sum(f func(*lru.Cache[string, response]) int) int {
	n := 0
	for _, sh := range s.shards {
		n += f(sh)
	}
	return n
}
