package nn

import (
	"sync"

	"repro/internal/lru"
)

// shapeKey identifies one memoized shape inference: the model instance
// and the batch size it was run at.
type shapeKey struct {
	model *Model
	batch int
}

// shapeCacheLimit bounds the entry count. At roughly a few KB per
// entry this caps the cache in the tens of MB.
const shapeCacheLimit = 4096

// shapeCache memoizes Shapes results in a bounded per-entry LRU. Keyed
// by model pointer: callers that want cache hits must reuse the same
// *Model across calls (the experiments session pins the zoo once for
// exactly this reason). Churning workloads — thousands of short-lived
// model instances — only recycle the cold tail: hot entries survive
// because every hit refreshes them, where the previous whole-map flush
// dropped the pinned zoo along with the churn, and the pointer keys of
// dead models now age out instead of being retained until a flush.
var shapeCache = newShapeCache()

// shapeIndex lists, per model, the batch sizes inserted into shapeCache
// and not yet evicted, so DropCachedShapes costs O(entries of the
// model) instead of a scan of the whole cache. It is a multiset: every
// insertion adds its batch (inside GetOrAdd's build, under the cache
// lock) and every eviction hook removes one occurrence. Because an
// entry's hook always runs after its own insertion, the two balance
// exactly once the cache settles; in flight, a batch may be listed
// whose entry already left, which costs DropCachedShapes one no-op
// Remove. A model with no resident entries has no index slot, so the
// index never keeps a dead model alive.
type shapeIndex struct {
	mu      sync.Mutex
	batches map[*Model][]int
}

var shapeIdx = &shapeIndex{batches: make(map[*Model][]int)}

// newShapeCache builds the shape LRU with its eviction hook feeding
// shapeIdx.
func newShapeCache() *lru.Cache[shapeKey, []LayerShapes] {
	c := lru.New[shapeKey, []LayerShapes](shapeCacheLimit)
	c.SetOnEvict(func(k shapeKey, _ []LayerShapes) { shapeIdx.remove(k) })
	return c
}

// add records one insertion of k.
func (x *shapeIndex) add(k shapeKey) {
	x.mu.Lock()
	x.batches[k.model] = append(x.batches[k.model], k.batch)
	x.mu.Unlock()
}

// remove drops one recorded insertion of k.
func (x *shapeIndex) remove(k shapeKey) {
	x.mu.Lock()
	defer x.mu.Unlock()
	bs := x.batches[k.model]
	for i, b := range bs {
		if b != k.batch {
			continue
		}
		last := len(bs) - 1
		bs[i] = bs[last]
		if last == 0 {
			delete(x.batches, k.model)
		} else {
			x.batches[k.model] = bs[:last]
		}
		return
	}
}

// appendBatches appends m's recorded batch sizes to dst.
func (x *shapeIndex) appendBatches(dst []int, m *Model) []int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append(dst, x.batches[m]...)
}

// CachedShapes is Shapes with memoization per (model, batch). The
// returned slice is shared between all callers and must be treated as
// read-only; every consumer in this repository (the partition search,
// the simulator, the training substrate) only reads it. A model must
// not be mutated after its shapes have been cached.
func (m *Model) CachedShapes(batch int) ([]LayerShapes, error) {
	key := shapeKey{model: m, batch: batch}
	if v, ok := shapeCache.Get(key); ok {
		return v, nil
	}
	// Inference runs outside the cache lock (it is too expensive for
	// GetOrAdd's build); concurrent misses may both compute, and the
	// GetOrAdd below keeps one winner so all callers share one slice.
	shapes, err := m.Shapes(batch)
	if err != nil {
		return nil, err
	}
	v, _ := shapeCache.GetOrAdd(key, func() []LayerShapes {
		// Indexed under the cache lock, before the entry can be seen
		// or evicted, so its eviction hook always finds it.
		shapeIdx.add(key)
		return shapes
	})
	return v, nil
}

// DropCachedShapes removes every cached shape inference of the model
// (all batch sizes) and returns how many entries were dropped. Callers
// that pin model instances — the experiments session cache, the
// service's decoded-model intern cache — use it to release a retired
// instance's entries instead of waiting for them to age out of the LRU.
// It costs one Remove per batch size the model was cached at.
func DropCachedShapes(m *Model) int {
	var buf [8]int
	n := 0
	for _, b := range shapeIdx.appendBatches(buf[:0], m) {
		// Each Remove fires the eviction hook, which unindexes it.
		if shapeCache.Remove(shapeKey{model: m, batch: b}) {
			n++
		}
	}
	return n
}

// ShapeCacheLen reports the current shape-cache entry count (for tests
// and leak diagnostics).
func ShapeCacheLen() int { return shapeCache.Len() }
