package hypar

// mru is a tiny fixed-capacity most-recently-used table for the
// Evaluator's memos. Entries are kept in recency order (index 0 is the
// most recent); a lookup hit moves its entry to the front, and an
// insert into a full table overwrites the least recently used entry.
// At the handful of entries an Evaluator keeps, a linear scan beats
// hashing, and a full table allocates nothing. Not safe for concurrent
// use, like the Evaluator that owns it.
type mru[K comparable, V any] struct {
	keys []K
	vals []V
}

// newMRU builds an empty table holding at most max entries.
func newMRU[K comparable, V any](max int) mru[K, V] {
	return mru[K, V]{keys: make([]K, 0, max), vals: make([]V, 0, max)}
}

// get returns the value for k and marks it most recently used.
func (t *mru[K, V]) get(k K) (V, bool) {
	for i := range t.keys {
		if t.keys[i] == k {
			t.front(i)
			return t.vals[0], true
		}
	}
	var zero V
	return zero, false
}

// put stores v under k as the most recently used entry, evicting the
// least recently used entry when the table is full.
func (t *mru[K, V]) put(k K, v V) {
	i := 0
	for i < len(t.keys) && t.keys[i] != k {
		i++
	}
	if i == len(t.keys) {
		if len(t.keys) < cap(t.keys) {
			t.keys, t.vals = append(t.keys, k), append(t.vals, v)
		} else {
			i--
		}
	}
	t.keys[i], t.vals[i] = k, v
	t.front(i)
}

// front moves entry i to index 0, shifting the more recent entries back.
func (t *mru[K, V]) front(i int) {
	k, v := t.keys[i], t.vals[i]
	copy(t.keys[1:i+1], t.keys[:i])
	copy(t.vals[1:i+1], t.vals[:i])
	t.keys[0], t.vals[0] = k, v
}

// len returns the number of entries held.
func (t *mru[K, V]) len() int { return len(t.keys) }
