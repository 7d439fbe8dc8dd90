package nn

// shapeMemoSize is how many batch sizes a model's shape memo holds.
// Reuse comes from a plan, sweep or request running one model at one
// batch size many times, so a handful suffices.
const shapeMemoSize = 4

// shapeMemo is an immutable snapshot of a model's latest shape
// inferences, most recent first. owner is the model it was built for:
// a value copy of a Model carries the original's snapshot, and must
// not read shapes that belong to different layers.
type shapeMemo struct {
	owner   *Model
	n       int
	batches [shapeMemoSize]int
	shapes  [shapeMemoSize][]LayerShapes
}

// CachedShapes is Shapes with memoization per (model, batch). The
// returned slice is shared between all callers and must be treated as
// read-only; every consumer in this repository (the partition search,
// the simulator, the training substrate) only reads it. A model must
// not be mutated after its shapes have been cached. Errors are not
// memoized.
//
// The memo lives on the model, so it is freed with it. A hit takes no
// lock; concurrent misses may both infer, and the last snapshot stored
// wins, which is harmless because their shapes are identical.
func (m *Model) CachedShapes(batch int) ([]LayerShapes, error) {
	var prev shapeMemo
	if old := m.memo.Load(); old != nil && old.owner == m {
		for i := range old.n {
			if old.batches[i] == batch {
				return old.shapes[i], nil
			}
		}
		prev = *old
	}
	shapes, err := m.Shapes(batch)
	if err != nil {
		return nil, err
	}
	next := &shapeMemo{owner: m, n: min(prev.n+1, shapeMemoSize)}
	next.batches[0], next.shapes[0] = batch, shapes
	copy(next.batches[1:next.n], prev.batches[:])
	copy(next.shapes[1:next.n], prev.shapes[:])
	m.memo.Store(next)
	return shapes, nil
}
