package main

import "fmt"

// workload is one traffic mix. Request index i asks for the distinct
// body key(i); warm-up sends indices warmBase..warmBase+warmN-1, the
// measured window 0, 1, 2, …, and the traced pass 0..traced-1.
type workload struct {
	name   string
	key    func(i int) int
	item   func(k int) item
	warmN  int
	traced int
	// replay marks a workload whose every reply must equal, byte for
	// byte, the reply its body got during set-up.
	replay bool
	// paths and bodies hold the pre-rendered bodies of a bounded key
	// space, so the clients do not re-render them per request.
	paths  []string
	bodies [][]byte
}

var workloadNames = []string{"evaluate-cold", "evaluate-hot", "mixed-zipf", "explore-sweep"}

func newWorkload(name string, seed int64) (*workload, error) {
	identity := func(i int) int { return i }
	var w *workload
	switch name {
	case "evaluate-cold":
		// Every body is new: each request pays the full miss path.
		w = &workload{name: name, key: identity, warmN: 2000, traced: 2000,
			item: func(k int) item { return coldItem(seed, k, "evaluate") }}
	case "evaluate-hot":
		// 256 bodies, all answered once in set-up: every timed request is
		// a raw-bytes fast-path hit.
		w = &workload{name: name, warmN: hotSet, traced: hotSet, replay: true,
			key:  func(i int) int { return i % hotSet },
			item: func(k int) item { return hotItem(seed, k) }}
		w.render(hotSet)
	case "mixed-zipf":
		// Zipf-ranked reads and misses over a working set larger than
		// both cache tiers.
		w = &workload{name: name, warmN: zipfWarm, traced: 2000,
			key:  func(i int) int { return zipfRank(seed, i) },
			item: func(k int) item { return zipfItem(seed, k) }}
		w.render(zipfKeys)
	case "explore-sweep":
		// Distinct 256-point sweeps: long requests dominated by the
		// experiments session, the runner pool and the simulator.
		w = &workload{name: name, key: identity, warmN: 20, traced: 40,
			item: func(k int) item { return exploreItem(seed, k) }}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
	}
	return w, nil
}

// zipfWarm is the mixed-zipf warm-up length: enough requests of the
// stream to fill both cache tiers before the window opens.
const zipfWarm = 20000

func (w *workload) render(n int) {
	w.paths = make([]string, n)
	w.bodies = make([][]byte, n)
	for k := range w.bodies {
		it := w.item(k)
		w.paths[k], w.bodies[k] = it.path(), it.body()
	}
}

// request returns the path and body of distinct body k.
func (w *workload) request(k int) (string, []byte) {
	if w.bodies != nil {
		return w.paths[k], w.bodies[k]
	}
	it := w.item(k)
	return it.path(), it.body()
}
