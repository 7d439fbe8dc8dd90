package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refGraph is an engine-independent task graph description: task i has
// duration dur[i], runs on resource res[i] (-1 = unlimited) and depends
// on every task in deps[i] (all of lower index).
type refGraph struct {
	dur  []float64
	res  []int
	deps [][]int
	nres int
}

// refItem and refHeap are the container/heap ready queue the engine
// used before its typed heap, kept here as the reference scheduler.
type refItem struct {
	task  int
	seq   int
	ready float64
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// schedule is the reference list scheduler: the same FIFO-per-resource
// semantics as Engine.Run, driven by container/heap.
func (g refGraph) schedule() (start, finish []float64) {
	n := len(g.dur)
	succs := make([][]int, n)
	pending := make([]int, n)
	ready := make([]float64, n)
	for i, ds := range g.deps {
		for _, d := range ds {
			succs[d] = append(succs[d], i)
		}
		pending[i] = len(ds)
	}
	free := make([]float64, g.nres)
	start, finish = make([]float64, n), make([]float64, n)
	var h refHeap
	seq := 0
	for i := 0; i < n; i++ {
		if pending[i] == 0 {
			heap.Push(&h, refItem{task: i, seq: seq})
			seq++
		}
	}
	for h.Len() > 0 {
		i := heap.Pop(&h).(refItem).task
		start[i] = ready[i]
		if r := g.res[i]; r >= 0 && free[r] > start[i] {
			start[i] = free[r]
		}
		finish[i] = start[i] + g.dur[i]
		if r := g.res[i]; r >= 0 {
			free[r] = finish[i]
		}
		for _, s := range succs[i] {
			pending[s]--
			if finish[i] > ready[s] {
				ready[s] = finish[i]
			}
			if pending[s] == 0 {
				heap.Push(&h, refItem{task: s, seq: seq, ready: ready[s]})
				seq++
			}
		}
	}
	return start, finish
}

// randomGraph draws a DAG whose durations come from a small set, so
// equal ready times (and the seq tie-break) are common.
func randomGraph(r *rand.Rand) refGraph {
	n := 1 + r.Intn(300)
	g := refGraph{nres: 1 + r.Intn(4)}
	for i := 0; i < n; i++ {
		g.dur = append(g.dur, float64(r.Intn(4)))
		g.res = append(g.res, r.Intn(g.nres+1)-1)
		var deps []int
		for k := r.Intn(4); k > 0 && i > 0; k-- {
			deps = append(deps, r.Intn(i))
		}
		g.deps = append(g.deps, deps)
	}
	return g
}

// build registers g on e (after a Reset) and returns its tasks.
func (g refGraph) build(t *testing.T, e *Engine) []*Task {
	t.Helper()
	e.Reset()
	res := make([]*Resource, g.nres)
	for i := range res {
		res[i] = e.AddResource("r")
	}
	tasks := make([]*Task, len(g.dur))
	for i := range tasks {
		var rp *Resource
		if g.res[i] >= 0 {
			rp = res[g.res[i]]
		}
		deps := make([]*Task, 0, len(g.deps[i]))
		for _, d := range g.deps[i] {
			deps = append(deps, tasks[d])
		}
		var err error
		if tasks[i], err = e.AddTask("", g.dur[i], rp, deps...); err != nil {
			t.Fatal(err)
		}
	}
	return tasks
}

// TestEngineMatchesReferenceHeap checks every task's Start and Finish
// from Engine.Run against the container/heap reference scheduler over
// random task graphs, on one reused engine.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	e := NewEngine()
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(r)
		tasks := g.build(t, e)
		if _, err := e.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		start, finish := g.schedule()
		for i, task := range tasks {
			if task.Start != start[i] || task.Finish != finish[i] {
				t.Fatalf("trial %d task %d: engine [%g, %g], reference [%g, %g]",
					trial, i, task.Start, task.Finish, start[i], finish[i])
			}
		}
	}
}

// TestAllocsEngineRun pins the ready queue: a reused engine's Run on a
// fixed graph allocates nothing after the first run.
func TestAllocsEngineRun(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)))
	e := NewEngine()
	g.build(t, e)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Engine.Run allocates %.1f objects per run, want 0", allocs)
	}
}
