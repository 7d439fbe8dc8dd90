// Package sim provides the event-driven simulator the HyPar evaluation
// runs on (paper §6.1): a discrete-event engine scheduling dependent
// tasks over contended resources, and a training-step builder that
// compiles a model + hierarchical partition + hardware configuration
// into a task graph of per-layer compute, DRAM streaming and per-level
// NoC transfers for the forward, error-backward and gradient phases.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/trace"
)

// ErrSim reports an invalid simulation input or a malformed task graph.
var ErrSim = errors.New("sim: invalid simulation")

// Resource is an exclusive, serially reusable unit (a NoC level's link
// set, the accelerator array's compute). Tasks bound to the same
// resource execute one at a time in ready order.
type Resource struct {
	Name string
	free float64 // time at which the resource next becomes available
	busy float64 // accumulated busy time
}

// NewResource creates a named resource.
func NewResource(name string) *Resource { return &Resource{Name: name} }

// Busy returns the total time the resource spent occupied.
func (r *Resource) Busy() float64 { return r.busy }

// Task is one node of the simulated task graph.
type Task struct {
	ID       string
	Duration float64
	Resource *Resource // nil means unlimited parallelism

	Start  float64
	Finish float64

	succs   []*Task
	npred   int     // immutable dependency count, set by After
	pending int     // unresolved dependency count, consumed by Run
	ready   float64 // max finish time of resolved dependencies
	done    bool
}

// After declares that t cannot start before dep finishes.
func (t *Task) After(dep *Task) *Task {
	if dep == nil {
		return t
	}
	dep.succs = append(dep.succs, t)
	t.npred++
	return t
}

// slabBlock is the fixed allocation unit of the engine's task slab.
// Blocks are never grown past their capacity, so *Task pointers stay
// valid across appends and across Reset/reuse cycles.
const slabBlock = 512

// Engine accumulates tasks and resources and computes the schedule.
// A single Engine can be reused across simulations via Reset, which
// retains the task slab and resource storage to cut allocations; an
// Engine is not safe for concurrent use.
type Engine struct {
	tasks     []*Task
	resources []*Resource

	blocks [][]Task    // task slab: fixed-capacity blocks, stable addresses
	cur    int         // first block with free capacity
	nres   int         // live resources (prefix of resources)
	ready  []readyItem // Run's ready queue, a binary min-heap kept across runs
}

// NewEngine creates an empty engine.
func NewEngine() *Engine { return &Engine{} }

// Reset clears the engine for a new task graph while keeping the task
// slab and resource objects for reuse.
func (e *Engine) Reset() {
	e.tasks = e.tasks[:0]
	for i := range e.blocks {
		e.blocks[i] = e.blocks[i][:0]
	}
	e.cur = 0
	e.nres = 0
}

// newTask allocates a task from the slab.
func (e *Engine) newTask() *Task {
	for e.cur < len(e.blocks) && len(e.blocks[e.cur]) == cap(e.blocks[e.cur]) {
		e.cur++
	}
	if e.cur == len(e.blocks) {
		e.blocks = append(e.blocks, make([]Task, 0, slabBlock))
	}
	b := e.blocks[e.cur]
	e.blocks[e.cur] = b[:len(b)+1]
	t := &e.blocks[e.cur][len(b)]
	// Reused slots keep their succs backing array.
	*t = Task{succs: t.succs[:0]}
	return t
}

// AddResource registers and returns a named resource, reusing storage
// retained by Reset when available.
func (e *Engine) AddResource(name string) *Resource {
	if e.nres < len(e.resources) {
		r := e.resources[e.nres]
		r.Name, r.free, r.busy = name, 0, 0
		e.nres++
		return r
	}
	r := NewResource(name)
	e.resources = append(e.resources, r)
	e.nres = len(e.resources)
	return r
}

// AddTask registers a task with the given duration on the (possibly
// nil) resource, depending on deps. The ID may be empty when no trace
// is collected; it is never interpreted.
func (e *Engine) AddTask(id string, duration float64, res *Resource, deps ...*Task) (*Task, error) {
	if err := checkDuration(id, duration); err != nil {
		return nil, err
	}
	t := e.newTask()
	t.ID, t.Duration, t.Resource = id, duration, res
	for _, d := range deps {
		t.After(d)
	}
	e.tasks = append(e.tasks, t)
	return t, nil
}

// checkDuration rejects a negative, NaN or infinite task duration.
func checkDuration(id string, duration float64) error {
	if duration < 0 || math.IsNaN(duration) || math.IsInf(duration, 0) {
		return fmt.Errorf("%w: task %q has duration %g", ErrSim, id, duration)
	}
	return nil
}

// readyItem is one ready-queue entry. Items order by the task's ready
// time, ties broken by insertion sequence; seq is unique per run, so
// the order is strict and total and every correct heap pops the same
// sequence.
type readyItem struct {
	task *Task
	seq  int
}

func (a readyItem) less(b readyItem) bool {
	if a.task.ready != b.task.ready {
		return a.task.ready < b.task.ready
	}
	return a.seq < b.seq
}

// push adds it to the ready heap (sift-up).
func (e *Engine) push(it readyItem) {
	h := append(e.ready, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.ready = h
}

// pop removes and returns the heap's minimum (sift-down). The heap must
// not be empty.
func (e *Engine) pop() readyItem {
	h := e.ready
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	e.ready = h
	return top
}

// Run schedules every task and returns the makespan. Tasks bound to a
// resource are served in ready order (FIFO per resource); independent
// tasks overlap freely. Run fails on dependency cycles.
//
// Run is reentrant: it rebuilds all scheduling state (pending counts,
// ready times, resource availability) from the declared graph, so a
// second Run on the same engine reproduces the first run's schedule
// instead of silently consuming stale state.
func (e *Engine) Run() (float64, error) {
	for i := 0; i < e.nres; i++ {
		r := e.resources[i]
		r.free, r.busy = 0, 0
	}
	e.ready = e.ready[:0]
	seq := 0
	for _, t := range e.tasks {
		t.done = false
		t.pending = t.npred
		t.ready = 0
		t.Start, t.Finish = 0, 0
	}
	for _, t := range e.tasks {
		if t.pending == 0 {
			e.push(readyItem{task: t, seq: seq})
			seq++
		}
	}
	var makespan float64
	scheduled := 0
	for len(e.ready) > 0 {
		t := e.pop().task
		t.Start = t.ready
		if t.Resource != nil && t.Resource.free > t.Start {
			t.Start = t.Resource.free
		}
		t.Finish = t.Start + t.Duration
		if t.Resource != nil {
			t.Resource.free = t.Finish
			t.Resource.busy += t.Duration
		}
		t.done = true
		scheduled++
		if t.Finish > makespan {
			makespan = t.Finish
		}
		for _, s := range t.succs {
			s.pending--
			if t.Finish > s.ready {
				s.ready = t.Finish
			}
			if s.pending == 0 {
				e.push(readyItem{task: s, seq: seq})
				seq++
			}
		}
	}
	if scheduled != len(e.tasks) {
		return 0, fmt.Errorf("%w: %d of %d tasks never became ready (dependency cycle)",
			ErrSim, len(e.tasks)-scheduled, len(e.tasks))
	}
	return makespan, nil
}

// NumTasks returns the number of registered tasks.
func (e *Engine) NumTasks() int { return len(e.tasks) }

// TraceRecords exports the scheduled tasks as trace records (call
// after Run).
func (e *Engine) TraceRecords() []trace.Record {
	recs := make([]trace.Record, 0, len(e.tasks))
	for _, t := range e.tasks {
		res := ""
		if t.Resource != nil {
			res = t.Resource.Name
		}
		recs = append(recs, trace.Record{
			Name: t.ID, Resource: res, Start: t.Start, Finish: t.Finish,
		})
	}
	return recs
}
