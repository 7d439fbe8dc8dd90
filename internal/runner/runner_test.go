package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWidthDefaults(t *testing.T) {
	if w := New(0).Width(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0).Width() = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := New(-3).Width(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-3).Width() = %d", w)
	}
	if w := Serial().Width(); w != 1 {
		t.Errorf("Serial().Width() = %d, want 1", w)
	}
	if w := New(7).Width(); w != 7 {
		t.Errorf("New(7).Width() = %d, want 7", w)
	}
	var nilPool *Pool
	if w := nilPool.Width(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("nil pool width = %d", w)
	}
}

func TestSetDefaultWidth(t *testing.T) {
	defer SetDefaultWidth(0)
	SetDefaultWidth(1)
	if w := Default().Width(); w != 1 {
		t.Errorf("Default().Width() = %d after SetDefaultWidth(1)", w)
	}
	SetDefaultWidth(0)
	if w := Default().Width(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Default().Width() = %d after reset", w)
	}
}

func TestMapOrdered(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, width := range []int{1, 2, 8, 64} {
		p := New(width)
		got, err := Map(p, items, func(i, v int) (int, error) { return v * v, nil })
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("width %d: got[%d] = %d, want %d", width, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(New(4), nil, func(i, v int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Errorf("Map(nil) = %v, %v", got, err)
	}
}

func TestFirstErrorWins(t *testing.T) {
	items := make([]int, 200)
	errLow := errors.New("low")
	for _, width := range []int{1, 4, 16} {
		_, err := Map(New(width), items, func(i, v int) (int, error) {
			switch i {
			case 10:
				return 0, errLow
			case 150:
				return 0, errors.New("high")
			}
			return 0, nil
		})
		if err == nil {
			t.Fatalf("width %d: no error", width)
		}
		// With cancellation a later-index error can only win if the
		// low-index item was skipped; here index 10 always runs first
		// at width 1 and is dispatched before 150 at any width.
		if width == 1 && !errors.Is(err, errLow) {
			t.Errorf("width 1: got %v, want %v", err, errLow)
		}
	}
}

// TestCancellationStopsDispatch: an early failure stops the workers
// from claiming the rest. The other items wait until item 0 is failing,
// or a worker preempted before item 0 would let the others run every
// item first.
func TestCancellationStopsDispatch(t *testing.T) {
	var ran atomic.Int64
	var failing atomic.Bool
	n := 10000
	_, err := Map(New(4), make([]int, n), func(i, v int) (int, error) {
		ran.Add(1)
		if i == 0 {
			failing.Store(true)
			return 0, fmt.Errorf("boom")
		}
		return 0, waitFor("item 0's failure", failing.Load)
	})
	if err == nil {
		t.Fatal("no error")
	}
	if got := ran.Load(); got >= int64(n) {
		t.Errorf("all %d items ran despite early error", got)
	}
}

func TestMapWithPerWorkerState(t *testing.T) {
	var created atomic.Int64
	type state struct{ id int64 }
	items := make([]int, 64)
	p := New(4)
	got, err := MapWith(p, items,
		func() *state { return &state{id: created.Add(1)} },
		func(s *state, i, _ int) (int64, error) {
			if s == nil {
				return 0, errors.New("nil state")
			}
			return s.id, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if c := created.Load(); c < 1 || c > 4 {
		t.Errorf("created %d states, want 1..4", c)
	}
	for i, id := range got {
		if id < 1 || id > created.Load() {
			t.Errorf("got[%d] = %d out of range", i, id)
		}
	}
}

func TestChunksCoverRange(t *testing.T) {
	for _, tc := range []struct{ n, width int }{
		{0, 4}, {1, 4}, {256, 4}, {256, 1}, {257, 8}, {10, 100},
	} {
		chunks := Chunks(tc.n, tc.width)
		next := 0
		for _, c := range chunks {
			if c[0] != next || c[1] <= c[0] {
				t.Fatalf("Chunks(%v): bad chunk %v at cursor %d", tc, c, next)
			}
			next = c[1]
		}
		if next != tc.n {
			t.Fatalf("Chunks(%v): covered %d of %d", tc, next, tc.n)
		}
	}
}

// TestMapCtx checks the context-aware fan-out: a nil context behaves
// like Map, a live context completes normally, and a canceled context
// stops dispatch and surfaces the context error.
func TestMapCtx(t *testing.T) {
	items := make([]int, 32)
	double := func(i, _ int) (int, error) { return 2 * i, nil }

	for _, ctx := range []context.Context{nil, context.Background()} {
		got, err := MapCtx(ctx, New(4), items, double)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != 2*i {
				t.Fatalf("ctx=%v: got[%d]=%d", ctx, i, v)
			}
		}
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := MapCtx(canceled, New(4), items, func(i, _ int) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d items ran under a pre-canceled context", ran.Load())
	}

	// Cancellation mid-run stops dispatch without abandoning claimed
	// work: every item either ran fully or never started.
	ctx2, cancel2 := context.WithCancel(context.Background())
	var started atomic.Int64
	_, err = MapCtx(ctx2, New(2), make([]int, 100), func(i, _ int) (int, error) {
		if started.Add(1) == 3 {
			cancel2()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v", err)
	}
	if n := started.Load(); n >= 100 {
		t.Errorf("cancellation did not stop dispatch (%d items ran)", n)
	}
}
