package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// stream is StreamWith without per-worker state.
func stream[T, R any](p *Pool, items []T, fn func(i int, item T) (R, error), emit func(i int, r R) error) error {
	return StreamWith(p, items, func() struct{} { return struct{}{} },
		func(_ struct{}, i int, item T) (R, error) { return fn(i, item) }, emit)
}

func TestStreamOrderAndResults(t *testing.T) {
	for _, width := range []int{1, 2, 8} {
		items := make([]int, 100)
		for i := range items {
			items[i] = i
		}
		var got []int
		err := stream(New(width), items,
			func(_ int, v int) (int, error) { return v * v, nil },
			func(i int, r int) error {
				if r != i*i {
					return fmt.Errorf("item %d: got %d", i, r)
				}
				got = append(got, i)
				return nil
			})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if len(got) != len(items) {
			t.Fatalf("width %d: emitted %d of %d", width, len(got), len(items))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("width %d: out-of-order emit at %d: %d", width, i, v)
			}
		}
	}
}

func TestStreamEmpty(t *testing.T) {
	err := stream(New(4), nil,
		func(_ int, v int) (int, error) { return v, nil },
		func(int, int) error { t.Fatal("emit on empty input"); return nil })
	if err != nil {
		t.Fatal(err)
	}
}

func TestStreamComputeError(t *testing.T) {
	boom := errors.New("boom")
	for _, width := range []int{1, 4} {
		var emitted atomic.Int64
		err := stream(New(width), []int{0, 1, 2, 3, 4, 5, 6, 7},
			func(_ int, v int) (int, error) {
				if v == 3 {
					return 0, boom
				}
				return v, nil
			},
			func(i int, _ int) error {
				if i >= 3 {
					t.Errorf("width %d: emitted item %d past the failure", width, i)
				}
				emitted.Add(1)
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("width %d: got %v, want boom", width, err)
		}
		if emitted.Load() > 3 {
			t.Errorf("width %d: emitted %d items", width, emitted.Load())
		}
	}
}

func TestStreamEmitErrorCancels(t *testing.T) {
	stop := errors.New("stop")
	for _, width := range []int{1, 4} {
		var computed atomic.Int64
		items := make([]int, 1000)
		err := stream(New(width), items,
			func(_ int, v int) (int, error) {
				computed.Add(1)
				return v, nil
			},
			func(i int, _ int) error {
				if i == 2 {
					return stop
				}
				return nil
			})
		if !errors.Is(err, stop) {
			t.Fatalf("width %d: got %v, want stop", width, err)
		}
		if n := computed.Load(); n == int64(len(items)) {
			t.Errorf("width %d: emit error did not cancel computation (%d items ran)", width, n)
		}
	}
}

func TestStreamWithPerWorkerState(t *testing.T) {
	var built atomic.Int64
	items := make([]int, 64)
	err := StreamWith(New(4), items,
		func() *int { built.Add(1); v := 0; return &v },
		func(s *int, i int, _ int) (int, error) { *s++; return i, nil },
		func(i, r int) error {
			if i != r {
				return fmt.Errorf("item %d got %d", i, r)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if b := built.Load(); b < 1 || b > 4 {
		t.Errorf("built %d states, want 1..4", b)
	}
}
