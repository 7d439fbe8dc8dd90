package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// stream is StreamWith over items without per-worker state, computing
// one item per call.
func stream[T, R any](p *Pool, items []T, fn func(i int, item T) (R, error), emit func(i int, r R) error) error {
	return StreamWith(p, len(items), func() struct{} { return struct{}{} },
		func(_ struct{}, lo int, out []R) (int, error) {
			r, err := fn(lo, items[lo])
			if err != nil {
				return 0, err
			}
			out[0] = r
			return 1, nil
		}, emit)
}

// streamWidths are the pool widths the stream tests cover: the inline
// path, two and three workers (ranges that do not divide n evenly) and
// a width larger than many of the inputs.
var streamWidths = []int{1, 2, 3, 8}

// waitFor polls cond until it holds, giving up with an error after 5 s.
// Workers call it, so it reports instead of failing the test.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
	return nil
}

// TestStreamOrderAndResults streams every n in 1..70 at each width, so
// n < width, n below the 4·width ranges Chunks makes, and n that is not
// a multiple of the range length all occur: every item is emitted once,
// in order, with its own result.
func TestStreamOrderAndResults(t *testing.T) {
	for _, width := range streamWidths {
		for n := 1; n <= 70; n++ {
			items := make([]int, n)
			for i := range items {
				items[i] = i
			}
			next := 0
			err := stream(New(width), items,
				func(_ int, v int) (int, error) { return v * v, nil },
				func(i int, r int) error {
					if i != next || r != i*i {
						return fmt.Errorf("emit %d (result %d), want item %d", i, r, next)
					}
					next++
					return nil
				})
			if err != nil {
				t.Fatalf("width %d, n %d: %v", width, n, err)
			}
			if next != n {
				t.Fatalf("width %d, n %d: emitted %d items", width, n, next)
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

// TestStreamComputeError fails one item at the start, middle and end
// of every range. The failing item first waits until every item below
// it has been computed, so no earlier range can be cut short by the
// stop flag: exactly the items before the failure are emitted, in
// order, and its error is returned.
func TestStreamComputeError(t *testing.T) {
	boom := errors.New("boom")
	const n = 70
	for _, width := range streamWidths {
		for _, ch := range Chunks(n, width) {
			for _, fail := range []int{ch[0], (ch[0] + ch[1]) / 2, ch[1] - 1} {
				var below atomic.Int64
				next := 0
				err := stream(New(width), make([]int, n),
					func(i int, _ int) (int, error) {
						if i == fail {
							if err := waitFor("the items below the failure", func() bool { return below.Load() == int64(fail) }); err != nil {
								return 0, err
							}
							return 0, boom
						}
						if i < fail {
							below.Add(1)
						}
						return i, nil
					},
					func(i int, r int) error {
						if i != next || r != i {
							t.Errorf("width %d, fail %d: emit %d (result %d), want item %d", width, fail, i, r, next)
						}
						next++
						return nil
					})
				if !errors.Is(err, boom) {
					t.Fatalf("width %d, fail %d: got %v, want boom", width, fail, err)
				}
				if next != fail {
					t.Errorf("width %d, fail %d: emitted %d items, want the %d before the failure", width, fail, next, fail)
				}
			}
		}
	}
}

// TestStreamLowestErrorWins: when two items fail and both run, the
// lower index's error is reported whichever fails first. Item 5 (range
// 0 of eight-item ranges) waits until item 20 has failed: range 2, which
// the other worker reaches while item 5 runs. Item 20 fails only once
// item 5 has started, or a worker preempted before item 5 would see the
// stop flag and never run it.
func TestStreamLowestErrorWins(t *testing.T) {
	low, high := errors.New("low"), errors.New("high")
	var lowStarted, highFailed atomic.Bool
	err := stream(New(2), make([]int, 64),
		func(i int, _ int) (int, error) {
			switch i {
			case 5:
				lowStarted.Store(true)
				if err := waitFor("item 20's failure", highFailed.Load); err != nil {
					return 0, err
				}
				return 0, low
			case 20:
				if err := waitFor("item 5's start", lowStarted.Load); err != nil {
					return 0, err
				}
				highFailed.Store(true)
				return 0, high
			}
			return i, nil
		},
		func(i int, _ int) error {
			if i >= 5 {
				t.Errorf("emitted item %d past the failure", i)
			}
			return nil
		})
	if !errors.Is(err, low) {
		t.Fatalf("got %v, want the lower index's error", err)
	}
}

// TestStreamStopsMidRange: workers check the stop flag before every
// item, so a failure cuts short a range another worker is computing.
// With ranges of eight items, item 9 (range 1) fails once item 16 has
// started, so the worker that finished range 0 is inside range 2. Item
// 17 returns only after item 8 was emitted, which follows the failure;
// items 18..23 must then never run.
func TestStreamStopsMidRange(t *testing.T) {
	boom := errors.New("boom")
	var started16, emitted8 atomic.Bool
	var ran [64]atomic.Bool
	next := 0
	err := stream(New(2), make([]int, 64),
		func(i int, _ int) (int, error) {
			ran[i].Store(true)
			switch i {
			case 9:
				if err := waitFor("item 16 to start", started16.Load); err != nil {
					return 0, err
				}
				return 0, boom
			case 16:
				started16.Store(true)
			case 17:
				if err := waitFor("item 8's emit", emitted8.Load); err != nil {
					return 0, err
				}
			}
			return i, nil
		},
		func(i int, _ int) error {
			if i != next {
				t.Errorf("emit %d, want item %d", i, next)
			}
			next++
			if i == 8 {
				emitted8.Store(true)
			}
			return nil
		})
	if !errors.Is(err, boom) || next != 9 {
		t.Fatalf("emitted %d items and got %v, want 9 and boom", next, err)
	}
	for i := 18; i < 24; i++ {
		if ran[i].Load() {
			t.Errorf("item %d ran after the stream stopped", i)
		}
	}
}

// TestStreamEmitErrorCancels fails an emit in the middle of the first
// and of a later range: nothing after it is emitted, its error is
// returned, and the window keeps the workers from computing every item.
func TestStreamEmitErrorCancels(t *testing.T) {
	stop := errors.New("stop")
	const n = 1000
	for _, width := range streamWidths {
		chunks := Chunks(n, width)
		for _, c := range []int{0, min(1, len(chunks)-1)} {
			at := (chunks[c][0] + chunks[c][1]) / 2
			var computed atomic.Int64
			next := 0
			err := stream(New(width), make([]int, n),
				func(_ int, v int) (int, error) {
					computed.Add(1)
					return v, nil
				},
				func(i int, _ int) error {
					if i != next {
						t.Errorf("width %d: emit %d, want item %d", width, i, next)
					}
					next++
					if i == at {
						return stop
					}
					return nil
				})
			if !errors.Is(err, stop) {
				t.Fatalf("width %d, emit error at %d: got %v, want stop", width, at, err)
			}
			if next != at+1 {
				t.Errorf("width %d: emitted %d items, want %d", width, next, at+1)
			}
			if got := computed.Load(); got >= n {
				t.Errorf("width %d: emit error did not cancel computation (%d items ran)", width, got)
			}
		}
	}
}

// TestStreamWindow blocks the emit of item 0: the workers compute the
// first 2·width ranges (one item at width 1, which computes and emits
// inline) and no more until the emit returns.
func TestStreamWindow(t *testing.T) {
	const n = 256
	for _, width := range streamWidths {
		want := int64(1)
		if width > 1 {
			chunks := Chunks(n, width)
			want = int64(chunks[min(2*width, len(chunks))-1][1])
		}
		var computed atomic.Int64
		emitted := 0
		err := stream(New(width), make([]int, n),
			func(_ int, v int) (int, error) {
				computed.Add(1)
				return v, nil
			},
			func(i int, _ int) error {
				if i == 0 {
					if err := waitFor("the window to fill", func() bool { return computed.Load() >= want }); err != nil {
						return err
					}
					// Nothing marks a worker's overrun; give one time
					// to show before counting again.
					time.Sleep(20 * time.Millisecond)
					if got := computed.Load(); got != want {
						t.Errorf("width %d: %d items computed while item 0's emit blocked, want the window's %d", width, got, want)
					}
				}
				emitted++
				return nil
			})
		if err != nil || emitted != n {
			t.Fatalf("width %d: emitted %d of %d: %v", width, emitted, n, err)
		}
	}
}

// TestStreamWithPerWorkerState: each worker builds at most one state
// and never shares it, so no more than width states are built and no
// state is in use by two items at once.
func TestStreamWithPerWorkerState(t *testing.T) {
	type state struct{ busy atomic.Bool }
	for _, width := range streamWidths {
		var built atomic.Int64
		err := StreamWith(New(width), 64,
			func() *state { built.Add(1); return &state{} },
			func(s *state, i int, out []int) (int, error) {
				if !s.busy.CompareAndSwap(false, true) {
					return 0, fmt.Errorf("item %d: state in use by another item", i)
				}
				runtime.Gosched()
				s.busy.Store(false)
				out[0] = i
				return 1, nil
			},
			func(i, r int) error {
				if i != r {
					return fmt.Errorf("item %d got %d", i, r)
				}
				return nil
			})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if b := built.Load(); b < 1 || b > int64(width) {
			t.Errorf("width %d: built %d states, want 1..%d", width, b, width)
		}
	}
}

// TestStreamRanged: fn takes its range several items a call — here up
// to three, fewer where its range ends — and every out it is handed
// ends where a range of Chunks does, so a call never computes another
// worker's items. A failure mid-call emits exactly the items before it,
// counted by the call, and returns its error.
func TestStreamRanged(t *testing.T) {
	boom := errors.New("boom")
	const n = 70
	for _, width := range streamWidths {
		ends := map[int]bool{n: true}
		for _, ch := range Chunks(n, width) {
			ends[ch[1]] = true
		}
		for _, fail := range []int{-1, 0, 17, n - 1} {
			var below atomic.Int64
			next := 0
			err := StreamWith(New(width), n, func() struct{} { return struct{}{} },
				func(_ struct{}, lo int, out []int) (int, error) {
					if width > 1 && !ends[lo+len(out)] {
						return 0, fmt.Errorf("items %d..%d end inside a range", lo, lo+len(out))
					}
					k := min(3, len(out))
					for i := range k {
						if lo+i == fail {
							// Let every item below the failure run first, so no
							// earlier range is cut short by the stop flag.
							if err := waitFor("the items below the failure", func() bool { return below.Load() == int64(lo) }); err != nil {
								return i, err
							}
							return i, boom
						}
						out[i] = 2 * (lo + i)
					}
					if lo+k <= fail {
						below.Add(int64(k))
					}
					return k, nil
				},
				func(i, r int) error {
					if i != next || r != 2*i {
						return fmt.Errorf("emit %d (result %d), want item %d", i, r, next)
					}
					next++
					return nil
				})
			want := n
			if fail >= 0 {
				want = fail
				if !errors.Is(err, boom) {
					t.Fatalf("width %d, fail %d: got %v, want boom", width, fail, err)
				}
			} else if err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
			if next != want {
				t.Errorf("width %d, fail %d: emitted %d items, want %d", width, fail, next, want)
			}
		}
	}
}

// spin is a fixed amount of work, about 1 µs on a 2020s x86 core.
func spin(seed int) int {
	x := uint64(seed) | 1
	for i := 0; i < 450; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return int(x)
}

// benchSink keeps the benchmarked work from being optimized away.
var benchSink int

// BenchmarkStreamWith streams 256 items of ~1 µs work each and reports
// the cost per item, hand-off included.
func BenchmarkStreamWith(b *testing.B) {
	items := make([]int, 256)
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			p := New(width)
			for b.Loop() {
				err := stream(p, items,
					func(i int, _ int) (int, error) { return spin(i), nil },
					func(_ int, r int) error { benchSink += r; return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(items)), "ns/item")
		})
	}
}
