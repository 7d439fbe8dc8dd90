package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's client count: one per core of the 2-core
// host the bounds were set on. Each is a design-space-exploration caller
// that waits for its reply before sending the next request.
const clients = 2

// sample is one stored (request index, response) pair, checked against
// the library after the measured window.
type sample struct {
	i    int
	resp []byte
}

// loadResult is what a closed-loop run observed.
type loadResult struct {
	attempted int
	failed    int // transport errors, non-200 replies and replay mismatches
	latsMs    []float64
	doneAt    []time.Duration // completion time of each latsMs entry, since the loop began
	elapsed   time.Duration
	samples   []sample
	firstErr  string
}

// drive runs the closed loop: each client takes the next request index
// from first on, sends it, reads the whole reply and repeats, until n
// requests were taken (n > 0) or until passes (non-zero). keep selects
// replies to store; want, when non-nil, holds the exact reply each body
// key must get.
func drive(base string, w *workload, first, n int, until time.Time, keep func(i int) bool, want [][]byte) *loadResult {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		total loadResult
		wg    sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One transport per client pins it to one keep-alive connection.
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			cl := &http.Client{Transport: tr, Timeout: time.Minute}
			var r loadResult
			var buf bytes.Buffer
			fail := func(format string, args ...any) {
				r.failed++
				if r.firstErr == "" {
					r.firstErr = fmt.Sprintf(format, args...)
				}
			}
			for {
				if !until.IsZero() && !time.Now().Before(until) {
					break
				}
				j := int(next.Add(1)) - 1
				if n > 0 && j >= n {
					break
				}
				i := first + j
				k := w.key(i)
				path, body := w.request(k)
				r.attempted++
				t0 := time.Now()
				resp, err := cl.Post(base+path, "application/json", bytes.NewReader(body))
				if err != nil {
					fail("request %d: %v", i, err)
					continue
				}
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				lat := time.Since(t0)
				switch {
				case err != nil:
					fail("request %d: read: %v", i, err)
					continue
				case resp.StatusCode != http.StatusOK:
					fail("request %d: status %d: %.200s", i, resp.StatusCode, buf.Bytes())
					continue
				case want != nil && !bytes.Equal(buf.Bytes(), want[k]):
					fail("request %d: reply differs from the set-up reply of body %d", i, k)
					continue
				}
				r.latsMs = append(r.latsMs, float64(lat)/float64(time.Millisecond))
				r.doneAt = append(r.doneAt, t0.Add(lat).Sub(start))
				if keep(i) {
					r.samples = append(r.samples, sample{i: i, resp: bytes.Clone(buf.Bytes())})
				}
			}
			mu.Lock()
			total.attempted += r.attempted
			total.failed += r.failed
			total.latsMs = append(total.latsMs, r.latsMs...)
			total.doneAt = append(total.doneAt, r.doneAt...)
			total.samples = append(total.samples, r.samples...)
			if total.firstErr == "" {
				total.firstErr = r.firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return &total
}

// windowSlices cuts the window into one-second slices (at least one) and
// returns each slice's throughput and median latency. Reporting the
// median slice keeps a few seconds of interference from other tenants of
// the host out of the result.
func (lr *loadResult) windowSlices() (rps, p50 []float64) {
	k := max(int(lr.elapsed/time.Second), 1)
	width := lr.elapsed / time.Duration(k)
	byslice := make([][]float64, k)
	for j, d := range lr.doneAt {
		s := min(int(d/width), k-1)
		byslice[s] = append(byslice[s], lr.latsMs[j])
	}
	for _, lats := range byslice {
		rps = append(rps, float64(len(lats))/width.Seconds())
		p50 = append(p50, median(lats))
	}
	return rps, p50
}
