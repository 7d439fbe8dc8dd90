package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/partition"
)

// marshalPoint is the reference rendering of a point line:
// json.Marshal of explorePointJSON with DefaultExploreLabel's map.
func marshalPoint(free []partition.FreeVar, code int, gain float64, isHyPar bool) ([]byte, error) {
	b, err := json.Marshal(explorePointJSON{
		Type: "point", Code: code, Labels: experiments.DefaultExploreLabel(free)(code),
		Gain: gain, IsHyPar: isHyPar,
	})
	return append(b, '\n'), err
}

// TestExplorePointLineMatchesJSON proves the point encoder is
// byte-identical to json.Marshal across codes up to 2^12-1, gains on
// both sides of encoding/json's exponent cutoffs, and label keys that
// sort differently as strings than as numbers (layer >= 10, level >= 1).
func TestExplorePointLineMatchesJSON(t *testing.T) {
	frees := [][]partition.FreeVar{
		nil,
		{{Level: 0, Layer: 0}},
		{{Level: 0, Layer: 10}, {Level: 0, Layer: 2}, {Level: 3, Layer: 7}},
		{{Level: 1, Layer: 1}, {Level: 0, Layer: 11}, {Level: 12, Layer: 3}, {Level: 2, Layer: 0}, {Level: 0, Layer: 1}},
	}
	wide := make([]partition.FreeVar, 0, MaxFreeVars)
	for i := 0; i < MaxFreeVars; i++ {
		wide = append(wide, partition.FreeVar{Level: i % 4, Layer: 13 - i})
	}
	frees = append(frees, wide)
	gains := []float64{
		1e-7, 5e-324, 1e21, 0.1, 123456789.125,
		0, 1, 1.7090589550140778, 1e-6, 9.99999e-7, 1.5e-10, 1e-300, 9.999999999999999e20,
		2.5e25, -3.75, -1e-8, math.MaxFloat64, math.SmallestNonzeroFloat64 * 3,
	}
	for _, free := range frees {
		enc := newPointEncoder(free)
		points := 1 << uint(len(free))
		codes := []int{0, points - 1, points / 2, points/3 + 1}
		for _, code := range codes {
			for gi, gain := range gains {
				isHyPar := gi%2 == 0
				want, err := marshalPoint(free, code, gain, isHyPar)
				if err != nil {
					t.Fatal(err)
				}
				got, err := enc.appendPoint(nil, code, gain, isHyPar)
				if err != nil {
					t.Fatalf("free %v code %d gain %g: %v", free, code, gain, err)
				}
				got = append(got, '\n')
				if !bytes.Equal(got, want) {
					t.Errorf("free %v code %d gain %g:\n got %s\nwant %s", free, code, gain, got, want)
				}
				if len(got)-1 > enc.maxPoint {
					t.Errorf("free %v code %d gain %g: %d-byte point exceeds the %d-byte bound", free, code, gain, len(got)-1, enc.maxPoint)
				}
			}
		}
	}
	if null, _ := json.Marshal(explorePointJSON{Type: "point"}); string(null) != nullPoint {
		t.Errorf("nullPoint = %s, json.Marshal gives %s", nullPoint, null)
	}
}

// TestExplorePointNonFinite keeps a non-finite gain a sweep failure:
// the encoder refuses it with the error json.Marshal reports and
// leaves the buffer untouched.
func TestExplorePointNonFinite(t *testing.T) {
	free := []partition.FreeVar{{Level: 0, Layer: 0}, {Level: 1, Layer: 2}}
	enc := newPointEncoder(free)
	for _, gain := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, wantErr := marshalPoint(free, 1, gain, false)
		if wantErr == nil {
			t.Fatalf("json.Marshal accepted gain %g", gain)
		}
		buf := []byte("prefix")
		got, err := enc.appendPoint(buf, 1, gain, false)
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("gain %g: err = %v, want %v", gain, err, wantErr)
		}
		if string(got) != "prefix" {
			t.Errorf("gain %g: buffer changed to %q", gain, got)
		}
	}
}

// TestAllocsExplorePointLine pins the point encoder at zero
// allocations once its buffer has grown.
func TestAllocsExplorePointLine(t *testing.T) {
	enc := newPointEncoder([]partition.FreeVar{{Level: 0, Layer: 10}, {Level: 0, Layer: 2}, {Level: 3, Layer: 7}})
	buf := make([]byte, 0, 4*enc.maxPoint)
	code := 0
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = enc.appendPoint(buf[:0], code&7, 1.7942983395001166, code&1 == 1); err != nil {
			t.Fatal(err)
		}
		buf = append(buf, '\n')
		code++
	})
	if allocs != 0 {
		t.Errorf("appending a point line allocates %.1f objects, want 0", allocs)
	}
}

// explorePins are the SHA-256 digests and lengths of two /v1/explore
// bodies under New(Options{}): the default Lenet-c sweep and a VGG-A
// sweep whose label keys sort "L0.10" before "L0.2".
var explorePins = []struct {
	body, sha string
	n         int
}{
	{`{"zoo":"Lenet-c"}`, "0a8c997d1ab6bbd9202ebf874db812b07273ec2c64e3f5652bbf7b2c0dbc2b04", 2405},
	{`{"zoo":"VGG-A","free":[{"level":0,"layer":10},{"level":0,"layer":2},{"level":3,"layer":7}]}`,
		"21f1df47b5ca1c46a18aa582e5ab17cb48877767b4598ec807e75f0592427f1d", 1310},
}

// TestExploreBodyPins pins the sweep bytes on both surfaces that serve
// them: the /v1/explore stream and a finished job's result.
func TestExploreBodyPins(t *testing.T) {
	check := func(what string, b []byte, sha string, n int) {
		t.Helper()
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != sha || len(b) != n {
			t.Errorf("%s: %d bytes sha256 %s, want %d bytes %s", what, len(b), got, n, sha)
		}
	}
	for _, pin := range explorePins {
		// Fresh servers: each surface computes the sweep itself rather
		// than replaying the other's cache entry.
		srv, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := newServerFor(t, srv)
		code, b := postJSON(t, ts.URL+"/v1/explore", pin.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", pin.body, code, b)
		}
		check("/v1/explore "+pin.body, b, pin.sha, pin.n)

		srv, err = New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts = newServerFor(t, srv)
		st := submitJob(t, ts.URL, pin.body)
		if fin := waitJob(t, ts.URL, st.ID); fin.Status != jobStateDone {
			t.Fatalf("%s: job ended %+v", pin.body, fin)
		}
		code, b = getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("%s: job result status %d: %s", pin.body, code, b)
		}
		check("/v1/jobs result "+pin.body, b, pin.sha, pin.n)
	}
}

// TestExploreDuplicateFreeRejected: a repeated (level, layer) cell is a
// 400 on both sweep endpoints, while two distinct cells are accepted.
func TestExploreDuplicateFreeRejected(t *testing.T) {
	_, ts, computes := newTestServer(t)
	dup := `{"zoo":"Lenet-c","free":[{"level":0,"layer":0},{"level":0,"layer":0}]}`
	for _, ep := range []string{"/v1/explore", "/v1/jobs"} {
		if code, b := postJSON(t, ts.URL+ep, dup); code != http.StatusBadRequest {
			t.Errorf("%s duplicate free: status %d, want 400: %s", ep, code, b)
		}
	}
	if n := computes.Load(); n != 0 {
		t.Errorf("duplicate free reached compute %d times", n)
	}
	distinct := `{"zoo":"Lenet-c","free":[{"level":0,"layer":0},{"level":1,"layer":0}]}`
	if code, b := postJSON(t, ts.URL+"/v1/explore", distinct); code != http.StatusOK {
		t.Errorf("/v1/explore distinct free: status %d: %s", code, b)
	}
	st := submitJob(t, ts.URL, distinct)
	if fin := waitJob(t, ts.URL, st.ID); fin.Status != jobStateDone {
		t.Errorf("/v1/jobs distinct free: job ended %+v", fin)
	}
}

// TestExploreFaultConfig: with faults the sweep's base plan covers only
// the surviving sub-array, so a free level at or below its depth, or a
// config that leaves no sub-array at all, is a 400 before any compute
// on both sweep endpoints — not a panicked stream or a failed job.
func TestExploreFaultConfig(t *testing.T) {
	_, ts, computes := newTestServer(t)
	for _, body := range []string{
		// 16 accelerators minus two failed level-1 groups of 4 leave 8:
		// a 3-level base plan, so level 3 does not exist.
		`{"zoo":"Lenet-c","config":{"faults":{"level":1,"groups":2}},"free":[{"level":3,"layer":0}]}`,
		// One of two accelerators failed: depth 0, and the default free
		// cell sits at level 0.
		`{"zoo":"Lenet-c","config":{"levels":1,"faults":{"level":0,"groups":1}}}`,
	} {
		for _, ep := range []string{"/v1/explore", "/v1/jobs"} {
			if code, b := postJSON(t, ts.URL+ep, body); code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400: %s", ep, body, code, b)
			}
		}
	}
	if n := computes.Load(); n != 0 {
		t.Errorf("rejected fault configs reached compute %d times", n)
	}
	ok := `{"zoo":"Lenet-c","config":{"faults":{"level":1,"groups":2}},"free":[{"level":2,"layer":0}]}`
	code, b := postJSON(t, ts.URL+"/v1/explore", ok)
	if code != http.StatusOK {
		t.Fatalf("/v1/explore surviving level: status %d: %s", code, b)
	}
	if n := bytes.Count(b, []byte("\n{\"type\":\"point\"")); n != 2 {
		t.Errorf("/v1/explore surviving level: %d point lines, want 2:\n%s", n, b)
	}
	st := submitJob(t, ts.URL, ok)
	if fin := waitJob(t, ts.URL, st.ID); fin.Status != jobStateDone {
		t.Errorf("/v1/jobs surviving level: job ended %+v", fin)
	}
}

// TestExploreConcurrentSweeps runs distinct sweeps at once — each
// leader fanning its points out on the shared pool, its workers sharing
// one compiled step program, or for a DAG each filling and simulating
// on its own Simulator — and checks every body against the same sweep
// computed alone. Under -race it shows no Simulator or wiring memo is
// shared across workers and no worker writes a program.
func TestExploreConcurrentSweeps(t *testing.T) {
	bodies := []string{
		`{"zoo":"Lenet-c","free":[{"level":0,"layer":0},{"level":1,"layer":1},{"level":3,"layer":2}]}`,
		`{"zoo":"VGG-A","free":[{"level":0,"layer":10},{"level":0,"layer":2},{"level":3,"layer":7}]}`,
		`{"zoo":"Incep-2","free":[{"level":0,"layer":0},{"level":2,"layer":3}]}`,
		`{"zoo":"SRES-8","free":[{"level":1,"layer":1},{"level":0,"layer":4}],"config":{"batch":64}}`,
		`{"zoo":"AlexNet","free":[{"level":0,"layer":5},{"level":0,"layer":6},{"level":2,"layer":0}]}`,
	}
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		_, ts, _ := newTestServer(t)
		code, b := postJSON(t, ts.URL+"/v1/explore", body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, code, b)
		}
		want[i] = b
	}
	_, ts, _ := newTestServer(t)
	got := make([][]byte, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, b := postJSON(t, ts.URL+"/v1/explore", body)
			if code != http.StatusOK {
				t.Errorf("%s: status %d: %s", body, code, b)
			}
			got[i] = b
		}()
	}
	wg.Wait()
	for i := range bodies {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: concurrent sweep differs from the sweep run alone", bodies[i])
		}
	}
}

// BenchmarkExploreSweep times exploreBody — the whole miss-path sweep
// past request parsing — and reports its cost per point.
func BenchmarkExploreSweep(b *testing.B) {
	for _, zoo := range []string{"Lenet-c", "VGG-A"} {
		b.Run(zoo, func(b *testing.B) {
			srv, err := New(Options{})
			if err != nil {
				b.Fatal(err)
			}
			p, err := srv.resolveRequest(request{Zoo: zoo}, false, true)
			if err != nil {
				b.Fatal(err)
			}
			if err := finishExploreParse(p); err != nil {
				b.Fatal(err)
			}
			points := 1 << uint(len(p.free))
			if _, err := srv.exploreBody(context.Background(), p, nil); err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.exploreBody(context.Background(), p, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * points)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/point")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/point")
		})
	}
}

// newServerFor serves srv on a test listener closed with the test.
func newServerFor(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// getBody GETs url and returns its status and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// countingListener hands out conns that count their Writes. With a
// gate, each conn's second and later Writes wait until the gate is
// closed, so a test can read what a handler wrote first while the rest
// is held back.
type countingListener struct {
	net.Listener
	gate   chan struct{} // nil: never hold a write
	writes atomic.Int64  // Write calls on every conn
	held   atomic.Int64  // Writes that waited at the gate
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l      *countingListener
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.l.writes.Add(1)
	if c.writes.Add(1) > 1 && c.l.gate != nil {
		c.l.held.Add(1)
		<-c.l.gate
	}
	return c.Conn.Write(b)
}

// newCountingServer serves srv on a countingListener closed with the
// test. A test that passes a gate registers the gate's release with
// t.Cleanup after this call, so held writes are let go before the
// server closes.
func newCountingServer(t *testing.T, srv *Server, gate chan struct{}) (*httptest.Server, *countingListener) {
	t.Helper()
	ts := httptest.NewUnstartedServer(srv.Handler())
	l := &countingListener{Listener: ts.Listener, gate: gate}
	ts.Listener = l
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, l
}

// TestExploreStreamWrites: a 256-point VGG-A sweep (~43 KB) leaves in
// two blocks, the flushed header line and the rest with the summary,
// so it costs a handful of socket writes rather than one per 4 KiB.
func TestExploreStreamWrites(t *testing.T) {
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts, l := newCountingServer(t, srv, nil)
	code, b := postJSON(t, ts.URL+"/v1/explore", `{"zoo":"VGG-A"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	if n := bytes.Count(b, []byte("\n")); n != 258 {
		t.Fatalf("%d lines, want 258", n)
	}
	writes := l.writes.Load()
	t.Logf("%d bytes in %d conn writes", len(b), writes)
	if writes > 5 {
		t.Errorf("a 256-point sweep took %d conn writes, want <= 5", writes)
	}
}

// TestExploreStreamLargeSweep streams a 1,024-point sweep, whose point
// lines (~170 KB) leave in several 64 KiB blocks. The header line is
// readable while every later write is held, so the 200 and the point
// count reach the client before any point block or the summary. The
// streamed body is byte-identical to a follower coalesced onto the
// same flight, to the cache replay and to a job's result.
func TestExploreStreamLargeSweep(t *testing.T) {
	body := `{"zoo":"VGG-A","free":[` + freeVars(10) + `]}`
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	ts, l := newCountingServer(t, srv, gate)
	t.Cleanup(open)
	// A header stuck behind the held writes must fail the test, not
	// hang it.
	var late atomic.Bool
	timer := time.AfterFunc(30*time.Second, func() { late.Store(true); open() })
	defer timer.Stop()

	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("header line: %v", err)
	}
	if late.Load() {
		t.Fatal("the header line arrived only after the held writes were released")
	}
	var header exploreHeaderJSON
	if err := json.Unmarshal(line, &header); err != nil || header.Type != "header" || header.Points != 1024 {
		t.Fatalf("header %q: %v", line, err)
	}
	waitUntil(t, "the first held write", func() bool { return l.held.Load() > 0 })

	// A follower coalesces onto the held flight.
	type reply struct {
		code int
		body []byte
		err  error
	}
	followed := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
		if err != nil {
			followed <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		followed <- reply{resp.StatusCode, b, err}
	}()
	m := srv.metrics["explore"]
	waitUntil(t, "the follower to join the flight", func() bool { return m.coalesced.Load() >= 1 })
	open()

	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	streamed := append(line, rest...)
	if n := bytes.Count(streamed, []byte("\n")); n != 1026 {
		t.Fatalf("streamed %d lines, want 1026", n)
	}
	if !bytes.HasPrefix(streamed[bytes.LastIndexByte(streamed[:len(streamed)-1], '\n')+1:], []byte(summaryHead)) {
		t.Fatal("stream does not end with the summary line")
	}
	f := <-followed
	if f.err != nil || f.code != http.StatusOK || !bytes.Equal(f.body, streamed) {
		t.Errorf("coalesced follower: status %d, %v, identical %v", f.code, f.err, bytes.Equal(f.body, streamed))
	}
	code, replay := postJSON(t, ts.URL+"/v1/explore", body)
	if code != http.StatusOK || !bytes.Equal(replay, streamed) {
		t.Errorf("cache replay: status %d, identical %v", code, bytes.Equal(replay, streamed))
	}
	st := submitJob(t, ts.URL, body)
	if fin := waitJob(t, ts.URL, st.ID); fin.Status != jobStateDone || fin.Done != 1024 {
		t.Fatalf("job ended %+v", fin)
	}
	code, result := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(result, streamed) {
		t.Errorf("job result: status %d, identical %v", code, bytes.Equal(result, streamed))
	}
	if m.computes.Load() != 1 || m.coalesced.Load() != 1 {
		t.Errorf("%d computes and %d coalesced, want 1 and 1", m.computes.Load(), m.coalesced.Load())
	}
}

// waitUntil polls cond until it holds, failing the test after 30 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
