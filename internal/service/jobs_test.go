package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// submitJob POSTs a job and returns its initial status.
func submitJob(t *testing.T, url, body string) jobStatusJSON {
	t.Helper()
	code, b := postJSON(t, url+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("job submit: status %d: %s", code, b)
	}
	var st jobStatusJSON
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("job submit body %q: %v", b, err)
	}
	return st
}

// getJSON GETs a URL and decodes the JSON body into v.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("decode %q: %v", b, err)
		}
	}
	return resp.StatusCode
}

// waitJob polls the job until it leaves the running state.
func waitJob(t *testing.T, url, id string) jobStatusJSON {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st jobStatusJSON
		if code := getJSON(t, url+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("job status: %d", code)
		}
		if st.Status != jobStateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 60s: %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobLifecycle submits a sweep job, watches it complete, and
// proves the result replays byte-identical to the synchronous
// /v1/explore stream for the same request.
func TestJobLifecycle(t *testing.T) {
	_, ts, computes := newTestServer(t)
	body := `{"zoo":"Lenet-c","free":[{"level":0,"layer":0},{"level":0,"layer":1},{"level":3,"layer":2}]}`

	st := submitJob(t, ts.URL, body)
	if st.ID == "" || st.Points != 8 {
		t.Fatalf("initial status: %+v", st)
	}
	fin := waitJob(t, ts.URL, st.ID)
	if fin.Status != jobStateDone || fin.Done != 8 || fin.Result == "" {
		t.Fatalf("final status: %+v", fin)
	}

	resp, err := http.Get(ts.URL + fin.Result)
	if err != nil {
		t.Fatal(err)
	}
	jobBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, jobBytes)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("result content type %q", ct)
	}

	// The synchronous endpoint replays the job's cached bytes — one
	// computation total, byte-identical surfaces.
	code, direct := postJSON(t, ts.URL+"/v1/explore", body)
	if code != http.StatusOK {
		t.Fatalf("explore status %d", code)
	}
	if !bytes.Equal(jobBytes, direct) {
		t.Errorf("job result differs from /v1/explore:\njob:    %q\ndirect: %q", jobBytes, direct)
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("computes=%d, want 1 (job and explore share the cache)", got)
	}
}

// TestJobValidation proves bad submissions fail synchronously.
func TestJobValidation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for name, body := range map[string]string{
		"no model":     `{}`,
		"bad strategy": `{"zoo":"SFC","strategy":"dp"}`,
		"bad free":     `{"zoo":"SFC","free":[{"level":9,"layer":0}]}`,
	} {
		if code, b := postJSON(t, ts.URL+"/v1/jobs", body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", name, code, b)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/j999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d", code)
	}
}

// TestJobResultBeforeDone proves /result answers 409 while running.
func TestJobResultBeforeDone(t *testing.T) {
	_, ts, _ := newTestServer(t)
	// 2^8 = 256 VGG-A points: slow enough to observe the running state.
	st := submitJob(t, ts.URL, `{"zoo":"VGG-A"}`)
	code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil)
	if code != http.StatusConflict && code != http.StatusOK {
		t.Errorf("result while running: status %d", code)
	}
	waitJob(t, ts.URL, st.ID)
}

// gatedServer builds a server whose computations block until the
// returned release func is called — the deterministic way to observe
// jobs in the running state regardless of machine speed.
func gatedServer(t *testing.T, jobEntries int) (*httptest.Server, func()) {
	t.Helper()
	gate := make(chan struct{})
	srv, err := New(Options{
		JobEntries: jobEntries,
		OnCompute:  func(string, string) { <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		ts.Close()
	})
	return ts, release
}

// TestJobCancel proves DELETE interrupts a running sweep and the job
// lands in the canceled state. The compute gate holds the sweep open
// until the cancel has landed, so the outcome is deterministic.
func TestJobCancel(t *testing.T) {
	ts, release := gatedServer(t, 4)
	st := submitJob(t, ts.URL, `{"zoo":"VGG-E"}`)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelBody struct {
		ID      string `json:"id"`
		Status  string `json:"status"`
		Removed bool   `json:"removed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cancelBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cancelBody.Removed {
		t.Fatalf("cancel of a running job: status %d, body %+v", resp.StatusCode, cancelBody)
	}

	release()
	fin := waitJob(t, ts.URL, st.ID)
	if fin.Status != jobStateCanceled {
		t.Fatalf("canceled job landed in %q", fin.Status)
	}
	// A canceled job has no result.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil); code != http.StatusConflict {
		t.Errorf("result of canceled job: status %d", code)
	}
}

// TestJobTableEviction proves finished jobs are evicted in submission
// order to admit new ones.
func TestJobTableEviction(t *testing.T) {
	srv, err := New(Options{JobEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two tiny jobs fill the table; both finish quickly.
	a := submitJob(t, ts.URL, `{"zoo":"SFC","free":[{"level":0,"layer":0}]}`)
	b := submitJob(t, ts.URL, `{"zoo":"SFC","free":[{"level":1,"layer":0}]}`)
	waitJob(t, ts.URL, a.ID)
	waitJob(t, ts.URL, b.ID)

	// A third submission evicts the oldest finished job (a).
	c := submitJob(t, ts.URL, `{"zoo":"SFC","free":[{"level":2,"layer":0}]}`)
	if code := getJSON(t, ts.URL+"/v1/jobs/"+a.ID, nil); code != http.StatusNotFound {
		t.Errorf("oldest finished job not evicted: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+b.ID, nil); code != http.StatusOK {
		t.Errorf("younger finished job evicted early: status %d", code)
	}
	waitJob(t, ts.URL, c.ID)
}

// TestJobTableFullRefusal proves a table full of running jobs refuses
// new submissions instead of evicting live work.
func TestJobTableFullRefusal(t *testing.T) {
	ts, release := gatedServer(t, 2)
	a := submitJob(t, ts.URL, `{"zoo":"VGG-D"}`)
	b := submitJob(t, ts.URL, `{"zoo":"VGG-E"}`)
	code, body := postJSON(t, ts.URL+"/v1/jobs", `{"zoo":"SFC","free":[{"level":3,"layer":0}]}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("submission into a full running table: status %d: %s", code, body)
	}
	release()
	waitJob(t, ts.URL, a.ID)
	waitJob(t, ts.URL, b.ID)
}

// TestJobList proves GET /v1/jobs lists tracked jobs in order.
func TestJobList(t *testing.T) {
	_, ts, _ := newTestServer(t)
	a := submitJob(t, ts.URL, `{"zoo":"SFC","free":[{"level":0,"layer":0}]}`)
	b := submitJob(t, ts.URL, `{"zoo":"SCONV","free":[{"level":0,"layer":0}]}`)
	waitJob(t, ts.URL, a.ID)
	waitJob(t, ts.URL, b.ID)
	var out struct {
		Jobs []jobStatusJSON `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &out); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(out.Jobs) != 2 || out.Jobs[0].ID != a.ID || out.Jobs[1].ID != b.ID {
		t.Errorf("job list: %+v", out.Jobs)
	}
	if !strings.HasPrefix(out.Jobs[0].Model, "SFC") {
		t.Errorf("job model: %+v", out.Jobs[0])
	}
}

// TestJobCancelDoesNotPoisonFollowers is the coalescing-poisoning
// regression test: canceling an async job whose computation other
// consumers coalesced onto must not fail those consumers. A
// synchronous /v1/explore follower retries (becoming the new leader)
// and answers 200 with the full stream; a second job for the same
// sweep likewise completes done instead of being mislabeled canceled.
// The compute gate holds the canceled leader open until the followers
// have coalesced and the cancel has landed; if scheduling ever lets a
// follower slip past the poisoned flight, the test degrades to the
// plain success path rather than flaking.
func TestJobCancelDoesNotPoisonFollowers(t *testing.T) {
	ts, release := gatedServer(t, 4)
	body := `{"zoo":"VGG-A"}`

	// Job 1 becomes the flight leader and blocks at the compute gate.
	j1 := submitJob(t, ts.URL, body)
	// Job 2 and a synchronous explore coalesce onto job 1's flight.
	j2 := submitJob(t, ts.URL, body)
	exploreDone := make(chan error, 1)
	var exploreBody []byte
	go func() {
		resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
		if err != nil {
			exploreDone <- err
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, b)
		}
		exploreBody = b
		exploreDone <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the followers coalesce

	// Cancel the leader job, then release the gate: the leader dies of
	// context.Canceled with followers attached.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j1.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	release()

	if err := <-exploreDone; err != nil {
		t.Errorf("explore follower failed after unrelated job cancel: %v", err)
	} else if !strings.Contains(string(exploreBody), `"type":"summary"`) {
		t.Errorf("explore follower stream truncated: %q", exploreBody)
	}
	fin2 := waitJob(t, ts.URL, j2.ID)
	if fin2.Status != jobStateDone {
		t.Errorf("follower job landed in %q, want done (it was never canceled)", fin2.Status)
	}
	fin1 := waitJob(t, ts.URL, j1.ID)
	if fin1.Status != jobStateCanceled && fin1.Status != jobStateDone {
		t.Errorf("canceled leader landed in %q", fin1.Status)
	}
}

// TestJobProgressPerBlock feeds a 1,024-point sweep's teed blocks to a
// job the way runJob does. The first block is the header line alone,
// every block but the last holds at least teeBlock bytes of whole
// lines, the blocks add up to the body, and after each block the job's
// done count equals the point lines teed so far, reaching the sweep's
// points only with the last block.
func TestJobProgressPerBlock(t *testing.T) {
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var req request
	if err := json.Unmarshal([]byte(`{"zoo":"VGG-A","free":[`+freeVars(10)+`]}`), &req); err != nil {
		t.Fatal(err)
	}
	p, err := srv.resolveRequest(req, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := finishExploreParse(p); err != nil {
		t.Fatal(err)
	}
	j := &job{points: 1 << uint(len(p.free))}
	var blocks [][]byte
	var done []int
	resp, err := srv.exploreBody(context.Background(), p, func(b []byte) {
		blocks = append(blocks, append([]byte(nil), b...))
		j.add(bytes.Count(b, pointLinePrefix))
		done = append(done, j.status().Done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 3 {
		t.Fatalf("%d blocks, want the header, at least one 64 KiB point block and the rest", len(blocks))
	}
	if !bytes.HasPrefix(blocks[0], []byte(`{"type":"header"`)) || bytes.Count(blocks[0], []byte("\n")) != 1 {
		t.Errorf("first block is not the header line alone: %q", blocks[0])
	}
	teed := 0
	for i, b := range blocks {
		if !bytes.HasSuffix(b, []byte("\n")) {
			t.Errorf("block %d does not end a line", i)
		}
		if i > 0 && i < len(blocks)-1 && len(b) < teeBlock {
			t.Errorf("block %d holds %d bytes, want >= %d", i, len(b), teeBlock)
		}
		for _, line := range bytes.SplitAfter(b, []byte("\n")) {
			if bytes.HasPrefix(line, pointLinePrefix) {
				teed++
			}
		}
		if done[i] != teed {
			t.Errorf("block %d: done %d, want the %d point lines teed so far", i, done[i], teed)
		}
	}
	if got := bytes.Join(blocks, nil); !bytes.Equal(got, resp.body) {
		t.Error("the teed blocks differ from the body")
	}
	if last := len(done) - 1; done[last] != j.points || done[last-1] >= j.points {
		t.Errorf("done per block %v, want %d reached only at the last block", done, j.points)
	}
}

// TestJobProgressMonotone polls a running 1,024-point job: its done
// count never falls and ends at its points.
func TestJobProgressMonotone(t *testing.T) {
	_, ts, _ := newTestServer(t)
	st := submitJob(t, ts.URL, `{"zoo":"VGG-A","free":[`+freeVars(10)+`]}`)
	prev := 0
	for {
		var cur jobStatusJSON
		if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &cur); code != http.StatusOK {
			t.Fatalf("job status: %d", code)
		}
		if cur.Done < prev || cur.Done > cur.Points {
			t.Fatalf("done %d after %d, of %d points", cur.Done, prev, cur.Points)
		}
		prev = cur.Done
		if cur.Status != jobStateRunning {
			if cur.Status != jobStateDone || cur.Done != cur.Points || cur.Points != 1024 {
				t.Fatalf("final status %+v", cur)
			}
			return
		}
	}
}
