package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildHypard compiles ./cmd/hypard from the source tree at root into
// dir and returns the binary's path.
func buildHypard(root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "hypard")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hypard")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build hypard: %w", err)
	}
	return bin, nil
}

// daemon is one spawned hypard process.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped
	base   string        // http://host:port
}

// addrWriter takes hypard's stdout and hands over the address from its
// first line, "hypard: listening on 127.0.0.1:PORT (...)". Later output
// is discarded.
type addrWriter struct {
	buf  []byte
	done bool
	addr chan string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	if !w.done {
		w.buf = append(w.buf, p...)
		if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
			w.done = true
			addr := ""
			if f := strings.Fields(strings.TrimPrefix(string(w.buf[:i]), "hypard: listening on ")); len(f) > 0 {
				addr = f[0]
			}
			w.addr <- addr
			w.buf = nil
		}
	}
	return len(p), nil
}

// startDaemon spawns hypard with default flags on an ephemeral port and
// waits until /healthz answers 200.
func startDaemon(bin string) (*daemon, error) {
	aw := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout = aw
	// The daemon must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hypard: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case addr := <-aw.addr:
		d.base = "http://" + addr
	case <-d.exited:
		return nil, fmt.Errorf("hypard exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("hypard printed no listen address within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("hypard at %s not healthy within 30s", d.base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) url() string { return d.base }

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM, kills it if the drain stalls,
// and returns once the process has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// statsz is the subset of hypard's /statsz body the ledger reads.
type statsz struct {
	CacheEntries int `json:"cacheEntries"`
	RawCache     struct {
		Bytes int `json:"bytes"`
	} `json:"rawCache"`
	Sessions   int `json:"sessions"`
	Resilience struct {
		Shed int64 `json:"shed"`
	} `json:"resilience"`
	Endpoints map[string]endpointCounters `json:"endpoints"`
}

type endpointCounters struct {
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	FastHits  int64 `json:"fastHits"`
	CacheHits int64 `json:"cacheHits"`
	Coalesced int64 `json:"coalesced"`
	Computes  int64 `json:"computes"`
	LatencyNs int64 `json:"latencyNs"`
}

func getStatsz(base string) (*statsz, error) {
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s statsz
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decode /statsz: %w", err)
	}
	return &s, nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime reads the process's user+system CPU time from /proc.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// statusMB reads a kB field of /proc/<pid>/status, such as VmHWM (the
// resident-set high-water mark) or VmRSS, in MB.
func statusMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}
