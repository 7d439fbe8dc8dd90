package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	hypar "repro"
	"repro/internal/service"
)

func TestRunList(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	out := b.String()
	for _, want := range []string{"SFC", "SCONV", "VGG-E", "19 weighted layers"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestRunModelPlanOnly(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-model", "Lenet-c", "-plan"}, &b); err != nil {
		t.Fatalf("run -model -plan: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "conv1") || !strings.Contains(out, "fc2") {
		t.Errorf("plan output missing layers:\n%s", out)
	}
	if strings.Contains(out, "step time") {
		t.Error("plan-only output contains simulation results")
	}
}

func TestRunModelSimulate(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-model", "Lenet-c", "-strategy", "dp"}, &b); err != nil {
		t.Fatalf("run -model: %v", err)
	}
	out := b.String()
	for _, want := range []string{"step time", "energy (J)", "accelerators: 16"} {
		if !strings.Contains(out, want) {
			t.Errorf("simulate output missing %q:\n%s", want, out)
		}
	}
}

func TestRunStrategies(t *testing.T) {
	for _, s := range []string{"hypar", "dp", "mp", "trick"} {
		var b strings.Builder
		if err := run([]string{"-model", "SCONV", "-strategy", s, "-plan"}, &b); err != nil {
			t.Errorf("strategy %s: %v", s, err)
		}
	}
	var b strings.Builder
	if err := run([]string{"-model", "SCONV", "-strategy", "zigzag"}, &b); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestRunExperimentSmall(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "fig13"}, &b); err != nil {
		t.Fatalf("run -experiment fig13: %v", err)
	}
	if !strings.Contains(b.String(), "conv5-b32-h2") {
		t.Errorf("fig13 output wrong:\n%s", b.String())
	}
}

func TestRunExperimentCSV(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "fig13", "-csv"}, &b); err != nil {
		t.Fatalf("run -csv: %v", err)
	}
	if !strings.Contains(b.String(), "case,performance,energy-efficiency") {
		t.Errorf("CSV header missing:\n%s", b.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-experiment", "fig99"},
		{"-model", "NotANet"},
		{"-model", "Lenet-c", "-topology", "ring"},
		{"-badflag"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunTorusTopology(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-model", "Lenet-c", "-topology", "torus"}, &b); err != nil {
		t.Fatalf("torus run: %v", err)
	}
	if !strings.Contains(b.String(), "topology: torus") {
		t.Error("torus not reported")
	}
}

func TestRunTraceFlag(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/trace.json"
	var b strings.Builder
	if err := run([]string{"-model", "Lenet-c", "-trace", path}, &b); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
	if !strings.Contains(b.String(), "resource occupancy") {
		t.Error("occupancy table missing")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if !strings.HasPrefix(strings.TrimSpace(string(data)), "[") {
		t.Error("trace file is not a JSON array")
	}
	// An unwritable path fails cleanly.
	if err := run([]string{"-model", "Lenet-c", "-trace", dir + "/nope/x.json"}, &b); err == nil {
		t.Error("unwritable trace path accepted")
	}
}

// TestRunTraceKeepsNumbers: the plan and step tables come from one
// evaluation, so -trace adds its occupancy section and changes nothing
// else. A degraded array whose fastest step is the grouped candidate
// prints that candidate's group plan and step, and refuses -trace, since
// no simulated schedule holds its cross-group allreduce.
func TestRunTraceKeepsNumbers(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	for _, args := range [][]string{
		{"-model", "AlexNet"},
		{"-model", "AlexNet", "-faults", "1:2"},
		{"-model", "Incep-2", "-platforms-per-level", "gpu-hbm,hmc,hmc,hmc"},
	} {
		var plain, traced strings.Builder
		if err := run(args, &plain); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if err := run(append(args, "-trace", path), &traced); err != nil {
			t.Fatalf("%v -trace: %v", args, err)
		}
		out := traced.String()
		start, end := strings.Index(out, "## resource occupancy\n"), strings.Index(out, " tasks)\n\n")
		if start < 0 || end < start {
			t.Fatalf("%v -trace: no occupancy section:\n%s", args, out)
		}
		if got := out[:start] + out[end+len(" tasks)\n\n"):]; got != plain.String() {
			t.Errorf("%v: -trace changed the tables:\n%s\nwithout -trace:\n%s", args, got, plain.String())
		}
	}

	args := []string{"-model", "AlexNet", "-faults", "1:1"}
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	m, err := hypar.ModelByName("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	cfg := hypar.DefaultConfig()
	cfg.Faults = hypar.Faults{Level: 1, Groups: 1}
	res, err := hypar.Run(m, hypar.HyPar, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedGroups == 0 {
		t.Fatal("fault 1:1 no longer evaluates the grouped candidate")
	}
	out := b.String()
	rows := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			rows[f[0]] = f[1]
		}
	}
	for l, layer := range m.Layers {
		if rows[layer.Name] != res.Plan.LayerString(l) {
			t.Errorf("grouped evaluation: %s printed as %q, evaluated as %q", layer.Name, rows[layer.Name], res.Plan.LayerString(l))
		}
	}
	for _, w := range []string{
		fmt.Sprintf("(H1..H%d, 0=dp 1=mp)", res.Plan.NumLevels()),
		fmt.Sprintf("scheduled tasks                   %d\n", res.Stats.Tasks),
		fmt.Sprintf("(%d groups of 4 in data parallel)", res.DegradedGroups),
	} {
		if !strings.Contains(out, w) {
			t.Errorf("grouped evaluation: output lacks %q:\n%s", w, out)
		}
	}
	err = run(append(args, "-trace", path), &b)
	if err == nil || !strings.Contains(err.Error(), "groups in data parallel") {
		t.Errorf("-trace on a grouped step: err %v, want a refusal naming the groups", err)
	}
}

// TestRunRemoteBatch drives the -remote batch client against an
// in-process hypard service: one /v1/batch POST for a comma-separated
// model list, NDJSON result lines in input order.
func TestRunRemoteBatch(t *testing.T) {
	srv, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var b strings.Builder
	if err := run([]string{"-remote", ts.URL, "-model", "Lenet-c, SFC", "-strategy", "hypar"}, &b); err != nil {
		t.Fatalf("run -remote: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 NDJSON lines, got %d:\n%s", len(lines), b.String())
	}
	if !strings.Contains(lines[0], `"model":"Lenet-c"`) || !strings.Contains(lines[1], `"model":"SFC"`) {
		t.Errorf("lines out of order or wrong models:\n%s", b.String())
	}
	for i, l := range lines {
		if !strings.Contains(l, `"stepSeconds"`) {
			t.Errorf("line %d carries no simulation stats: %s", i, l)
		}
	}

	// Plan-only remote mode selects the plan endpoint (no stats).
	var pb strings.Builder
	if err := run([]string{"-remote", ts.URL, "-model", "SFC", "-plan"}, &pb); err != nil {
		t.Fatalf("run -remote -plan: %v", err)
	}
	if strings.Contains(pb.String(), `"stats"`) {
		t.Errorf("plan-only remote output contains stats: %s", pb.String())
	}

	// Errors surface: no models, unreachable daemon.
	if err := run([]string{"-remote", ts.URL}, &pb); err == nil {
		t.Error("-remote without -model accepted")
	}
	if err := run([]string{"-remote", "http://127.0.0.1:1", "-model", "SFC"}, &pb); err == nil {
		t.Error("unreachable daemon did not error")
	}

	// Per-item failures arrive as in-band {"error":...} lines under an
	// HTTP 200; the client must still stream every line AND exit
	// non-zero so scripts see the failure.
	var fb strings.Builder
	err = run([]string{"-remote", ts.URL, "-model", "SFC,NoSuchNet"}, &fb)
	if err == nil {
		t.Error("batch with a failed item exited zero")
	} else if !strings.Contains(err.Error(), "1 of 2") {
		t.Errorf("failure count missing from error: %v", err)
	}
	flines := strings.Split(strings.TrimSpace(fb.String()), "\n")
	if len(flines) != 2 || !strings.Contains(flines[0], `"model":"SFC"`) || !strings.Contains(flines[1], `"error"`) {
		t.Errorf("failed-batch output mangled:\n%s", fb.String())
	}
}
