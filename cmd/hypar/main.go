// Command hypar plans and simulates hybrid-parallel DNN training on an
// accelerator array, and regenerates every table and figure of the
// HyPar paper's evaluation.
//
// Usage:
//
//	hypar -experiment fig6                # regenerate one figure
//	hypar -experiment all                 # regenerate everything
//	hypar -experiment platforms           # cross-platform comparison
//	hypar -model VGG-A -strategy hypar    # plan + simulate one network
//	hypar -model AlexNet -plan            # print the partition only
//	hypar -model VGG-A -platform gpu-hbm  # simulate on another backend
//	hypar -experiment fig8 -csv           # emit CSV instead of a table
//
// With -remote the CLI turns into a batch client for a running hypard
// daemon: -model takes a comma-separated list, the models are posted
// as one /v1/batch request, and the daemon's NDJSON lines (one JSON
// result per model, in order) stream to stdout:
//
//	hypar -remote http://127.0.0.1:8080 -model VGG-A,AlexNet,Lenet-c
//
// Flags -batch, -levels, -platform, -topology, -link override the paper
// defaults (256, 4, hmc, and the platform's native fabric and link
// rate — htree at 1600 Mb/s for hmc). -platforms lists the registered
// accelerator platforms.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	hypar "repro"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hypar:", err)
		os.Exit(1)
	}
}

// run parses flags and dispatches; split from main for testing.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hypar", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		experiment = fs.String("experiment", "", "regenerate a paper artifact: fig5..fig13, platforms, branched, degraded, hetero, beam, ablations, all")
		model      = fs.String("model", "", "zoo or branched model to plan/simulate (e.g. VGG-A, SRES-8); see -list")
		strategy   = fs.String("strategy", "hypar", "hypar | dp | mp | trick")
		planOnly   = fs.Bool("plan", false, "print the partition without simulating")
		list       = fs.Bool("list", false, "list zoo and branched (DAG) models")
		listPlat   = fs.Bool("platforms", false, "list accelerator platforms")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned text")
		batch      = fs.Int("batch", 256, "mini-batch size")
		levels     = fs.Int("levels", 4, "hierarchy depth H (2^H accelerators)")
		plat       = fs.String("platform", "hmc", "accelerator platform: hmc | gpu-hbm | tpu-systolic")
		platsPer   = fs.String("platforms-per-level", "", `heterogeneous array: platform per hierarchy level, comma-separated root first, e.g. "gpu-hbm,hmc,hmc,hmc" (empty slots inherit -platform)`)
		topology   = fs.String("topology", "", "htree | torus | ideal (default: the platform's native fabric)")
		link       = fs.Float64("link", 0, "NoC link bandwidth, Mb/s (default: the platform's native rate)")
		overlap    = fs.Bool("overlap", false, "overlap gradient communication (ablation)")
		search     = fs.String("search", "", "partition search: hierarchical (exact, default) | brute | beam")
		beamWidth  = fs.Int("beam-width", 0, "beam search width (0 = default 64; only with -search beam)")
		faults     = fs.String("faults", "", `degraded array: failed groups as "level:groups", e.g. 1:2`)
		remote     = fs.String("remote", "", "hypard base URL: evaluate -model (comma-separated list) via the daemon's /v1/batch instead of in-process")
		repeat     = fs.Int("repeat", 1, "with -remote: post the identical batch N times (later rounds replay the daemon's raw-bytes fast path; per-round timings on stderr)")
		traceFile  = fs.String("trace", "", "write a Chrome trace of the simulated step to this file")
		parallel   = fs.Bool("parallel", true, "fan experiment sweeps out over all CPUs")
		workers    = fs.Int("workers", 0, "worker pool width (0 = GOMAXPROCS; implies -parallel)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The evaluation harness fans out on the default runner pool;
	// -parallel=false pins it to one worker (the serial reference
	// path). Both widths produce bit-identical tables.
	switch {
	case *workers > 0:
		runner.SetDefaultWidth(*workers)
	case !*parallel:
		runner.SetDefaultWidth(1)
	default:
		runner.SetDefaultWidth(0)
	}

	cfg := hypar.Config{
		Batch: *batch, Levels: *levels, Platform: *plat, Topology: *topology,
		LinkMbps: *link, OverlapGradComm: *overlap,
		SearchMethod: *search, BeamWidth: *beamWidth,
	}
	if *platsPer != "" {
		spec, err := hypar.ParsePlatformSpec(*platsPer)
		if err != nil {
			return err
		}
		cfg.Platforms = spec
	}
	if *faults != "" {
		f, err := hypar.ParseFaults(*faults)
		if err != nil {
			return err
		}
		cfg.Faults = f
	}
	// Resolve the platform's native topology/link defaults up front so
	// every printout shows the explicit configuration.
	cfg = cfg.Canonical()
	emit := func(t *report.Table) error {
		if *csv {
			return t.WriteCSV(w)
		}
		if err := t.WriteText(w); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	}

	switch {
	case *list:
		for _, m := range hypar.Zoo() {
			fmt.Fprintf(w, "%-10s %2d weighted layers, input %dx%dx%d\n",
				m.Name, m.NumWeighted(), m.Input.H, m.Input.W, m.Input.C)
		}
		for _, m := range hypar.BranchedZoo() {
			skips, err := m.SkipEdges()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-10s %2d weighted layers, input %dx%dx%d (DAG, %d skip edges)\n",
				m.Name, m.NumWeighted(), m.Input.H, m.Input.W, m.Input.C, skips)
		}
		return nil
	case *listPlat:
		for _, name := range hypar.Platforms() {
			p, err := hypar.PlatformByName(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-13s %s (topologies: %v, link %g Mb/s)\n",
				name, p.Describe(), p.Topologies(), p.DefaultLinkMbps())
		}
		return nil
	case *remote != "":
		return runRemote(*remote, *model, *strategy, *planOnly, *repeat, cfg, w)
	case *experiment != "":
		return runExperiments(strings.ToLower(*experiment), cfg, emit)
	case *model != "":
		return runModel(*model, *strategy, *planOnly, *traceFile, cfg, emit, w)
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -experiment, -model or -list")
	}
}

// runRemote is the batch client mode: it posts every named model as
// one /v1/batch request to a running hypard daemon and streams the
// NDJSON result lines (one per model, in input order) to w. planOnly
// selects the "plan" endpoint per item; otherwise items evaluate. The
// config flags ride along as each item's explicit config override.
func runRemote(base, models, strategyName string, planOnly bool, repeat int, cfg hypar.Config, w io.Writer) error {
	if models == "" {
		return fmt.Errorf("-remote needs -model (a comma-separated list of zoo models)")
	}
	endpoint := "evaluate"
	if planOnly {
		endpoint = "plan"
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	type item struct {
		Endpoint string          `json:"endpoint"`
		Zoo      string          `json:"zoo"`
		Strategy string          `json:"strategy"`
		Config   json.RawMessage `json:"config"`
	}
	var items []item
	for _, name := range strings.Split(models, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		items = append(items, item{Endpoint: endpoint, Zoo: name, Strategy: strategyName, Config: cfgJSON})
	}
	if len(items) == 0 {
		return fmt.Errorf("-remote: no models named in %q", models)
	}
	body, err := json.Marshal(struct {
		Items []item `json:"items"`
	}{Items: items})
	if err != nil {
		return err
	}
	if repeat < 1 {
		repeat = 1
	}
	url := strings.TrimRight(base, "/") + "/v1/batch"
	// With -repeat N the identical batch posts N times: the first round
	// computes, later rounds replay the daemon's caches (the raw-bytes
	// fast path sees the verbatim same body), and the per-round timings
	// on stderr show the warm-up. Only the last round's NDJSON goes to
	// stdout, so the output shape matches a single run.
	for round := 1; round <= repeat; round++ {
		out := io.Discard
		if round == repeat {
			out = w
		}
		t0 := time.Now()
		if err := postBatch(url, body, len(items), out); err != nil {
			return err
		}
		if repeat > 1 {
			fmt.Fprintf(os.Stderr, "hypar: round %d/%d: %s\n", round, repeat, time.Since(t0).Round(time.Microsecond))
		}
	}
	return nil
}

// postBatch posts one /v1/batch body and streams the NDJSON lines to w.
func postBatch(url string, body []byte, nItems int, w io.Writer) error {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("hypard: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	// Per-item failures arrive in-band as {"error":...} lines under an
	// HTTP 200 (other items still answer); stream every line through
	// but report a failed exit when any item failed, so scripts don't
	// mistake a broken batch for success.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	failed := 0
	for sc.Scan() {
		if bytes.HasPrefix(sc.Bytes(), []byte(`{"error":`)) {
			failed++
		}
		if _, err := fmt.Fprintf(w, "%s\n", sc.Bytes()); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("hypard: %d of %d batch items failed (see the error lines above)", failed, nItems)
	}
	return nil
}

// runModel plans (and unless planOnly, evaluates) one network. The plan
// table and the step statistics come from one evaluation, traced or
// not: for a degraded array that can be the grouped candidate, whose
// plan is one group's.
func runModel(name, strategyName string, planOnly bool, traceFile string, cfg hypar.Config,
	emit func(*report.Table) error, w io.Writer) error {
	m, err := hypar.ModelByName(name)
	if err != nil {
		return err
	}
	strat, err := hypar.ParseStrategy(strategyName)
	if err != nil {
		return err
	}

	var (
		plan *hypar.Plan
		res  *hypar.Result
	)
	if planOnly {
		plan, err = hypar.NewPlan(m, strat, cfg)
	} else if res, err = hypar.Run(m, strat, cfg); err == nil {
		plan = res.Plan
	}
	if err != nil {
		return err
	}
	if res != nil && res.DegradedGroups > 0 && traceFile != "" {
		// The grouped step adds a cross-group gradient allreduce to one
		// group's simulated schedule, so no trace shows the step printed.
		return fmt.Errorf("-trace: under fault %v the fastest step runs %d surviving groups in data parallel, and no simulated schedule holds their gradient allreduce; run without -trace",
			cfg.Faults, res.DegradedGroups)
	}
	pt := report.NewTable(fmt.Sprintf("%s / %s: parallelism per layer (H1..H%d, 0=dp 1=mp)",
		m.Name, strat, plan.NumLevels()), "layer", "levels")
	for l, layer := range m.Layers {
		if err := pt.AddRow(layer.Name, plan.LayerString(l)); err != nil {
			return err
		}
	}
	if err := emit(pt); err != nil {
		return err
	}
	if planOnly {
		return nil
	}

	if traceFile != "" {
		if err := writeTrace(m, plan, cfg, traceFile, w); err != nil {
			return err
		}
	}
	st := report.NewTable("simulated training step", "metric", "value")
	rows := []struct {
		k string
		v interface{}
	}{
		{"step time (s)", res.Stats.StepSeconds},
		{"compute busy (s)", res.Stats.ComputeSeconds},
		{"comm busy (s)", res.Stats.TotalCommSeconds()},
		{"total communication (GB)", res.Stats.CommBytes / 1e9},
		{"DRAM traffic (GB)", res.Stats.DRAMBytes / 1e9},
		{"working set per accelerator (GB)", res.Stats.PeakMemoryBytes / 1e9},
		{"fits HMC capacity", fmt.Sprintf("%v", res.Stats.FitsMemory)},
		{"energy (J)", res.Stats.EnergyTotal()},
		{"energy: compute (J)", res.Stats.EnergyCompute},
		{"energy: SRAM (J)", res.Stats.EnergySRAM},
		{"energy: DRAM (J)", res.Stats.EnergyDRAM},
		{"energy: links (J)", res.Stats.EnergyLink},
		{"scheduled tasks", res.Stats.Tasks},
	}
	for _, r := range rows {
		if err := st.AddRow(r.k, r.v); err != nil {
			return err
		}
	}
	if err := emit(st); err != nil {
		return err
	}
	accs := plan.NumAccelerators()
	if !cfg.Faults.IsZero() {
		layout := fmt.Sprintf("planning at depth %d", plan.NumLevels())
		if g := res.DegradedGroups; g > 0 {
			layout = fmt.Sprintf("%d groups of %d in data parallel", g, accs)
			accs *= g
		}
		fmt.Fprintf(w, "degraded array: fault %v leaves %d of %d accelerators (%s)\n",
			cfg.Faults, cfg.SurvivingAccelerators(), 1<<uint(cfg.Levels), layout)
	}
	platName, topoName := cfg.Platform, cfg.Topology
	if !cfg.Platforms.IsZero() {
		platName = string(cfg.Platforms)
		if topoName == "" {
			topoName = "per-level native"
		}
	}
	_, err = fmt.Fprintf(w, "accelerators: %d, platform: %s, topology: %s, batch: %d\n",
		accs, platName, topoName, cfg.Batch)
	return err
}

// writeTrace simulates the evaluated plan again with trace collection
// and writes the Chrome trace plus an occupancy summary.
func writeTrace(m *hypar.Model, plan *hypar.Plan, cfg hypar.Config, traceFile string, w io.Writer) error {
	arch, err := hypar.BuildArch(cfg)
	if err != nil {
		return err
	}
	arch.CollectTrace = true
	stats, err := sim.Simulate(m, plan, arch)
	if err != nil {
		return err
	}
	f, err := os.Create(traceFile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteChrome(f, stats.Trace); err != nil {
		return err
	}
	occ, err := trace.Summarize(stats.Trace)
	if err != nil {
		return err
	}
	ot := report.NewTable("resource occupancy", "resource", "busy-s", "tasks")
	for _, o := range occ {
		name := o.Resource
		if name == "" {
			name = "(unbound)"
		}
		if err := ot.AddRow(name, o.Busy, o.Tasks); err != nil {
			return err
		}
	}
	if err := ot.WriteText(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "chrome trace written to %s (%d tasks)\n\n", traceFile, len(stats.Trace))
	return err
}

// runExperiments regenerates one or all paper artifacts. All figures
// share one experiments.Session, so the zoo comparison behind Figs. 6-8
// (and the H-tree side of Fig. 12) is evaluated once, not per figure.
func runExperiments(which string, cfg hypar.Config, emit func(*report.Table) error) error {
	s := experiments.NewSession(cfg)
	type run func() (*report.Table, error)
	runners := map[string]run{
		"fig5": s.Fig5,
		"fig6": s.Fig6,
		"fig7": s.Fig7,
		"fig8": s.Fig8,
		"fig9": func() (*report.Table, error) {
			t, _, err := s.Fig9()
			return t, err
		},
		"fig10": func() (*report.Table, error) {
			t, _, err := s.Fig10()
			return t, err
		},
		"fig11": func() (*report.Table, error) {
			t, _, err := s.Fig11(6)
			return t, err
		},
		"fig12":     s.Fig12,
		"fig13":     s.Fig13,
		"platforms": s.PlatformTable,
		"branched":  s.BranchedTable,
		"degraded":  s.DegradedTable,
		"hetero":    s.HeteroTable,
		"beam":      s.BeamTable,
	}
	ablations := []run{
		func() (*report.Table, error) { return s.AblationDepth(6, "VGG-A") },
		func() (*report.Table, error) { return s.AblationTopology("VGG-A") },
		func() (*report.Table, error) { return s.AblationBatch("AlexNet") },
		func() (*report.Table, error) { return s.AblationLinkBandwidth("VGG-A") },
		func() (*report.Table, error) { return s.AblationOverlap("VGG-A") },
		func() (*report.Table, error) { return s.AblationPrecision("VGG-A") },
	}

	runOne := func(r run) error {
		t, err := r()
		if err != nil {
			return err
		}
		return emit(t)
	}

	switch which {
	case "all":
		for _, k := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "platforms", "branched", "degraded", "hetero", "beam"} {
			if err := runOne(runners[k]); err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
		}
		for i, r := range ablations {
			if err := runOne(r); err != nil {
				return fmt.Errorf("ablation %d: %w", i, err)
			}
		}
		return nil
	case "ablations":
		for i, r := range ablations {
			if err := runOne(r); err != nil {
				return fmt.Errorf("ablation %d: %w", i, err)
			}
		}
		return nil
	default:
		r, ok := runners[which]
		if !ok {
			return fmt.Errorf("unknown experiment %q (fig5..fig13, platforms, branched, degraded, hetero, beam, ablations, all)", which)
		}
		return runOne(r)
	}
}
