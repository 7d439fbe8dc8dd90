// Command bench is hypard's benchmark. It builds ./cmd/hypard, spawns
// it with default flags and drives one traffic mix (a workload) closed
// loop from two clients on two keep-alive connections, then checks
// sampled replies against the library and reports the end-to-end
// metrics. A traced pass runs the same requests in-process, timing each
// call into a layer's public functions, for the per-layer ledger.
//
// Run it from the repository root (see bench/README.md):
//
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -workload mixed-zipf -seed 3 -seconds 10 -trace 1
//	bash bench/run.sh -workload evaluate-cold -repeat 5
//
// Every run does both passes, and every metric is printed by name and
// unit in a table on stderr. Each run then prints one JSON line on
// stdout, {"correct", "attempted", "failed", "metrics"}, whose metrics
// are the end-to-end set (-trace 0) or the per-layer set (-trace 1). The
// exit status is non-zero when a request failed or a reply did not match
// the library.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark reads: the window,
// the metric names and the end-to-end bounds.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// e2eNames and layerNames list the metric names in report order.
func (s *spec) e2eNames() []string {
	var out []string
	for _, m := range s.EndToEnd {
		out = append(out, m.Name)
	}
	return out
}

func (s *spec) layerNames() []string {
	var out []string
	for _, m := range s.PerLayer {
		out = append(out, m.Name)
	}
	return out
}

// findRoot returns the working directory, which must be the repository
// root.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if st, err := os.Stat(filepath.Join(wd, "cmd", "hypard")); err != nil || !st.IsDir() {
		return "", fmt.Errorf("no cmd/hypard under %s: run from the repository root", wd)
	}
	return wd, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload name, or all")
		seed    = fs.Int64("seed", 1, "seed the request generators draw from")
		seconds = fs.Float64("seconds", 0, "measured window per run (0 = run_seconds from BENCHMARK.json)")
		trace   = fs.Int("trace", 0, "metrics in the JSON line: 0 = end-to-end, 1 = per-layer")
		repeat  = fs.Int("repeat", 0, "run each workload this many times and print each metric's spread")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := readSpec(root)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	bin, err := buildHypard(root, filepath.Join(root, ".bench_build"))
	if err != nil {
		return err
	}
	rc := runConfig{
		start:    func() (target, error) { return startDaemon(bin) },
		traceDir: filepath.Join(root, "bench", "out"),
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second))}
	all := append(sp.e2eNames(), sp.layerNames()...)
	report := sp.e2eNames()
	if *trace == 1 {
		report = sp.layerNames()
	}

	failed := false
	for _, n := range names {
		w, err := newWorkload(n, *seed)
		if err != nil {
			return err
		}
		runs := max(*repeat, 1)
		var results []*runResult
		for k := 0; k < runs; k++ {
			res, err := runWorkload(w, rc)
			if err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			printTable(res, rc, all)
			if err := printJSON(res, report); err != nil {
				return err
			}
			failed = failed || res.failed > 0
			results = append(results, res)
		}
		if *repeat > 0 {
			printSpread(n, results, sp, all)
		}
	}
	if failed {
		return fmt.Errorf("requests failed or replies did not match the library")
	}
	return nil
}

// printTable writes one run's metrics to stderr, by name and unit.
func printTable(res *runResult, rc runConfig, names []string) {
	errRate := 0.0
	if res.attempted > 0 {
		errRate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(os.Stderr, "== %s  seed %d  window %s  attempted %d  failed %d  error_rate %.6f  (%s)\n",
		res.workload, rc.seed, rc.window, res.attempted, res.failed, errRate, res.notes["checked"])
	if res.firstErr != "" {
		fmt.Fprintln(os.Stderr, "  first failure:", res.firstErr)
	}
	tw := tabwriter.NewWriter(os.Stderr, 2, 0, 2, ' ', 0)
	for _, n := range names {
		if m, ok := res.metrics[n]; ok {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", n, m.Value, m.Unit, res.notes[n])
		}
	}
	tw.Flush()
	if s := res.notes["self_time"]; s != "" {
		fmt.Fprintln(os.Stderr, " ", s)
	}
}

// printJSON writes the run's result line to stdout.
func printJSON(res *runResult, names []string) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]metric{}}
	for _, n := range names {
		m, ok := res.metrics[n]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.workload, n)
		}
		out.Metrics[n] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printSpread is the noise tool: each metric's median, min, max and
// spread over the repeated runs, against its BENCHMARK.json bound.
func printSpread(name string, results []*runResult, sp *spec, names []string) {
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	fmt.Fprintf(os.Stderr, "== %s: %d runs\n", name, len(results))
	tw := tabwriter.NewWriter(os.Stderr, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tmedian\tmin\tmax\tspread\tbound\t")
	for _, n := range names {
		var vs []float64
		for _, r := range results {
			vs = append(vs, r.metrics[n].Value)
		}
		line := fmt.Sprintf("  %s\t%.6g\t%.6g\t%.6g\t%.2f%%", n, median(vs), slices.Min(vs), slices.Max(vs), 100*spread(vs))
		if b, ok := bounds[n]; ok {
			line += fmt.Sprintf("\t%.0f%%", 100*b)
			if spread(vs) > b {
				line += "\tOVER BOUND"
			}
		}
		fmt.Fprintln(tw, line)
	}
	tw.Flush()
}
