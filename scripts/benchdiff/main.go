// Command benchdiff compares two committed BENCH_N.json trajectory
// files and fails when the newer one regresses beyond a
// noise band, so the perf trajectory is a gate instead of a graph
// someone has to remember to read.
//
// Comparison rules:
//
//   - ns_per_op entries present in both files are compared as
//     new/old ratios; a ratio above 1+band is a regression.
//   - When both files carry BenchmarkCalibration — a fixed
//     host-speed probe, see bench_test.go — its ratio becomes the
//     host-speed scale and every other ns/op ratio is divided by it,
//     separating "this runner is slow today" from "this code is slow
//     now". Files without it (older schemas) compare raw.
//   - service throughput (items/sec, rps when itemsPerSec is absent)
//     is compared inversely — lower is worse — and normalized by the
//     same scale. Service numbers ride host load much harder than
//     microbenchmarks, so -service-warn demotes their regressions to
//     warnings (CI blocks on ns_per_op, flags service drift).
//   - Keys present in only one file are listed, never failed: adding
//     or retiring a benchmark is not a regression.
//
// Usage:
//
//	benchdiff BENCH_5.json BENCH_6.json
//	benchdiff -band 0.30 -service-warn BENCH_5.json BENCH_6.json
//	benchdiff -warn-only old.json new.json   # report, never fail
//
// Exit status: 0 clean (or warnings only), 1 blocking regression,
// 2 usage or unreadable input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// calibrationKey is the host-speed probe's ns_per_op entry.
const calibrationKey = "BenchmarkCalibration"

// doc is the slice of BENCH_N.json benchdiff reads; unknown fields
// are ignored so every bench-v* schema parses.
type doc struct {
	Schema    string              `json:"schema"`
	Go        string              `json:"go"`
	CPUs      int                 `json:"cpus"`
	Benchtime string              `json:"benchtime"`
	NsPerOp   map[string]float64  `json:"ns_per_op"`
	Service   map[string]*svcStat `json:"service"`
}

// svcStat is one service stage's throughput; entries are null when
// bench.sh ran with SKIP_SERVICE=1, hence the pointer in doc.Service.
type svcStat struct {
	RPS         float64 `json:"rps"`
	ItemsPerSec float64 `json:"itemsPerSec"`
}

// throughput is the figure compared for a service stage.
func (s *svcStat) throughput() float64 {
	if s.ItemsPerSec > 0 {
		return s.ItemsPerSec
	}
	return s.RPS
}

// delta is one compared entry.
type delta struct {
	Name     string
	Old, New float64
	// Ratio is the calibration-normalized new/old cost ratio: for
	// ns_per_op it is (new/old)/scale, for service throughput it is
	// inverted ((old/new)/scale) so >1 always means "got worse".
	Ratio   float64
	Service bool
}

// regressed reports whether the delta exceeds the noise band.
func (d delta) regressed(band float64) bool { return d.Ratio > 1+band }

// improved reports whether the delta beat the noise band.
func (d delta) improved(band float64) bool { return d.Ratio < 1-band }

// report is a full comparison of two BENCH files.
type report struct {
	Scale      float64 // host-speed scale (new/old calibration), 1 when uncalibrated
	Calibrated bool
	Deltas     []delta  // sorted: ns entries first, then service stages
	OnlyOld    []string // keys retired in new
	OnlyNew    []string // keys added in new
}

// regressions returns the beyond-band deltas, service and not.
func (r report) regressions(band float64) (ns, service []delta) {
	for _, d := range r.Deltas {
		if !d.regressed(band) {
			continue
		}
		if d.Service {
			service = append(service, d)
		} else {
			ns = append(ns, d)
		}
	}
	return ns, service
}

// compare diffs two BENCH documents. Pure so tests can drive it with
// literal docs.
func compare(oldDoc, newDoc doc) report {
	r := report{Scale: 1}
	if o, n := oldDoc.NsPerOp[calibrationKey], newDoc.NsPerOp[calibrationKey]; o > 0 && n > 0 {
		r.Scale = n / o
		r.Calibrated = true
	}

	var nsKeys []string
	for k := range oldDoc.NsPerOp {
		if k == calibrationKey {
			continue
		}
		if _, ok := newDoc.NsPerOp[k]; ok {
			nsKeys = append(nsKeys, k)
		} else {
			r.OnlyOld = append(r.OnlyOld, k)
		}
	}
	for k := range newDoc.NsPerOp {
		if _, ok := oldDoc.NsPerOp[k]; !ok && k != calibrationKey {
			r.OnlyNew = append(r.OnlyNew, k)
		}
	}
	sort.Strings(nsKeys)
	sort.Strings(r.OnlyOld)
	sort.Strings(r.OnlyNew)
	for _, k := range nsKeys {
		o, n := oldDoc.NsPerOp[k], newDoc.NsPerOp[k]
		if o <= 0 || n <= 0 {
			continue
		}
		r.Deltas = append(r.Deltas, delta{Name: k, Old: o, New: n, Ratio: (n / o) / r.Scale})
	}

	var svcKeys []string
	for k, v := range oldDoc.Service {
		if v == nil || v.throughput() <= 0 {
			continue
		}
		if n := newDoc.Service[k]; n != nil && n.throughput() > 0 {
			svcKeys = append(svcKeys, k)
		}
	}
	sort.Strings(svcKeys)
	for _, k := range svcKeys {
		o, n := oldDoc.Service[k].throughput(), newDoc.Service[k].throughput()
		// Throughput: worse means lower, and a slow host lowers it, so
		// the cost ratio inverts both the figure and the scale.
		r.Deltas = append(r.Deltas, delta{Name: "service." + k, Old: o, New: n, Ratio: (o / n) / r.Scale, Service: true})
	}
	return r
}

// render writes the human-readable comparison.
func render(w io.Writer, r report, band float64) {
	if r.Calibrated {
		fmt.Fprintf(w, "calibration: host-speed scale %.3f (new/old; ns ratios normalized by it)\n", r.Scale)
	} else {
		fmt.Fprintf(w, "calibration: absent in one file; comparing raw (noise band %.0f%% must absorb host drift)\n", band*100)
	}
	for _, d := range r.Deltas {
		verdict := "ok"
		switch {
		case d.regressed(band):
			verdict = "REGRESSED"
		case d.improved(band):
			verdict = "improved"
		}
		unit := "ns/op"
		pct := (d.Ratio - 1) * 100
		if d.Service {
			unit = "items/s"
			pct = (1/d.Ratio - 1) * 100 // throughput delta, signed like the user reads it
		}
		fmt.Fprintf(w, "  %-44s %14.1f -> %14.1f %s  %+6.1f%%  %s\n", d.Name, d.Old, d.New, unit, pct, verdict)
	}
	if len(r.OnlyOld) > 0 {
		fmt.Fprintf(w, "retired (old only): %v\n", r.OnlyOld)
	}
	if len(r.OnlyNew) > 0 {
		fmt.Fprintf(w, "added (new only): %v\n", r.OnlyNew)
	}
}

func readDoc(path string) (doc, error) {
	var d doc
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func main() {
	band := flag.Float64("band", 0.25, "noise band as a fraction: ratios within 1±band are neither regressions nor wins")
	warnOnly := flag.Bool("warn-only", false, "report regressions without failing")
	serviceWarn := flag.Bool("service-warn", false, "demote service-throughput regressions to warnings (ns_per_op still blocks)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchdiff [flags] OLD.json NEW.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldDoc, err := readDoc(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newDoc, err := readDoc(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	r := compare(oldDoc, newDoc)
	fmt.Printf("benchdiff: %s -> %s (band ±%.0f%%)\n", flag.Arg(0), flag.Arg(1), *band*100)
	render(os.Stdout, r, *band)

	ns, service := r.regressions(*band)
	fail := false
	for _, d := range ns {
		if *warnOnly {
			fmt.Printf("WARN: %s regressed %.1f%% (beyond ±%.0f%% band)\n", d.Name, (d.Ratio-1)*100, *band*100)
		} else {
			fmt.Printf("FAIL: %s regressed %.1f%% (beyond ±%.0f%% band)\n", d.Name, (d.Ratio-1)*100, *band*100)
			fail = true
		}
	}
	for _, d := range service {
		if *warnOnly || *serviceWarn {
			fmt.Printf("WARN: %s throughput fell %.1f%% (beyond ±%.0f%% band)\n", d.Name, (1-1/d.Ratio)*100, *band*100)
		} else {
			fmt.Printf("FAIL: %s throughput fell %.1f%% (beyond ±%.0f%% band)\n", d.Name, (1-1/d.Ratio)*100, *band*100)
			fail = true
		}
	}
	if fail {
		os.Exit(1)
	}
	if len(ns)+len(service) == 0 {
		fmt.Println("benchdiff: no regressions beyond the noise band")
	}
}
