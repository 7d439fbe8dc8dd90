// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§6), regenerating the same rows/series the paper reports,
// plus ablation benches for the design choices DESIGN.md calls out.
//
// Figure-level metrics are attached via b.ReportMetric so `go test
// -bench=. -benchmem` doubles as the reproduction record:
//
//	gain-vs-dp     HyPar speedup over Data Parallelism (Figs. 6, 13)
//	energy-eff     HyPar energy efficiency over DP (Fig. 7)
//	comm-gb        total communication per step (Fig. 8)
package hypar_test

import (
	"io"
	"testing"

	hypar "repro"
	"repro/internal/comm"
	"repro/internal/experiments"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/train"
)

// discardTable drops a table (benchmarks exercise generation, not IO).
func discardTable(b *testing.B, t *report.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if err := t.WriteText(io.Discard); err != nil {
		b.Fatal(err)
	}
}

// unitWeights repeats the paper's unit cost weights for levels
// hierarchy levels.
func unitWeights(levels int) []partition.Weights {
	ws := make([]partition.Weights, levels)
	for h := range ws {
		ws[h] = partition.UnitWeights()
	}
	return ws
}

// The *Serial benchmarks run on runner.Serial() (width 1); the
// unsuffixed figure benchmarks use the default (all-CPU) pool, so
// BENCH_*.json records the parallel-vs-serial trajectory.

// BenchmarkFig5PartitionSearch regenerates the optimized parallelism
// maps for all ten networks (Figure 5): ten hierarchical DP searches.
func BenchmarkFig5PartitionSearch(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, err := experiments.NewSession(cfg).Fig5()
		discardTable(b, t, err)
	}
}

// BenchmarkFig6Performance regenerates the performance comparison
// (Figure 6) and reports HyPar's geometric-mean gain.
func BenchmarkFig6Performance(b *testing.B) {
	cfg := hypar.DefaultConfig()
	var gain float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.NewSession(cfg).Fig6()
		discardTable(b, t, err)
		_ = t
	}
	// One out-of-loop evaluation for the metric.
	m, err := hypar.ModelByName("AlexNet")
	if err != nil {
		b.Fatal(err)
	}
	cmp, err := hypar.Compare(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	gain = cmp.PerformanceGain(hypar.HyPar)
	b.ReportMetric(gain, "gain-vs-dp")
}

// BenchmarkFig6PerformanceSerial is Fig6 pinned to one worker: the
// serial reference the parallel fan-out is measured against.
func BenchmarkFig6PerformanceSerial(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSessionWithPool(cfg, runner.Serial())
		t, err := s.Fig6()
		discardTable(b, t, err)
	}
}

// BenchmarkFig678SharedComparison measures one session regenerating
// Figures 6, 7 and 8 together: the zoo comparison behind all three is
// evaluated once and shared (the session cache at work).
func BenchmarkFig678SharedComparison(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(cfg)
		for _, fig := range []func() (*report.Table, error){s.Fig6, s.Fig7, s.Fig8} {
			t, err := fig()
			discardTable(b, t, err)
		}
	}
}

// BenchmarkFig7Energy regenerates the energy-efficiency comparison
// (Figure 7).
func BenchmarkFig7Energy(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, err := experiments.NewSession(cfg).Fig7()
		discardTable(b, t, err)
	}
	m, err := hypar.ModelByName("AlexNet")
	if err != nil {
		b.Fatal(err)
	}
	cmp, err := hypar.Compare(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(cmp.EnergyEfficiency(hypar.HyPar), "energy-eff")
}

// BenchmarkFig8Communication regenerates the total-communication table
// (Figure 8) and reports the VGG-A HyPar volume in GB.
func BenchmarkFig8Communication(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, err := experiments.NewSession(cfg).Fig8()
		discardTable(b, t, err)
	}
	m, err := hypar.ModelByName("VGG-A")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := hypar.NewPlan(m, hypar.HyPar, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(plan.TotalBytes(hypar.Float32)/1e9, "comm-gb")
}

// BenchmarkFig9Exploration sweeps the 256-point Lenet-c space
// (Figure 9): 256 plan evaluations + simulations per iteration.
func BenchmarkFig9Exploration(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, _, err := experiments.NewSession(cfg).Fig9()
		discardTable(b, t, err)
	}
}

// BenchmarkFig9ExplorationSerial is Fig9 pinned to one worker.
func BenchmarkFig9ExplorationSerial(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSessionWithPool(cfg, runner.Serial())
		t, _, err := s.Fig9()
		discardTable(b, t, err)
	}
}

// BenchmarkFig10Exploration sweeps the 256-point VGG-A space
// (Figure 10).
func BenchmarkFig10Exploration(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, _, err := experiments.NewSession(cfg).Fig10()
		discardTable(b, t, err)
	}
}

// BenchmarkFig11Scalability scales VGG-A from 1 to 64 accelerators
// (Figure 11).
func BenchmarkFig11Scalability(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, _, err := experiments.NewSession(cfg).Fig11(6)
		discardTable(b, t, err)
	}
}

// BenchmarkFig12Topology compares H-tree against torus across the zoo
// (Figure 12).
func BenchmarkFig12Topology(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, err := experiments.NewSession(cfg).Fig12()
		discardTable(b, t, err)
	}
}

// BenchmarkFig13Trick compares HyPar against "one weird trick" on the
// six VGG-E layer cases (Figure 13).
func BenchmarkFig13Trick(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, err := experiments.NewSession(cfg).Fig13()
		discardTable(b, t, err)
	}
}

// BenchmarkTable12CommModel micro-benchmarks the communication model's
// worked examples (Tables 1-2 / §3.4): the per-layer amounts and
// transition costs the whole search is built on.
func BenchmarkTable12CommModel(b *testing.B) {
	m, err := hypar.ModelByName("VGG-E")
	if err != nil {
		b.Fatal(err)
	}
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := hypar.NewPlan(m, hypar.HyPar, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionSearchLinearity demonstrates the O(L) claim: the
// search over the 19-layer VGG-E, per single layer.
func BenchmarkPartitionSearchLinearity(b *testing.B) {
	for _, name := range []string{"Lenet-c", "AlexNet", "VGG-E"} {
		b.Run(name, func(b *testing.B) {
			m, err := hypar.ModelByName(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg := hypar.DefaultConfig()
			for i := 0; i < b.N; i++ {
				if _, err := hypar.NewPlan(m, hypar.HyPar, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBruteForceReference measures the exponential reference
// search Algorithm 1 replaces (Lenet-c, H=2: 2^8 plans).
func BenchmarkBruteForceReference(b *testing.B) {
	m, err := hypar.ModelByName("Lenet-c")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := partition.Solve(partition.Request{Model: m, Batch: 256, Levels: unitWeights(2), Method: partition.MethodBrute}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateStep measures one event-driven training-step
// simulation of the largest network.
func BenchmarkSimulateStep(b *testing.B) {
	m, err := hypar.ModelByName("VGG-E")
	if err != nil {
		b.Fatal(err)
	}
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := hypar.Run(m, hypar.HyPar, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateStepReusedEngine is BenchmarkSimulateStep on one
// Evaluator: the engine's task slab, the arch and the memoized shapes
// are all reused, isolating the caching layer's allocation win.
func BenchmarkSimulateStepReusedEngine(b *testing.B) {
	m, err := hypar.ModelByName("VGG-E")
	if err != nil {
		b.Fatal(err)
	}
	cfg := hypar.DefaultConfig()
	ev := hypar.NewEvaluator()
	plan, err := hypar.NewPlan(m, hypar.HyPar, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Simulate(m, hypar.HyPar, plan, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHierarchyDepth sweeps the hierarchy depth.
func BenchmarkAblationHierarchyDepth(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, err := experiments.NewSession(cfg).AblationDepth(6, "VGG-A")
		discardTable(b, t, err)
	}
}

// BenchmarkAblationTopology sweeps htree/torus/ideal fabrics.
func BenchmarkAblationTopology(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, err := experiments.NewSession(cfg).AblationTopology("VGG-A")
		discardTable(b, t, err)
	}
}

// BenchmarkAblationBatch sweeps the batch size (§3.4 crossover).
func BenchmarkAblationBatch(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, err := experiments.NewSession(cfg).AblationBatch("AlexNet")
		discardTable(b, t, err)
	}
}

// BenchmarkAblationLinkBandwidth sweeps the NoC link speed.
func BenchmarkAblationLinkBandwidth(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, err := experiments.NewSession(cfg).AblationLinkBandwidth("VGG-A")
		discardTable(b, t, err)
	}
}

// BenchmarkAblationOverlap compares phase-serial against overlapped
// gradient communication.
func BenchmarkAblationOverlap(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, err := experiments.NewSession(cfg).AblationOverlap("VGG-A")
		discardTable(b, t, err)
	}
}

// BenchmarkShardedTrainingStep measures one real hybrid-parallel SGD
// step of the numerical substrate between two groups: HierarchicalFC
// on a one-level mp/mp/dp plan, the setting the §3.1 worked example and
// the two-group communication checks run in.
func BenchmarkShardedTrainingStep(b *testing.B) {
	m := &hypar.Model{
		Name:  "bench-fc",
		Input: hypar.Input{H: 1, W: 1, C: 256},
		Layers: []hypar.Layer{
			hypar.FCLayer("fc1", 256),
			hypar.FCLayer("fc2", 128),
			hypar.FCLayer("fc3", 10),
		},
	}
	plan, err := partition.Evaluate(m, 32, []partition.Assignment{{comm.MP, comm.MP, comm.DP}}, unitWeights(1))
	if err != nil {
		b.Fatal(err)
	}
	benchTrainingStep(b, m, 32, 10, plan)
}

// BenchmarkHierarchicalTrainingStep measures one four-worker (H=2)
// hierarchical-parallel SGD step of HierarchicalFC on the plan Solve
// picks.
func BenchmarkHierarchicalTrainingStep(b *testing.B) {
	m := &hypar.Model{
		Name:  "bench-hier",
		Input: hypar.Input{H: 1, W: 1, C: 128},
		Layers: []hypar.Layer{
			hypar.FCLayer("fc1", 128),
			hypar.FCLayer("fc2", 64),
			hypar.FCLayer("fc3", 8),
		},
	}
	plan, err := partition.Solve(partition.Request{Model: m, Batch: 16, Levels: unitWeights(2)})
	if err != nil {
		b.Fatal(err)
	}
	benchTrainingStep(b, m, 16, 8, plan)
}

// benchTrainingStep times HierarchicalFC's Step on a synthetic batch.
func benchTrainingStep(b *testing.B, m *hypar.Model, batch, classes int, plan *partition.Plan) {
	ref, err := train.NewNetwork(m, batch, 1)
	if err != nil {
		b.Fatal(err)
	}
	hier, err := train.NewHierarchicalFC(ref, plan)
	if err != nil {
		b.Fatal(err)
	}
	x, labels, err := train.SyntheticBatch(m, batch, classes, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hier.Step(x, labels, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPrecision sweeps fp32/fp16/int8 element widths.
func BenchmarkAblationPrecision(b *testing.B) {
	cfg := hypar.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, err := experiments.NewSession(cfg).AblationPrecision("VGG-A")
		discardTable(b, t, err)
	}
}

// BenchmarkCalibration is a fixed, codebase-independent workload —
// pure integer xorshift, no memory traffic — that measures only how
// fast the host is running right now. scripts/benchdiff divides the
// two files' calibration figures to get a host-speed scale and
// normalizes every other ns/op comparison by it, so a noisy or
// throttled CI runner reads as calibration drift, not as a code
// regression. Touching this benchmark invalidates that normalization:
// do not change the loop.
func BenchmarkCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		x := uint64(0x9E3779B97F4A7C15)
		for j := 0; j < 1_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if x == 0 {
			b.Fatal("xorshift collapsed")
		}
	}
}
