package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/partition"
)

// TestRandomPlansSchedule fuzzes the step builder with random
// hierarchical assignments: every schedule must complete (no cycles),
// have finite non-negative times and energies, and respect the
// resource-occupancy bound (no resource busier than the makespan).
func TestRandomPlansSchedule(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	arch, err := defaultArch(4)
	if err != nil {
		t.Fatalf("defaultArch: %v", err)
	}
	models := []*nn.Model{nn.LenetC(), nn.CifarC(), nn.AlexNet()}
	for trial := 0; trial < 50; trial++ {
		m := models[trial%len(models)]
		levels := make([]partition.Assignment, 4)
		for h := range levels {
			levels[h] = make(partition.Assignment, len(m.Layers))
			for l := range levels[h] {
				if r.Intn(2) == 1 {
					levels[h][l] = comm.MP
				}
			}
		}
		plan, err := partition.Evaluate(m, 32, levels, unit(len(levels)))
		if err != nil {
			t.Fatalf("trial %d: evaluate: %v", trial, err)
		}
		a := arch
		a.OverlapGradComm = trial%2 == 0
		stats, err := Simulate(m, plan, a)
		if err != nil {
			t.Fatalf("trial %d: simulate: %v", trial, err)
		}
		if stats.StepSeconds <= 0 || math.IsNaN(stats.StepSeconds) || math.IsInf(stats.StepSeconds, 0) {
			t.Errorf("trial %d: step time %g", trial, stats.StepSeconds)
		}
		if stats.ComputeSeconds > stats.StepSeconds*(1+1e-9) {
			t.Errorf("trial %d: compute busy %g > makespan %g", trial, stats.ComputeSeconds, stats.StepSeconds)
		}
		for h, c := range stats.CommSeconds {
			if c < 0 || c > stats.StepSeconds*(1+1e-9) {
				t.Errorf("trial %d: link %d busy %g vs makespan %g", trial, h, c, stats.StepSeconds)
			}
		}
		if stats.EnergyTotal() <= 0 || math.IsNaN(stats.EnergyTotal()) {
			t.Errorf("trial %d: energy %g", trial, stats.EnergyTotal())
		}
	}
}

// TestTraceCollection: the trace covers every task, and its makespan
// equals the reported step time.
func TestTraceCollection(t *testing.T) {
	arch, err := defaultArch(4)
	if err != nil {
		t.Fatalf("defaultArch: %v", err)
	}
	arch.CollectTrace = true
	m := nn.LenetC()
	plan, err := solve(m, 64, unit(4))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	stats, err := Simulate(m, plan, arch)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if len(stats.Trace) != stats.Tasks {
		t.Errorf("trace has %d records for %d tasks", len(stats.Trace), stats.Tasks)
	}
	var maxFinish float64
	for _, rec := range stats.Trace {
		if rec.Finish < rec.Start {
			t.Errorf("record %q inverted: [%g, %g]", rec.Name, rec.Start, rec.Finish)
		}
		if rec.Finish > maxFinish {
			maxFinish = rec.Finish
		}
	}
	if math.Abs(maxFinish-stats.StepSeconds) > 1e-12 {
		t.Errorf("trace makespan %g != step %g", maxFinish, stats.StepSeconds)
	}
	// Without the flag no trace is collected.
	arch.CollectTrace = false
	stats2, err := Simulate(m, plan, arch)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if stats2.Trace != nil {
		t.Error("trace collected without CollectTrace")
	}
}

// TestMemoryAccounting: Data Parallelism replicates the full model on
// every accelerator, so VGG-E at a huge batch blows past the 8 GB HMC
// capacity, while HyPar's fc sharding at the paper's batch fits.
func TestMemoryAccounting(t *testing.T) {
	arch, err := defaultArch(4)
	if err != nil {
		t.Fatalf("defaultArch: %v", err)
	}
	m := nn.VGGE()
	plan, err := solve(m, 256, unit(4))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	st, err := Simulate(m, plan, arch)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if st.PeakMemoryBytes <= 0 {
		t.Fatalf("peak memory %g", st.PeakMemoryBytes)
	}
	if !st.FitsMemory {
		t.Errorf("VGG-E HyPar at batch 256 should fit 8 GB, working set %g GB",
			st.PeakMemoryBytes/1e9)
	}
	// A 16k batch under pure DP retains activations for 1024 images
	// per accelerator: far beyond 8 GB.
	big, err := partition.DataParallel(m, 16384, unit(4))
	if err != nil {
		t.Fatalf("DataParallel: %v", err)
	}
	stBig, err := Simulate(m, big, arch)
	if err != nil {
		t.Fatalf("Simulate big: %v", err)
	}
	if stBig.FitsMemory {
		t.Errorf("VGG-E DP at batch 16384 reported as fitting 8 GB (%g GB)",
			stBig.PeakMemoryBytes/1e9)
	}
	if stBig.PeakMemoryBytes <= st.PeakMemoryBytes {
		t.Error("bigger batch did not grow the working set")
	}
}
