package sim

import (
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/partition"
)

// BenchmarkSimulateSweep measures the per-point lines of an 8-variable
// parallelism sweep — layers 0-3 free at levels H1 and H4 on top of the
// HyPar plan, 256 points, batch 256, H = 4, 1600 Mb/s links: planning
// every point (partition.NewSweep's table, then every point filled into
// one reused plan), simulating every point's plan on one reused
// Simulator, and pricing every point's step time through a SweepProgram,
// what an exploration runs (a new table and a new program per sweep, so
// the compile counts). Each reports ns and allocations per point; run
// it with -benchmem.
func BenchmarkSimulateSweep(b *testing.B) {
	arch, err := defaultArch(4)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []*nn.Model{nn.LenetC(), nn.CifarC(), nn.AlexNet(), nn.VGGA()} {
		base, err := solve(m, 256, unit(4))
		if err != nil {
			b.Fatal(err)
		}
		var free []partition.FreeVar
		for _, h := range []int{0, 3} {
			for l := 0; l < 4; l++ {
				free = append(free, partition.FreeVar{Level: h, Layer: l})
			}
		}
		sweep := func() *partition.Sweep {
			sw, err := partition.NewSweep(m, 256, base.Levels, free, unit(4))
			if err != nil {
				b.Fatal(err)
			}
			return sw
		}
		sw := sweep()
		plans := make([]*partition.Plan, sw.Points())
		for code := range plans {
			plans[code] = sw.Fill(nil, code)
		}
		b.Run("plan/"+m.Name, func(b *testing.B) {
			var plan *partition.Plan
			perPoint(b, len(plans), func() {
				sw := sweep()
				for code := range plans {
					plan = sw.Fill(plan, code)
				}
			})
		})
		b.Run("simulate/"+m.Name, func(b *testing.B) {
			sm := NewSimulator()
			perPoint(b, len(plans), func() {
				for _, plan := range plans {
					if _, err := sm.Simulate(m, plan, arch); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
		b.Run("step/"+m.Name, func(b *testing.B) {
			steps := make([]float64, len(plans))
			perPoint(b, len(plans), func() {
				prog, err := CompileSweep(m, sweep(), arch)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := prog.Steps(nil, 0, steps); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// perPoint runs sweep b.N times after one warm-up and reports the time
// and allocations per sweep point.
func perPoint(b *testing.B, points int, sweep func()) {
	sweep()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * points)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/point")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/point")
}
