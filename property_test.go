package hypar_test

import (
	"math"
	"testing"

	hypar "repro"
)

// TestStepNonIncreasingInLinkMbps pins a cost-model property: a faster
// link never slows a training step. The grid is the ten-network zoo and
// both branched workloads, the four strategies, every platform (hmc,
// gpu-hbm and tpu-systolic: 1,728 runs), and overlap off and on, each
// at the default batch and depth over link rates 100, 400, 1,600,
// 6,400, 25,600 and 102,400 Mb/s; every step time must be at most the
// one at the rate below it.
func TestStepNonIncreasingInLinkMbps(t *testing.T) {
	ev := hypar.NewEvaluator()
	runs := 0
	for _, m := range append(hypar.Zoo(), hypar.BranchedZoo()...) {
		for _, s := range hypar.Strategies {
			for _, p := range hypar.Platforms() {
				for _, overlap := range []bool{false, true} {
					prev, prevMbps := math.Inf(1), 0.0
					for mbps := 100.0; mbps <= 102400; mbps *= 4 {
						c := hypar.DefaultConfig()
						c.Platform, c.LinkMbps, c.OverlapGradComm = p, mbps, overlap
						r, err := ev.Run(m, s, c)
						if err != nil {
							t.Fatalf("%s %v on %s at %g Mb/s: %v", m.Name, s, p, mbps, err)
						}
						runs++
						if step := r.Stats.StepSeconds; step > prev {
							t.Errorf("%s %v on %s, overlap %v: step %g s at %g Mb/s exceeds %g s at %g Mb/s",
								m.Name, s, p, overlap, step, mbps, prev, prevMbps)
						}
						prev, prevMbps = r.Stats.StepSeconds, mbps
					}
				}
			}
		}
	}
	t.Logf("%d runs", runs)
}
