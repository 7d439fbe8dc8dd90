package hypar_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	hypar "repro"
	"repro/internal/nn"
)

// TestEvaluatorReuseMatchesFresh drives one Evaluator through 1,000
// seeded draws over every config dimension its memos could confuse —
// model instance, strategy, batch, depth, platform, per-level platforms,
// topology, link rate, precision and overlap — and requires each Result
// (or error) to equal a fresh Evaluator's. The two models named Lenet-c
// differ in one layer's width, so state kept by name rather than by
// instance would show; the option sets are small, so consecutive draws
// often share every memo key but one.
func TestEvaluatorReuseMatchesFresh(t *testing.T) {
	wide := nn.LenetC()
	wide.Layers[len(wide.Layers)-2].Cout *= 2
	models := []*hypar.Model{nn.LenetC(), wide, nn.SRES8()}
	platforms := []string{"hmc", "gpu-hbm", "tpu-systolic"}
	specs := []string{"", "gpu-hbm", "tpu-systolic", ",gpu-hbm", "hmc,tpu-systolic"}
	topologies := []string{"", "htree", "torus", "ideal"}
	links := []float64{0, 800, 6400}
	precisions := []string{"", "fp16", "int8"}

	r := rand.New(rand.NewSource(24))
	ev := hypar.NewEvaluator()
	for i := 0; i < 1000; i++ {
		m := models[r.Intn(len(models))]
		s := hypar.Strategies[r.Intn(len(hypar.Strategies))]
		cfg := hypar.Config{
			Batch:           []int{16, 64}[r.Intn(2)],
			Levels:          1 + r.Intn(3),
			Platform:        platforms[r.Intn(len(platforms))],
			Topology:        topologies[r.Intn(len(topologies))],
			LinkMbps:        links[r.Intn(len(links))],
			Precision:       precisions[r.Intn(len(precisions))],
			OverlapGradComm: r.Intn(2) == 1,
		}
		// A spec may not name more levels than the hierarchy has.
		if spec := specs[r.Intn(len(specs))]; strings.Count(spec, ",") < cfg.Levels {
			cfg.Platforms = hypar.PlatformSpec(spec)
		}
		got, gerr := ev.Run(m, s, cfg)
		want, werr := hypar.NewEvaluator().Run(m, s, cfg)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("draw %d (%v on %s at %+v): reused evaluator's error %v, fresh one's %v", i, s, m.Name, cfg, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("draw %d (%v on %s at %+v): reused evaluator's result differs from a fresh one's", i, s, m.Name, cfg)
		}
	}
}
