package experiments

import (
	"fmt"

	hypar "repro"
	"repro/internal/nn"
	"repro/internal/report"
	"repro/internal/runner"
)

// trickCase is one bar of the paper's Figure 13.
type trickCase struct {
	name   string
	model  *hypar.Model
	batch  int
	levels int
}

// fig13Cases builds the six configurations of the paper: the conv5 and
// fc3 layers of VGG-E, at the throughput-oriented batch 4096 (fc3) and
// the generalization-oriented batch 32 (conv5), under hierarchy depths
// two, three and four (§6.5.2).
func fig13Cases() []trickCase {
	conv5 := func() *hypar.Model {
		return &hypar.Model{
			Name:  "VGGE-conv5",
			Input: nn.Input{H: 14, W: 14, C: 512},
			Layers: []hypar.Layer{
				{Name: "conv5", Type: nn.Conv, K: 3, Pad: 1, Cout: 512, Act: nn.ReLU},
			},
		}
	}
	fc3 := func() *hypar.Model {
		return &hypar.Model{
			Name:  "VGGE-fc3",
			Input: nn.Input{H: 1, W: 1, C: 4096},
			Layers: []hypar.Layer{
				{Name: "fc3", Type: nn.FC, Cout: 1000, Act: nn.Softmax},
			},
		}
	}
	var cases []trickCase
	for _, h := range []int{2, 3, 4} {
		cases = append(cases, trickCase{
			name: fmt.Sprintf("conv5-b32-h%d", h), model: conv5(), batch: 32, levels: h,
		})
	}
	for _, h := range []int{2, 3, 4} {
		cases = append(cases, trickCase{
			name: fmt.Sprintf("fc3-b4096-h%d", h), model: fc3(), batch: 4096, levels: h,
		})
	}
	return cases
}

// fig13Row is one case's pair of normalized metrics.
type fig13Row struct {
	perf float64
	eff  float64
}

// Fig13 compares HyPar against Krizhevsky's "one weird trick" (paper
// Figure 13): performance and energy efficiency of HyPar normalized to
// the trick for each case, with geometric means. The six cases fan out
// on the session pool.
func (s *Session) Fig13() (*report.Table, error) {
	cases := fig13Cases()
	rows, err := runner.MapWith(s.pool, cases, hypar.NewEvaluator,
		func(ev *hypar.Evaluator, _ int, tc trickCase) (fig13Row, error) {
			c := s.cfg
			c.Batch = tc.batch
			c.Levels = tc.levels
			trick, err := ev.Run(tc.model, hypar.OneWeirdTrick, c)
			if err != nil {
				return fig13Row{}, fmt.Errorf("%w: %s trick: %v", ErrExperiment, tc.name, err)
			}
			hp, err := ev.Run(tc.model, hypar.HyPar, c)
			if err != nil {
				return fig13Row{}, fmt.Errorf("%w: %s hypar: %v", ErrExperiment, tc.name, err)
			}
			return fig13Row{
				perf: trick.Stats.StepSeconds / hp.Stats.StepSeconds,
				eff:  trick.Stats.EnergyTotal() / hp.Stats.EnergyTotal(),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 13: HyPar vs one weird trick (normalized to the trick)",
		"case", "performance", "energy-efficiency")
	var perfs, effs []float64
	for i, tc := range cases {
		perfs = append(perfs, rows[i].perf)
		effs = append(effs, rows[i].eff)
		if err := t.AddRow(tc.name, rows[i].perf, rows[i].eff); err != nil {
			return nil, err
		}
	}
	if err := t.AddRow("Gmean", geomean(perfs), geomean(effs)); err != nil {
		return nil, err
	}
	return t, nil
}
