package experiments

import (
	"errors"
	"fmt"

	hypar "repro"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/runner"
)

// wideFanBranches sizes the synthetic wide-graph workload: 18 parallel
// branches keep its partition frontier above the exact graph DP's
// compiled-in cap of 16 open layers, so only the beam can plan it.
const wideFanBranches = 18

// WideFan builds the synthetic wide-graph workload the beam table
// plans: one conv stem fanning out into n parallel conv branches that
// a single FC layer joins. Its partition frontier equals n, so n above
// the exact graph DP's cap exercises the beam's reason to exist.
func WideFan(n int) *hypar.Model {
	m := &hypar.Model{
		Name:  fmt.Sprintf("WideFan-%d", n),
		Input: hypar.Input{H: 16, W: 16, C: 3},
	}
	m.Layers = append(m.Layers, nn.Layer{
		Name: "stem", Type: nn.Conv, K: 3, Pad: 1, Cout: 8, Act: nn.ReLU,
	})
	ins := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("branch%02d", i)
		m.Layers = append(m.Layers, nn.Layer{
			Name: name, Type: nn.Conv, K: 3, Pad: 1, Cout: 8, Act: nn.ReLU,
			Inputs: []string{"stem"},
		})
		ins = append(ins, name)
	}
	m.Layers = append(m.Layers, nn.Layer{
		Name: "join", Type: nn.FC, Cout: 10, Act: nn.Softmax, Inputs: ins,
	})
	return m
}

// beamRow is one model's exact-vs-beam measurement.
type beamRow struct {
	model    string
	frontier int
	refused  bool // exact DP refused (frontier over the cap)
	exactSec float64
	beamSec  float64
	gap      float64 // (beam comm - exact comm) / exact comm
}

// BeamTable compares the exact partition search against the bounded
// beam (searchMethod "beam" at the default width) on the branched zoo
// networks plus the synthetic WideFan-18, whose frontier exceeds the
// exact graph DP's cap. Per model it reports the frontier width, the
// simulated step time under each search, and the beam's communication
// gap versus the exact optimum — zero gap on every graph the exact DP
// can solve pins the beam as an approximation that loses nothing where
// it can be checked, while the WideFan row shows it planning a graph
// the exact search refuses outright.
func (s *Session) BeamTable() (*report.Table, error) {
	models := append([]*hypar.Model{}, s.Branched()...)
	models = append(models, WideFan(wideFanBranches))

	exactCfg := s.cfg
	exactCfg.SearchMethod = ""
	exactCfg.BeamWidth = 0
	beamCfg := s.cfg
	beamCfg.SearchMethod = "beam"
	beamCfg.BeamWidth = 0 // canonical default width

	rows, err := runner.Map(s.pool, models,
		func(_ int, m *hypar.Model) (beamRow, error) {
			preds, err := m.LayerPreds()
			if err != nil {
				return beamRow{}, fmt.Errorf("%w: %s: %v", ErrExperiment, m.Name, err)
			}
			row := beamRow{model: m.Name, frontier: partition.FrontierWidth(preds)}

			beam, err := hypar.Run(m, hypar.HyPar, beamCfg)
			if err != nil {
				return beamRow{}, fmt.Errorf("%w: %s: beam: %v", ErrExperiment, m.Name, err)
			}
			row.beamSec = beam.Stats.StepSeconds

			exact, err := hypar.Run(m, hypar.HyPar, exactCfg)
			switch {
			case errors.Is(err, partition.ErrTooWide):
				row.refused = true
			case err != nil:
				return beamRow{}, fmt.Errorf("%w: %s: exact: %v", ErrExperiment, m.Name, err)
			default:
				row.exactSec = exact.Stats.StepSeconds
				if exact.Plan.TotalElems > 0 {
					row.gap = (beam.Plan.TotalElems - exact.Plan.TotalElems) / exact.Plan.TotalElems
				}
			}
			return row, nil
		})
	if err != nil {
		return nil, err
	}

	t := report.NewTable("Beam search vs exact partition search (branched zoo + WideFan-18)",
		"model", "frontier", "exact-step-ms", "beam-step-ms", "comm-gap-%")
	for _, r := range rows {
		exactCell, gapCell := interface{}("refused"), interface{}("n/a")
		if !r.refused {
			exactCell = 1e3 * r.exactSec
			gapCell = 100 * r.gap
		}
		if err := t.AddRow(r.model, r.frontier, exactCell, 1e3*r.beamSec, gapCell); err != nil {
			return nil, err
		}
	}
	return t, nil
}
