package experiments

import (
	hypar "repro"
	"repro/internal/report"
	"repro/internal/runner"
)

// ScalePoint is one array size of the scalability study.
type ScalePoint struct {
	Accelerators int
	// Gains normalized to the single-accelerator step time.
	GainHyPar float64
	GainDP    float64
	// Total communication per step, bytes.
	CommHyPar float64
	CommDP    float64
}

// Fig11 reproduces the scalability study (paper Figure 11): VGG-A on 1
// to 2^maxLevels accelerators, reporting the performance gain over one
// accelerator and the total communication for HyPar and Data
// Parallelism. The per-size evaluations fan out on the session pool.
func (s *Session) Fig11(maxLevels int) (*report.Table, []ScalePoint, error) {
	m, err := hypar.ModelByName("VGG-A")
	if err != nil {
		return nil, nil, err
	}
	base := s.cfg
	base.Levels = 0
	single, err := hypar.Run(m, hypar.DataParallel, base)
	if err != nil {
		return nil, nil, err
	}
	singleStep := single.Stats.StepSeconds
	points, err := runner.MapWith(s.pool, make([]struct{}, maxLevels+1), hypar.NewEvaluator,
		func(ev *hypar.Evaluator, levels int, _ struct{}) (ScalePoint, error) {
			c := s.cfg
			c.Levels = levels
			hp, err := ev.Run(m, hypar.HyPar, c)
			if err != nil {
				return ScalePoint{}, err
			}
			dp, err := ev.Run(m, hypar.DataParallel, c)
			if err != nil {
				return ScalePoint{}, err
			}
			return ScalePoint{
				Accelerators: 1 << uint(levels),
				GainHyPar:    singleStep / hp.Stats.StepSeconds,
				GainDP:       singleStep / dp.Stats.StepSeconds,
				CommHyPar:    hp.Stats.CommBytes,
				CommDP:       dp.Stats.CommBytes,
			}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Figure 11: scalability of HyPar vs Data Parallelism (VGG-A)",
		"accelerators", "gain-HyPar", "gain-DP", "comm-HyPar-GB", "comm-DP-GB")
	for _, p := range points {
		if err := t.AddRow(p.Accelerators, p.GainHyPar, p.GainDP,
			p.CommHyPar/1e9, p.CommDP/1e9); err != nil {
			return nil, nil, err
		}
	}
	return t, points, nil
}
