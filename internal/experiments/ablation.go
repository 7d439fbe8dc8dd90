package experiments

import (
	"fmt"

	hypar "repro"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/tensor"
)

// AblationDepth sweeps the hierarchy depth H (array sizes 2..2^max) and
// reports HyPar's communication advantage over Data Parallelism — the
// design-choice study behind the hierarchical recursion.
func (s *Session) AblationDepth(maxLevels int, modelName string) (*report.Table, error) {
	m, err := hypar.ModelByName(modelName)
	if err != nil {
		return nil, err
	}
	type row struct{ hpB, dpB float64 }
	rows, err := runner.Map(s.pool, make([]struct{}, maxLevels), func(i int, _ struct{}) (row, error) {
		c := s.cfg
		c.Levels = i + 1
		hp, err := hypar.NewPlan(m, hypar.HyPar, c)
		if err != nil {
			return row{}, err
		}
		dp, err := hypar.NewPlan(m, hypar.DataParallel, c)
		if err != nil {
			return row{}, err
		}
		return row{hpB: hp.TotalBytes(tensor.Float32), dpB: dp.TotalBytes(tensor.Float32)}, nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Ablation: hierarchy depth vs communication ("+modelName+")",
		"levels", "accelerators", "comm-HyPar-GB", "comm-DP-GB", "ratio")
	for i, r := range rows {
		levels := i + 1
		ratio := 0.0
		if r.hpB > 0 {
			ratio = r.dpB / r.hpB
		}
		if err := t.AddRow(levels, 1<<uint(levels), r.hpB/1e9, r.dpB/1e9, ratio); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// AblationTopology compares HyPar's step time across H-tree, torus and
// the ideal fabric — isolating how much of the gain is NoC-bound.
func (s *Session) AblationTopology(modelName string) (*report.Table, error) {
	m, err := hypar.ModelByName(modelName)
	if err != nil {
		return nil, err
	}
	topos := []string{"htree", "torus", "ideal"}
	results, err := runner.MapWith(s.pool, topos, hypar.NewEvaluator,
		func(ev *hypar.Evaluator, _ int, topo string) (*hypar.Result, error) {
			c := s.cfg
			c.Topology = topo
			return ev.Run(m, hypar.HyPar, c)
		})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Ablation: topology vs step time ("+modelName+")",
		"topology", "step-s", "comm-busy-s")
	for i, topo := range topos {
		if err := t.AddRow(topo, results[i].Stats.StepSeconds, results[i].Stats.TotalCommSeconds()); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// AblationBatch sweeps the batch size and reports which parallelism the
// communication model prefers for a representative conv and fc layer —
// the §3.4 crossover study.
func (s *Session) AblationBatch(modelName string) (*report.Table, error) {
	m, err := hypar.ModelByName(modelName)
	if err != nil {
		return nil, err
	}
	batches := []int{16, 64, 256, 1024, 4096}
	plans, err := runner.Map(s.pool, batches, func(_ int, b int) (*hypar.Plan, error) {
		c := s.cfg
		c.Batch = b
		return hypar.NewPlan(m, hypar.HyPar, c)
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Ablation: batch size vs optimized parallelism ("+modelName+")",
		"batch", "plan-H1", "comm-GB")
	for i, b := range batches {
		if err := t.AddRow(b, plans[i].Levels[0].String(), plans[i].TotalBytes(tensor.Float32)/1e9); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// AblationLinkBandwidth sweeps the NoC link bandwidth and reports
// HyPar's performance gain over Data Parallelism — the sensitivity of
// the headline result to the 1600 Mb/s assumption.
func (s *Session) AblationLinkBandwidth(modelName string) (*report.Table, error) {
	m, err := hypar.ModelByName(modelName)
	if err != nil {
		return nil, err
	}
	speeds := []float64{400, 800, 1600, 3200, 6400, 12800}
	gains, err := runner.MapWith(s.pool, speeds, hypar.NewEvaluator,
		func(ev *hypar.Evaluator, _ int, mbps float64) (float64, error) {
			c := s.cfg
			c.LinkMbps = mbps
			dp, err := ev.Run(m, hypar.DataParallel, c)
			if err != nil {
				return 0, err
			}
			hp, err := ev.Run(m, hypar.HyPar, c)
			if err != nil {
				return 0, err
			}
			return dp.Stats.StepSeconds / hp.Stats.StepSeconds, nil
		})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Ablation: link bandwidth vs HyPar gain ("+modelName+")",
		"link-Mbps", "gain-vs-DP")
	for i, mbps := range speeds {
		if err := t.AddRow(mbps, gains[i]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// AblationPrecision sweeps the element width and reports HyPar's gain
// and absolute communication — quantifying how much of the headline
// result survives quantized training.
func (s *Session) AblationPrecision(modelName string) (*report.Table, error) {
	m, err := hypar.ModelByName(modelName)
	if err != nil {
		return nil, err
	}
	precisions := []string{"fp32", "fp16", "int8"}
	type row struct {
		gain, commGB float64
		fits         bool
	}
	rows, err := runner.MapWith(s.pool, precisions, hypar.NewEvaluator,
		func(ev *hypar.Evaluator, _ int, prec string) (row, error) {
			c := s.cfg
			c.Precision = prec
			dp, err := ev.Run(m, hypar.DataParallel, c)
			if err != nil {
				return row{}, err
			}
			hp, err := ev.Run(m, hypar.HyPar, c)
			if err != nil {
				return row{}, err
			}
			return row{
				gain:   dp.Stats.StepSeconds / hp.Stats.StepSeconds,
				commGB: hp.Stats.CommBytes / 1e9,
				fits:   hp.Stats.FitsMemory,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Ablation: precision vs gain and communication ("+modelName+")",
		"precision", "gain-vs-DP", "comm-HyPar-GB", "fits-8GB")
	for i, prec := range precisions {
		if err := t.AddRow(prec, rows[i].gain, rows[i].commGB, fmt.Sprintf("%v", rows[i].fits)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// AblationOverlap quantifies what a gradient-communication-hiding
// runtime would recover on top of the phase-serial schedule, for every
// strategy on one model.
func (s *Session) AblationOverlap(modelName string) (*report.Table, error) {
	m, err := hypar.ModelByName(modelName)
	if err != nil {
		return nil, err
	}
	type row struct{ serial, overlap float64 }
	rows, err := runner.MapWith(s.pool, hypar.Strategies, hypar.NewEvaluator,
		func(ev *hypar.Evaluator, _ int, st hypar.Strategy) (row, error) {
			serialCfg := s.cfg
			serialCfg.OverlapGradComm = false
			overlapCfg := s.cfg
			overlapCfg.OverlapGradComm = true
			sr, err := ev.Run(m, st, serialCfg)
			if err != nil {
				return row{}, err
			}
			or, err := ev.Run(m, st, overlapCfg)
			if err != nil {
				return row{}, err
			}
			return row{serial: sr.Stats.StepSeconds, overlap: or.Stats.StepSeconds}, nil
		})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Ablation: phase-serial vs overlapped gradient communication ("+modelName+")",
		"strategy", "serial-s", "overlap-s", "hidden-frac")
	for i, st := range hypar.Strategies {
		hidden := 0.0
		if rows[i].serial > 0 {
			hidden = 1 - rows[i].overlap/rows[i].serial
		}
		if err := t.AddRow(st.String(), rows[i].serial, rows[i].overlap, hidden); err != nil {
			return nil, err
		}
	}
	return t, nil
}
