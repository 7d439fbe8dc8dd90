// Package experiments regenerates every table and figure of the HyPar
// paper's evaluation (§6): the optimized parallelism maps (Fig. 5), the
// performance / energy / communication comparisons against the default
// Data and Model Parallelism (Figs. 6-8), the parallelism-space
// explorations (Figs. 9-10), the scalability study (Fig. 11), the
// H-tree vs torus comparison (Fig. 12) and the comparison against "one
// weird trick" (Fig. 13), plus the ablations DESIGN.md calls out.
//
// Every runner returns report tables whose rows correspond to the
// series the paper plots, so cmd/hypar and the benchmark harness print
// directly comparable output.
//
// A Session is the unit of caching and concurrency: it pins the model
// zoo once (so shape inference memoizes across figures), computes the
// zoo-wide strategy comparison once and shares it across Fig5-8 and
// Fig12, and fans every independent sweep out on a runner.Pool. All
// fan-outs collect results in deterministic input order, so a width-1
// session and a width-N session render byte-identical tables.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"sync"

	hypar "repro"
	"repro/internal/report"
	"repro/internal/runner"
)

// ErrExperiment reports a failed experiment precondition.
var ErrExperiment = errors.New("experiments: failed")

// geomean returns the geometric mean of strictly positive values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// Session shares evaluation work between figure runners: the pinned
// model zoo, the once-computed zoo comparison, and the worker pool all
// fan-outs run on. Methods are safe for concurrent use.
type Session struct {
	cfg  hypar.Config
	pool *runner.Pool

	// res is cfg resolved once, on first use (or given to
	// NewResolvedSession): explorations plan, simulate and sweep on it.
	resolve sync.Once
	res     *hypar.Resolved
	resErr  error

	pinZoo, pinBranched sync.Once
	zoo, branched       []*hypar.Model // pinned on first use

	mu   sync.Mutex
	cmps []*hypar.Comparison
}

// NewSession creates a session on the default runner pool.
func NewSession(cfg hypar.Config) *Session { return NewSessionWithPool(cfg, runner.Default()) }

// NewSessionWithPool creates a session on an explicit pool (width 1 is
// the serial reference path). The config resolves on first use, and an
// invalid one fails the calls that use it.
func NewSessionWithPool(cfg hypar.Config, pool *runner.Pool) *Session {
	return &Session{cfg: cfg, pool: pool}
}

// NewResolvedSession creates a session at an already resolved config on
// an explicit pool.
func NewResolvedSession(r *hypar.Resolved, pool *runner.Pool) *Session {
	return &Session{cfg: r.Config(), pool: pool, res: r}
}

// resolved returns the session's resolved config, resolving it on the
// first call.
func (s *Session) resolved() (*hypar.Resolved, error) {
	s.resolve.Do(func() {
		if s.res == nil {
			s.res, s.resErr = hypar.Resolve(s.cfg)
		}
	})
	return s.res, s.resErr
}

// Config returns the session's base configuration.
func (s *Session) Config() hypar.Config { return s.cfg }

// Pool returns the session's worker pool.
func (s *Session) Pool() *runner.Pool { return s.pool }

// Zoo returns the session's pinned zoo models. Pinning matters: a
// model memoizes its shapes and graph on itself (nn.Model.Derive), so
// every figure that walks s.Zoo() shares one inference per (model,
// batch). The models are the session's: CompareZoo evaluates them once,
// so change a copy, not them.
func (s *Session) Zoo() []*hypar.Model {
	s.pinZoo.Do(func() { s.zoo = hypar.Zoo() })
	return s.zoo
}

// Branched returns the session's pinned branched (DAG) workload
// networks, pinned on first use so the figures share their memos, as
// Zoo's do.
func (s *Session) Branched() []*hypar.Model {
	s.pinBranched.Do(func() { s.branched = hypar.BranchedZoo() })
	return s.branched
}

// CompareZoo runs all strategies over the ten zoo networks, fanning the
// model × strategy product out on the pool, and caches the result for
// the session: Fig6, Fig7, Fig8 and (on the H-tree) Fig12 all read the
// same evaluation.
func (s *Session) CompareZoo() ([]*hypar.Comparison, error) {
	zoo := s.Zoo()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cmps != nil {
		return s.cmps, nil
	}
	type cell struct {
		model    *hypar.Model
		strategy hypar.Strategy
	}
	cells := make([]cell, 0, len(zoo)*len(hypar.Strategies))
	for _, m := range zoo {
		for _, st := range hypar.Strategies {
			cells = append(cells, cell{model: m, strategy: st})
		}
	}
	results, err := runner.MapWith(s.pool, cells, hypar.NewEvaluator,
		func(ev *hypar.Evaluator, _ int, c cell) (*hypar.Result, error) {
			r, err := ev.Run(c.model, c.strategy, s.cfg)
			if err != nil {
				return nil, fmt.Errorf("%w: %s/%v: %v", ErrExperiment, c.model.Name, c.strategy, err)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	cmps := make([]*hypar.Comparison, len(zoo))
	for i, m := range zoo {
		cmp := &hypar.Comparison{Model: m.Name, Results: make(map[hypar.Strategy]*hypar.Result, len(hypar.Strategies))}
		for j, st := range hypar.Strategies {
			cmp.Results[st] = results[i*len(hypar.Strategies)+j]
		}
		cmps[i] = cmp
	}
	s.cmps = cmps
	return cmps, nil
}

// peekCompareZoo returns the cached zoo comparison without computing
// it, so opportunistic reusers (Fig12) do not force the full fan-out.
func (s *Session) peekCompareZoo() []*hypar.Comparison {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cmps
}

// Fig5 reports the optimized parallelism for every weighted layer of
// the ten networks at each hierarchy level (paper Figure 5): one row
// per layer, one 0/1 column per level (0 = dp, 1 = mp).
func (s *Session) Fig5() (*report.Table, error) {
	zoo := s.Zoo()
	plans, err := runner.Map(s.pool, zoo, func(_ int, m *hypar.Model) (*hypar.Plan, error) {
		return hypar.NewPlan(m, hypar.HyPar, s.cfg)
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 5: optimized parallelism per layer and hierarchy level (0=dp, 1=mp)",
		"model", "layer", "H1..H4")
	for i, m := range zoo {
		for l, layer := range m.Layers {
			if err := t.AddRow(m.Name, layer.Name, plans[i].LayerString(l)); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// Fig6 reports training-step performance of Model Parallelism, Data
// Parallelism and HyPar normalized to Data Parallelism (paper Figure 6),
// with the geometric mean over the ten networks.
func (s *Session) Fig6() (*report.Table, error) {
	cmps, err := s.CompareZoo()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 6: performance normalized to Data Parallelism",
		"model", "ModelParallelism", "DataParallelism", "HyPar")
	var mps, hps []float64
	for _, c := range cmps {
		mp := c.PerformanceGain(hypar.ModelParallel)
		hp := c.PerformanceGain(hypar.HyPar)
		mps = append(mps, mp)
		hps = append(hps, hp)
		if err := t.AddRow(c.Model, mp, 1.0, hp); err != nil {
			return nil, err
		}
	}
	if err := t.AddRow("Gmean", geomean(mps), 1.0, geomean(hps)); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig7 reports energy efficiency normalized to Data Parallelism (paper
// Figure 7).
func (s *Session) Fig7() (*report.Table, error) {
	cmps, err := s.CompareZoo()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 7: energy efficiency normalized to Data Parallelism",
		"model", "ModelParallelism", "DataParallelism", "HyPar")
	var mps, hps []float64
	for _, c := range cmps {
		mp := c.EnergyEfficiency(hypar.ModelParallel)
		hp := c.EnergyEfficiency(hypar.HyPar)
		mps = append(mps, mp)
		hps = append(hps, hp)
		if err := t.AddRow(c.Model, mp, 1.0, hp); err != nil {
			return nil, err
		}
	}
	if err := t.AddRow("Gmean", geomean(mps), 1.0, geomean(hps)); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig8 reports the total communication per training step in decimal GB
// (paper Figure 8).
func (s *Session) Fig8() (*report.Table, error) {
	cmps, err := s.CompareZoo()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 8: total communication per step (GB)",
		"model", "ModelParallelism", "DataParallelism", "HyPar")
	var mps, dps, hps []float64
	for _, c := range cmps {
		mp := c.Results[hypar.ModelParallel].Stats.CommBytes / 1e9
		dp := c.Results[hypar.DataParallel].Stats.CommBytes / 1e9
		hp := c.Results[hypar.HyPar].Stats.CommBytes / 1e9
		mps = append(mps, mp)
		dps = append(dps, dp)
		hps = append(hps, hp)
		if err := t.AddRow(c.Model, mp, dp, hp); err != nil {
			return nil, err
		}
	}
	if err := t.AddRow("Gmean", geomean(mps), geomean(dps), geomean(hps)); err != nil {
		return nil, err
	}
	return t, nil
}

// fig12Row is one model's pair of normalized gains.
type fig12Row struct {
	torus float64
	htree float64
}

// Fig12 compares H-tree and torus topologies across the zoo, both
// normalized to the H-tree Data Parallelism baseline (paper Figure 12).
// When the session's zoo comparison is already cached and the base
// topology is the H-tree, the baseline and H-tree runs are reused from
// it and only the torus runs are simulated.
func (s *Session) Fig12() (*report.Table, error) {
	t := report.NewTable("Figure 12: HyPar performance normalized to Data Parallelism, torus vs H tree",
		"model", "Torus", "HTree")
	htCfg := s.cfg
	htCfg.Topology = "htree"
	toCfg := s.cfg
	toCfg.Topology = "torus"
	var cached []*hypar.Comparison
	if htCfg.Canonical() == s.cfg.Canonical() {
		cached = s.peekCompareZoo()
	}
	zoo := s.Zoo()
	rows, err := runner.MapWith(s.pool, zoo, hypar.NewEvaluator,
		func(ev *hypar.Evaluator, i int, m *hypar.Model) (fig12Row, error) {
			var dpHTs, hpHTs float64
			if cached != nil {
				dpHTs = cached[i].Results[hypar.DataParallel].Stats.StepSeconds
				hpHTs = cached[i].Results[hypar.HyPar].Stats.StepSeconds
			} else {
				dpHT, err := ev.Run(m, hypar.DataParallel, htCfg)
				if err != nil {
					return fig12Row{}, err
				}
				hpHT, err := ev.Run(m, hypar.HyPar, htCfg)
				if err != nil {
					return fig12Row{}, err
				}
				dpHTs, hpHTs = dpHT.Stats.StepSeconds, hpHT.Stats.StepSeconds
			}
			hpTO, err := ev.Run(m, hypar.HyPar, toCfg)
			if err != nil {
				return fig12Row{}, err
			}
			return fig12Row{torus: dpHTs / hpTO.Stats.StepSeconds, htree: dpHTs / hpHTs}, nil
		})
	if err != nil {
		return nil, err
	}
	var tors, hts []float64
	for i, m := range zoo {
		tors = append(tors, rows[i].torus)
		hts = append(hts, rows[i].htree)
		if err := t.AddRow(m.Name, rows[i].torus, rows[i].htree); err != nil {
			return nil, err
		}
	}
	if err := t.AddRow("Gmean", geomean(tors), geomean(hts)); err != nil {
		return nil, err
	}
	return t, nil
}
