package experiments

import (
	"fmt"

	hypar "repro"
	"repro/internal/report"
	"repro/internal/runner"
)

// platformTableModels are the networks the cross-platform table
// compares: the smallest zoo network, the paper's running example, and
// its largest-communication headline network.
var platformTableModels = []string{"Lenet-c", "AlexNet", "VGG-A"}

// mpShare returns the fraction of (level, layer) cells a plan assigns
// to model parallelism — the one-number summary of how far the
// partition DP leans away from pure data parallelism.
func mpShare(p *hypar.Plan) float64 {
	total, mp := 0, 0
	for h := 0; h < p.NumLevels(); h++ {
		for l := range p.Levels[h] {
			total++
			if p.Levels[h][l].Mark() == '1' {
				mp++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(mp) / float64(total)
}

// PlatformTable compares the registered accelerator platforms on three
// representative networks: every platform runs at its native topology
// and link bandwidth (batch, levels and precision carry over from the
// session config), and each row reports HyPar against that platform's
// own Data Parallelism baseline. The mp-share and last-layer columns
// show how the partition DP's dp/mp choices shift with the backend —
// the platform cost weights move the optimum, not just the absolute
// numbers.
//
// Cells whose platform-native config coincides with the session config
// reuse the session's cached zoo comparison (so `-experiment all`
// does not re-simulate the hmc column Fig6-8 already computed); the
// remaining model × platform cells fan out on the session pool.
func (s *Session) PlatformTable() (*report.Table, error) {
	names := hypar.Platforms()

	type cell struct {
		model *hypar.Model
		cfg   hypar.Config
	}
	// Resolve models against the pinned zoo so shape inference is
	// shared with every other figure, and index any cached zoo
	// comparison by model name.
	zoo := s.Zoo()
	cachedByModel := make(map[string]*hypar.Comparison)
	for _, c := range s.peekCompareZoo() {
		cachedByModel[c.Model] = c
	}
	sessionCanon := s.cfg.Canonical()

	cmps := make(map[string]map[string]*hypar.Comparison, len(platformTableModels))
	var cells []cell
	var cellKeys [][2]string // (model, platform) per cells entry
	for _, modelName := range platformTableModels {
		cmps[modelName] = make(map[string]*hypar.Comparison, len(names))
		var m *hypar.Model
		for _, zm := range zoo {
			if zm.Name == modelName {
				m = zm
				break
			}
		}
		if m == nil {
			return nil, fmt.Errorf("%w: model %q not in zoo", ErrExperiment, modelName)
		}
		for _, p := range names {
			cfg := s.cfg
			cfg.Platform = p
			cfg.Topology = ""
			cfg.LinkMbps = 0
			cfg = cfg.Canonical()
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("%w: platform %q: %v", ErrExperiment, p, err)
			}
			if cached, ok := cachedByModel[modelName]; ok && cfg == sessionCanon {
				cmps[modelName][p] = cached
				continue
			}
			cells = append(cells, cell{model: m, cfg: cfg})
			cellKeys = append(cellKeys, [2]string{modelName, p})
		}
	}

	results, err := runner.MapWith(s.pool, cells, hypar.NewEvaluator,
		func(ev *hypar.Evaluator, _ int, c cell) (*hypar.Comparison, error) {
			cmp, err := ev.Compare(c.model, c.cfg)
			if err != nil {
				return nil, fmt.Errorf("%w: %s on %s: %v", ErrExperiment, c.model.Name, c.cfg.Platform, err)
			}
			return cmp, nil
		})
	if err != nil {
		return nil, err
	}
	for i, key := range cellKeys {
		cmps[key[0]][key[1]] = results[i]
	}

	t := report.NewTable("Cross-platform comparison: HyPar vs each platform's Data Parallelism",
		"model", "platform", "perf-gain", "energy-eff", "comm-GB", "mp-share", "last-layer")
	for _, modelName := range platformTableModels {
		for _, p := range names {
			cmp := cmps[modelName][p]
			hp := cmp.Results[hypar.HyPar]
			last := hp.Plan.LayerString(len(hp.Plan.Levels[0]) - 1)
			if err := t.AddRow(modelName, p,
				cmp.PerformanceGain(hypar.HyPar),
				cmp.EnergyEfficiency(hypar.HyPar),
				hp.Stats.CommBytes/1e9,
				mpShare(hp.Plan),
				last,
			); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
