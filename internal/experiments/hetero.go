package experiments

import (
	"fmt"
	"strings"

	hypar "repro"
	"repro/internal/report"
	"repro/internal/runner"
)

// heteroSpecs builds the mixed per-level platform assignments the
// heterogeneous table evaluates for an H-level hierarchy: a fast
// interposer fabric over HMC leaves, a systolic upper half over HMC,
// and a GPU root over a systolic array. Each spec pays explicit
// protocol-conversion charges at its platform seams.
func heteroSpecs(levels int) []hypar.PlatformSpec {
	top := func(n int, upper, lower string) hypar.PlatformSpec {
		names := make([]string, levels)
		for h := range names {
			if h < n {
				names[h] = upper
			} else {
				names[h] = lower
			}
		}
		spec, _ := hypar.ParsePlatformSpec(strings.Join(names, ","))
		return spec
	}
	return []hypar.PlatformSpec{
		top(1, "gpu-hbm", "hmc"),
		top((levels+1)/2, "tpu-systolic", "hmc"),
		top(1, "gpu-hbm", "tpu-systolic"),
	}
}

// samePlanAssignments reports whether two plans make identical dp/mp
// choices at every (level, layer) cell.
func samePlanAssignments(a, b *hypar.Plan) bool {
	if a.NumLevels() != b.NumLevels() {
		return false
	}
	for h := range a.Levels {
		if len(a.Levels[h]) != len(b.Levels[h]) {
			return false
		}
		for l := range a.Levels[h] {
			if a.Levels[h][l] != b.Levels[h][l] {
				return false
			}
		}
	}
	return true
}

// HeteroTable evaluates mixed per-level platform assignments on the
// representative networks: each row runs HyPar on a heterogeneous
// array (per-level partition weights, per-level fabrics, boundary
// conversion charges at every platform seam) against that same array's
// Data Parallelism baseline. The differs-from column counts how many
// of the homogeneous platforms' HyPar plans the mixed plan disagrees
// with — n/3 means the mixed assignment produced dp/mp choices that
// none of those n single-platform arrays would make, i.e. the
// heterogeneous cost model genuinely shifts the optimum rather than
// inheriting one platform's plan.
func (s *Session) HeteroTable() (*report.Table, error) {
	if s.cfg.Levels < 2 {
		return nil, fmt.Errorf("%w: heterogeneous table needs a hierarchy of at least 2 levels, have %d",
			ErrExperiment, s.cfg.Levels)
	}
	names := hypar.Platforms()
	specs := heteroSpecs(s.cfg.Levels)
	zoo := s.Zoo()

	type cell struct {
		model *hypar.Model
		cfg   hypar.Config
	}
	var cells []cell
	for _, modelName := range platformTableModels {
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
		for _, spec := range specs {
			cfg := s.cfg
			cfg.Platform = ""
			cfg.Platforms = spec
			cfg.Topology = ""
			cfg.LinkMbps = 0
			cfg = cfg.Canonical()
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("%w: platforms %q: %v", ErrExperiment, spec, err)
			}
			cells = append(cells, cell{model: m, cfg: cfg})
		}
	}

	cmps, err := runner.MapWith(s.pool, cells, hypar.NewEvaluator,
		func(ev *hypar.Evaluator, _ int, c cell) (*hypar.Comparison, error) {
			cmp, err := ev.Compare(c.model, c.cfg)
			if err != nil {
				return nil, fmt.Errorf("%w: %s on %s: %v", ErrExperiment, c.model.Name, c.cfg.Platforms, err)
			}
			return cmp, nil
		})
	if err != nil {
		return nil, err
	}

	// The homogeneous references: each platform's own HyPar plan for
	// each model (partition search only — no simulation needed to
	// compare dp/mp choices).
	homPlans := make(map[string]map[string]*hypar.Plan, len(platformTableModels))
	for _, c := range cells {
		if _, ok := homPlans[c.model.Name]; ok {
			continue
		}
		homPlans[c.model.Name] = make(map[string]*hypar.Plan, len(names))
		for _, p := range names {
			cfg := s.cfg
			cfg.Platform = p
			cfg.Platforms = ""
			cfg.Topology = ""
			cfg.LinkMbps = 0
			plan, err := hypar.NewPlan(c.model, hypar.HyPar, cfg)
			if err != nil {
				return nil, fmt.Errorf("%w: homogeneous %s on %s: %v", ErrExperiment, c.model.Name, p, err)
			}
			homPlans[c.model.Name][p] = plan
		}
	}

	t := report.NewTable("Heterogeneous arrays: HyPar on mixed per-level platforms vs each array's Data Parallelism",
		"model", "platforms", "perf-gain", "energy-eff", "comm-GB", "mp-share", "differs-from", "last-layer")
	for i, c := range cells {
		cmp := cmps[i]
		hp := cmp.Results[hypar.HyPar]
		differs := 0
		for _, p := range names {
			if !samePlanAssignments(hp.Plan, homPlans[c.model.Name][p]) {
				differs++
			}
		}
		last := hp.Plan.LayerString(len(hp.Plan.Levels[0]) - 1)
		if err := t.AddRow(c.model.Name, string(c.cfg.Platforms),
			cmp.PerformanceGain(hypar.HyPar),
			cmp.EnergyEfficiency(hypar.HyPar),
			hp.Stats.CommBytes/1e9,
			mpShare(hp.Plan),
			fmt.Sprintf("%d/%d", differs, len(names)),
			last,
		); err != nil {
			return nil, err
		}
	}
	return t, nil
}
