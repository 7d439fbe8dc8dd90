package experiments

import (
	"fmt"

	hypar "repro"
	"repro/internal/report"
	"repro/internal/runner"
)

// BranchedTable compares every strategy on the branched (DAG) workload
// networks — the residual SRES-8 and the two-branch Incep-2 — at the
// session configuration. One row per model and strategy reports the
// Fig6/Fig7 normalizations, the communication total, the skip-edge
// count beyond a plain chain, the mp share of the plan and the sink
// layer's per-level choices: the compact view of how the graph dynamic
// program treats fork and join edges that a chain never has. The rows
// are golden-pinned next to Fig6-8, so graph-DP drift cannot pass
// silently.
func (s *Session) BranchedTable() (*report.Table, error) {
	models := s.Branched()
	cmps, err := runner.MapWith(s.pool, models, hypar.NewEvaluator,
		func(ev *hypar.Evaluator, _ int, m *hypar.Model) (*hypar.Comparison, error) {
			cmp, err := ev.Compare(m, s.cfg)
			if err != nil {
				return nil, fmt.Errorf("%w: %s: %v", ErrExperiment, m.Name, err)
			}
			return cmp, nil
		})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Branched (DAG) workloads: per-strategy results at the session config",
		"model", "skip-edges", "strategy", "perf-gain", "energy-eff", "comm-GB", "mp-share", "sink-layer")
	for i, m := range models {
		cmp := cmps[i]
		skips, err := m.SkipEdges()
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrExperiment, m.Name, err)
		}
		for _, st := range hypar.Strategies {
			r := cmp.Results[st]
			if err := t.AddRow(m.Name, skips, st.String(),
				cmp.PerformanceGain(st),
				cmp.EnergyEfficiency(st),
				r.Stats.CommBytes/1e9,
				mpShare(r.Plan),
				r.Plan.LayerString(len(m.Layers)-1),
			); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
