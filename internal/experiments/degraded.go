package experiments

import (
	"fmt"

	hypar "repro"
	"repro/internal/report"
	"repro/internal/runner"
)

// degradedScenarios are the fault specs the table studies, one block of
// rows each. 1:2 loses two of the four level-1 groups — the array
// halves, survivors stay a power of two, replanning is a pure aligned
// snap to the 8-accelerator sub-array. 1:1 loses a single level-1
// group: 12 of 16 accelerators survive, the aligned snap would strand
// a third of them, and the evaluator's grouped candidate (three 4-wide
// groups running batch shards with a cross-group gradient allreduce)
// gets to show what the non-power-of-two survivor set is worth.
var degradedScenarios = []hypar.Faults{
	{Level: 1, Groups: 2},
	{Level: 1, Groups: 1},
}

// degradedRow is one (fault, model) degraded-side evaluation.
type degradedRow struct {
	hp *hypar.Result
	dp *hypar.Result
}

// degradedUnit names one (fault, model) cell of the fan-out.
type degradedUnit struct {
	faults hypar.Faults
	model  *hypar.Model
}

// DegradedTable reports how the zoo trains after each studied fault
// scenario knocks out part of the array: per fault and model, the
// healthy and degraded HyPar step times, the slowdown between them
// (how much the fault costs once HyPar replans over the survivors),
// HyPar's remaining gain over Data Parallelism on the degraded array,
// the accelerators the replanned step actually uses (groups × group
// width when the grouped non-power-of-two candidate wins, the aligned
// sub-array size otherwise), and the degraded plan's mp share and
// sink-layer choices. The healthy side reuses the session's zoo
// comparison; the degraded side evaluates HyPar and Data Parallelism
// at the same config with the fault spec applied. Rows are
// golden-pinned, so replanning drift cannot pass silently.
func (s *Session) DegradedTable() (*report.Table, error) {
	cfg := s.cfg.Canonical()
	if cfg.Levels < 2 {
		return nil, fmt.Errorf("%w: degraded table needs levels >= 2 (got %d)", ErrExperiment, cfg.Levels)
	}

	zoo := s.Zoo()
	units := make([]degradedUnit, 0, len(degradedScenarios)*len(zoo))
	for _, f := range degradedScenarios {
		dcfg := cfg
		dcfg.Faults = f
		if err := dcfg.Validate(); err != nil {
			return nil, fmt.Errorf("%w: degraded config %v: %v", ErrExperiment, f, err)
		}
		for _, m := range zoo {
			units = append(units, degradedUnit{faults: f, model: m})
		}
	}

	cmps, err := s.CompareZoo()
	if err != nil {
		return nil, err
	}
	rows, err := runner.MapWith(s.pool, units, hypar.NewEvaluator,
		func(ev *hypar.Evaluator, _ int, u degradedUnit) (degradedRow, error) {
			dcfg := cfg
			dcfg.Faults = u.faults
			hp, err := ev.Run(u.model, hypar.HyPar, dcfg)
			if err != nil {
				return degradedRow{}, fmt.Errorf("%w: %v %s: %v", ErrExperiment, u.faults, u.model.Name, err)
			}
			dp, err := ev.Run(u.model, hypar.DataParallel, dcfg)
			if err != nil {
				return degradedRow{}, fmt.Errorf("%w: %v %s: %v", ErrExperiment, u.faults, u.model.Name, err)
			}
			return degradedRow{hp: hp, dp: dp}, nil
		})
	if err != nil {
		return nil, err
	}

	t := report.NewTable(fmt.Sprintf(
		"Degraded array: HyPar replanned per fault spec (%d-accelerator array)", 1<<uint(cfg.Levels)),
		"fault", "model", "healthy-step-s", "degraded-step-s", "slowdown", "degraded-gain", "used-accels", "mp-share", "sink-layer")
	for i, u := range units {
		healthy := cmps[i%len(zoo)].Results[hypar.HyPar]
		row := rows[i]
		slowdown := 0.0
		if healthy.Stats.StepSeconds > 0 {
			slowdown = row.hp.Stats.StepSeconds / healthy.Stats.StepSeconds
		}
		gain := 0.0
		if row.hp.Stats.StepSeconds > 0 {
			gain = row.dp.Stats.StepSeconds / row.hp.Stats.StepSeconds
		}
		used := row.hp.Plan.NumAccelerators()
		if row.hp.DegradedGroups > 0 {
			used *= row.hp.DegradedGroups
		}
		if err := t.AddRow(
			u.faults.String(),
			u.model.Name,
			healthy.Stats.StepSeconds,
			row.hp.Stats.StepSeconds,
			slowdown,
			gain,
			used,
			mpShare(row.hp.Plan),
			row.hp.Plan.LayerString(len(u.model.Layers)-1),
		); err != nil {
			return nil, err
		}
	}
	return t, nil
}
