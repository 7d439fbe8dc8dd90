package experiments

import (
	"fmt"
	"sort"
	"strconv"

	hypar "repro"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
)

// ExplorePoint is one simulated sample of a parallelism-space
// exploration: the free-variable bit codes and the performance
// normalized to Data Parallelism.
type ExplorePoint struct {
	// Code enumerates the free variables: bit i (LSB first) is the
	// choice of free[i] (0 = dp, 1 = mp).
	Code int
	// Labels maps each swept entity to its 0/1 choice string (e.g.
	// "H1" -> "0011" for Fig. 9, "conv5_2" -> "1000" for Fig. 10).
	Labels map[string]string
	// Gain is the performance normalized to Data Parallelism.
	Gain float64
	// IsHyPar marks the point whose free bits equal HyPar's own plan.
	IsHyPar bool
}

// Exploration is a full sweep with its peak and HyPar points.
type Exploration struct {
	Points []ExplorePoint
	Peak   ExplorePoint
	HyPar  ExplorePoint
}

// DefaultExploreLabel names each free variable "L<level>.<layer>" (see
// ExploreLabelKey) and renders its single 0/1 bit — the label function
// services and tools use when no figure-specific grouping applies. The
// names are formatted once, when the label function is made.
func DefaultExploreLabel(free []partition.FreeVar) func(code int) map[string]string {
	keys := make([]string, len(free))
	for i, fv := range free {
		keys[i] = ExploreLabelKey(fv)
	}
	return func(code int) map[string]string {
		labels := make(map[string]string, len(keys))
		for i, k := range keys {
			labels[k] = bits(code, i, 1)
		}
		return labels
	}
}

// ExploreLabelKey is DefaultExploreLabel's name for a free variable:
// "L<level>.<layer>".
func ExploreLabelKey(fv partition.FreeVar) string {
	return "L" + strconv.Itoa(fv.Level) + "." + strconv.Itoa(fv.Layer)
}

// ExploreStream evaluates all 2^len(free) settings of the free
// variables on top of the model's HyPar plan, simulates each point on
// the session pool, and hands the points to emit in code order a range
// at a time (runner.StreamWith) — point p's emission waits for its
// range, not for the sweep's tail, so NDJSON consumers see results
// before the sweep ends. The sweep is compiled once, before the
// fan-out, into a sim.SweepProgram that every worker shares, stepping
// up to 16 points a call. label may be nil (DefaultExploreLabel is
// used). An emit error stops the sweep between calls and is returned.
func (s *Session) ExploreStream(m *hypar.Model, free []partition.FreeVar,
	label func(code int) map[string]string, emit func(ExplorePoint) error) error {
	if label == nil {
		label = DefaultExploreLabel(free)
	}
	r, err := s.resolved()
	if err != nil {
		return err
	}
	base, err := r.Plan(nil, m, hypar.HyPar, hypar.PlanOptions{})
	if err != nil {
		return err
	}
	dp, err := hypar.NewEvaluator().Eval(nil, m, hypar.DataParallel, r)
	if err != nil {
		return err
	}
	arch, err := r.Arch()
	if err != nil {
		return err
	}
	var hyparCode int
	for i, fv := range free {
		// A degraded config's base plan covers only the surviving
		// sub-array, which may be shallower than the configured depth.
		if fv.Level < 0 || fv.Level >= len(base.Levels) || fv.Layer < 0 || fv.Layer >= len(base.Levels[fv.Level]) {
			return fmt.Errorf("%w: free variable (level %d, layer %d) is outside the %d-level, %d-layer base plan",
				ErrExperiment, fv.Level, fv.Layer, len(base.Levels), len(m.Layers))
		}
		if base.Levels[fv.Level][fv.Layer].Mark() == '1' {
			hyparCode |= 1 << uint(i)
		}
	}
	// Sweep points are scored with each level's platform weights, the
	// same objective the HyPar base plan optimized, so the HyPar point
	// reproduces Run's HyPar step exactly.
	sw, err := partition.NewSweep(m, r.Config().Batch, base.Levels, free, r.Assignment().PartitionWeights())
	if err != nil {
		return err
	}
	prog, err := sim.CompileSweep(m, sw, arch)
	if err != nil {
		return err
	}
	dpStep := dp.Stats.StepSeconds
	return runner.StreamWith(s.pool, sw.Points(), func() *sim.SweepScratch { return new(sim.SweepScratch) },
		func(sc *sim.SweepScratch, lo int, out []ExplorePoint) (int, error) {
			var steps [16]float64
			n, err := prog.Steps(sc, lo, steps[:min(len(out), len(steps))])
			for i, step := range steps[:n] {
				code := lo + i
				out[i] = ExplorePoint{
					Code:    code,
					Labels:  label(code),
					Gain:    dpStep / step,
					IsHyPar: code == hyparCode,
				}
			}
			return n, err
		},
		func(_ int, ep ExplorePoint) error { return emit(ep) })
}

// Explore evaluates all settings of the free variables on top of the
// HyPar plan and simulates each point, fanning the simulations out on
// the session pool. Points stay in code order and the peak/HyPar
// reduction runs serially over them, so the result is identical at any
// pool width. Fig9 and Fig10 are zoo-specific instances; arbitrary
// models (the hypard /v1/explore endpoint) come through here too.
func (s *Session) Explore(m *hypar.Model, free []partition.FreeVar,
	label func(code int) map[string]string) (*Exploration, error) {
	eps := make([]ExplorePoint, 0, 1<<uint(len(free)))
	if err := s.ExploreStream(m, free, label, func(ep ExplorePoint) error {
		eps = append(eps, ep)
		return nil
	}); err != nil {
		return nil, err
	}
	ex := &Exploration{Points: eps}
	for _, ep := range eps {
		if ep.Gain > ex.Peak.Gain {
			ex.Peak = ep
		}
		if ep.IsHyPar {
			ex.HyPar = ep
		}
	}
	if ex.HyPar.Labels == nil {
		return nil, fmt.Errorf("%w: HyPar's own point missing from exploration", ErrExperiment)
	}
	return ex, nil
}

// bits renders the given bit-slice of code as a 0/1 string, LSB-first
// variable order but most-significant level first in the string, to
// match the H1..H4 reading direction of Figures 9-10.
func bits(code, offset, width int) string {
	b := make([]byte, width)
	for i := 0; i < width; i++ {
		if code&(1<<uint(offset+i)) != 0 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// Fig9 explores the Lenet-c parallelism space (paper Figure 9): the
// parallelisms of all four weighted layers at levels H1 and H4 sweep
// over 2^8 = 256 points while H2 and H3 stay at HyPar's optimum. The
// returned table lists the peak point, HyPar's point, and the sweep
// sorted by gain (top ten rows). The top and bottom levels must
// differ, so the hierarchy needs at least 2 levels.
func (s *Session) Fig9() (*report.Table, *Exploration, error) {
	if s.cfg.Levels < 2 {
		return nil, nil, fmt.Errorf("%w: Figure 9 sweeps the top and bottom levels and needs a hierarchy of at least 2 levels, have %d",
			ErrExperiment, s.cfg.Levels)
	}
	m, err := hypar.ModelByName("Lenet-c")
	if err != nil {
		return nil, nil, err
	}
	nl := len(m.Layers)
	free := make([]partition.FreeVar, 0, 2*nl)
	for l := 0; l < nl; l++ {
		free = append(free, partition.FreeVar{Level: 0, Layer: l})
	}
	for l := 0; l < nl; l++ {
		free = append(free, partition.FreeVar{Level: s.cfg.Levels - 1, Layer: l})
	}
	label := func(code int) map[string]string {
		return map[string]string{
			"H1": bits(code, 0, nl),
			"H4": bits(code, nl, nl),
		}
	}
	ex, err := s.Explore(m, free, label)
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Figure 9: Lenet-c parallelism space (H1 and H4 swept, H2/H3 fixed)",
		"point", "H1", "H4", "gain-vs-DP")
	if err := addExploreRows(t, ex, []string{"H1", "H4"}); err != nil {
		return nil, nil, err
	}
	return t, ex, nil
}

// Fig10 explores the VGG-A space (paper Figure 10): the parallelisms of
// conv5_2 and fc1 across all four hierarchy levels sweep over 2^8 = 256
// points while every other layer stays at HyPar's optimum.
func (s *Session) Fig10() (*report.Table, *Exploration, error) {
	m, err := hypar.ModelByName("VGG-A")
	if err != nil {
		return nil, nil, err
	}
	conv52, fc1 := -1, -1
	for l, layer := range m.Layers {
		switch layer.Name {
		case "conv5_2":
			conv52 = l
		case "fc1":
			fc1 = l
		}
	}
	if conv52 < 0 || fc1 < 0 {
		return nil, nil, fmt.Errorf("%w: VGG-A layers not found", ErrExperiment)
	}
	free := make([]partition.FreeVar, 0, 2*s.cfg.Levels)
	for h := 0; h < s.cfg.Levels; h++ {
		free = append(free, partition.FreeVar{Level: h, Layer: conv52})
	}
	for h := 0; h < s.cfg.Levels; h++ {
		free = append(free, partition.FreeVar{Level: h, Layer: fc1})
	}
	label := func(code int) map[string]string {
		return map[string]string{
			"conv5_2": bits(code, 0, s.cfg.Levels),
			"fc1":     bits(code, s.cfg.Levels, s.cfg.Levels),
		}
	}
	ex, err := s.Explore(m, free, label)
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Figure 10: VGG-A parallelism space (conv5_2 and fc1 swept)",
		"point", "conv5_2", "fc1", "gain-vs-DP")
	if err := addExploreRows(t, ex, []string{"conv5_2", "fc1"}); err != nil {
		return nil, nil, err
	}
	return t, ex, nil
}

// addExploreRows emits the peak and HyPar rows followed by the ten best
// sweep points.
func addExploreRows(t *report.Table, ex *Exploration, keys []string) error {
	row := func(name string, p ExplorePoint) error {
		cells := make([]interface{}, 0, len(keys)+2)
		cells = append(cells, name)
		for _, k := range keys {
			cells = append(cells, p.Labels[k])
		}
		cells = append(cells, p.Gain)
		return t.AddRow(cells...)
	}
	if err := row("Peak", ex.Peak); err != nil {
		return err
	}
	if err := row("HyPar", ex.HyPar); err != nil {
		return err
	}
	sorted := make([]ExplorePoint, len(ex.Points))
	copy(sorted, ex.Points)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Gain > sorted[j].Gain })
	for i := 0; i < len(sorted) && i < 10; i++ {
		if err := row(fmt.Sprintf("top%02d", i+1), sorted[i]); err != nil {
			return err
		}
	}
	return nil
}
