package partition

import (
	"repro/internal/comm"
	"repro/internal/nn"
)

// DataParallel returns the default Data Parallelism baseline: every
// layer at every hierarchy level in data parallelism, with level h's
// volumes scored by ws[h] (the depth is len(ws)).
func DataParallel(m *nn.Model, batch int, ws []Weights) (*Plan, error) {
	return baseline(m, batch, ws, func(nn.Layer) comm.Parallelism { return comm.DP })
}

// ModelParallel returns the default Model Parallelism baseline: every
// layer at every hierarchy level in model parallelism, with level h's
// volumes scored by ws[h] (the depth is len(ws)).
func ModelParallel(m *nn.Model, batch int, ws []Weights) (*Plan, error) {
	return baseline(m, batch, ws, func(nn.Layer) comm.Parallelism { return comm.MP })
}

// OneWeirdTrick returns Krizhevsky's empirical configuration [111]:
// convolutional layers in data parallelism and fully-connected layers
// in model parallelism, at every hierarchy level, with level h's
// volumes scored by ws[h] (the depth is len(ws)).
func OneWeirdTrick(m *nn.Model, batch int, ws []Weights) (*Plan, error) {
	return baseline(m, batch, ws, func(l nn.Layer) comm.Parallelism {
		if l.Type == nn.FC {
			return comm.MP
		}
		return comm.DP
	})
}

// baseline evaluates the fixed assignment choose gives each layer,
// repeated at every level. The plan copies the levels, so they can all
// share one assignment.
func baseline(m *nn.Model, batch int, ws []Weights, choose func(nn.Layer) comm.Parallelism) (*Plan, error) {
	a := make(Assignment, len(m.Layers))
	for l, layer := range m.Layers {
		a[l] = choose(layer)
	}
	levels := make([]Assignment, len(ws))
	for h := range levels {
		levels[h] = a
	}
	return Evaluate(m, batch, levels, ws)
}
