package partition

import (
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Evaluate computes the communication volumes of an arbitrary
// hierarchical assignment (one Assignment per level) for the model,
// scoring level h's volumes with ws[h]; len(ws) must equal
// len(levels). It is the reference evaluator behind the baselines and
// the Figure 9/10 space exploration, and the search's own plans agree
// with it exactly (tested).
func Evaluate(m *nn.Model, batch int, levels []Assignment, ws []Weights) (*Plan, error) {
	cs, err := levelCosts(ws, ObjectiveTraining)
	if err != nil {
		return nil, err
	}
	shapes, g, err := prepare(m, batch, len(levels), true)
	if err != nil {
		return nil, err
	}
	return evaluateShapes(m, batch, levels, shapes, slices.Clone(g.Edges), cs)
}

// evaluateShapes is Evaluate after shape inference, graph resolution
// and cost compilation; the plan aliases edges.
func evaluateShapes(m *nn.Model, batch int, levels []Assignment, shapes []nn.LayerShapes, edges []Edge, cs []costs) (*Plan, error) {
	if err := checkLevels(m.Name, levels, len(shapes), cs); err != nil {
		return nil, err
	}
	plan := &Plan{Model: m.Name, Batch: batch, Levels: cutLevels(len(levels), len(shapes)), Edges: edges}
	for h := range levels {
		copy(plan.Levels[h], levels[h])
	}
	fillDetails(plan, shapes, cs)
	return plan, nil
}

// checkLevels checks levels' shape against cs and nl, and each choice.
func checkLevels(model string, levels []Assignment, nl int, cs []costs) error {
	if len(cs) != len(levels) {
		return fmt.Errorf("%w: %d per-level cost models for %d levels", ErrPlan, len(cs), len(levels))
	}
	for h, a := range levels {
		if len(a) != nl {
			return fmt.Errorf("%w: level %d has %d choices, model %q has %d layers",
				ErrPlan, h, len(a), model, nl)
		}
	}
	return (&Plan{Levels: levels}).Validate()
}

// cutLevels returns levels assignments of nl choices cut, cap-limited,
// from one backing array, so an append to one never overwrites the next.
func cutLevels(levels, nl int) []Assignment {
	as := make([]Assignment, levels)
	marks := make([]comm.Parallelism, levels*nl)
	for h := range as {
		as[h] = marks[h*nl : (h+1)*nl : (h+1)*nl]
	}
	return as
}

// cutDetails returns levels zeroed LevelDetails for nl layers and ne
// edges whose volume vectors are cap-limited cuts of one backing array.
func cutDetails(levels, nl, ne int) []LevelDetail {
	ds := make([]LevelDetail, levels)
	per := 2*nl + 2*ne
	vols := make([]float64, levels*per)
	for h := range ds {
		v := vols[h*per : (h+1)*per : (h+1)*per]
		ds[h] = LevelDetail{
			IntraFwd:  v[:nl:nl],
			IntraGrad: v[nl : 2*nl : 2*nl],
			InterF:    v[2*nl : 2*nl+ne : 2*nl+ne],
			InterE:    v[2*nl+ne:],
		}
	}
	return ds
}

// prepare bounds the hierarchy depth and reads the model's (memoized)
// shapes and layer graph. With boundFrontier set it refuses a graph
// whose frontier exceeds maxGraphFrontier; only the beam search, whose
// state space does not depend on the width, skips the check. The graph
// is the model's own: a plan copies its edges.
func prepare(m *nn.Model, batch, levels int, boundFrontier bool) ([]nn.LayerShapes, *nn.Graph, error) {
	if levels > 20 {
		return nil, nil, fmt.Errorf("%w: hierarchy depth %d (2^%d accelerators) is unreasonable",
			ErrPlan, levels, levels)
	}
	shapes, g, err := m.Derive(batch)
	if err != nil {
		return nil, nil, err
	}
	if boundFrontier && !g.Chain {
		if w := FrontierWidth(g.Preds); w > maxGraphFrontier {
			return nil, nil, fmt.Errorf("%w: model %q needs a partition frontier of %d open layers (max %d)",
				ErrTooWide, m.Name, w, maxGraphFrontier)
		}
	}
	return shapes, g, nil
}

// amountsAt writes the per-pair amounts of every layer under the given
// shard states into amounts, which holds one entry per layer.
func amountsAt(amounts []comm.LayerAmounts, shapes []nn.LayerShapes, shards []tensor.Shard) {
	for l := range shapes {
		amounts[l] = comm.Amounts(&shapes[l], shards[l])
	}
}

// fillDetails populates plan.Details and plan.TotalElems from
// the plan's level assignments, scoring level h under cs[h] and
// threading shard state down the hierarchy. Inter-layer conversions are
// charged per edge (plan.Edges) on the producer's boundary tensors, so
// a forked feature map pays one conversion per disagreeing consumer.
// Every level's volume vectors are cap-limited cuts of one backing
// array (cutDetails).
func fillDetails(plan *Plan, shapes []nn.LayerShapes, cs []costs) {
	nl := len(shapes)
	shards := make([]tensor.Shard, nl)
	amounts := make([]comm.LayerAmounts, nl)
	plan.Details = cutDetails(len(plan.Levels), nl, len(plan.Edges))
	plan.TotalElems = 0

	for h, assign := range plan.Levels {
		c := cs[h]
		amountsAt(amounts, shapes, shards)
		d := plan.Details[h]
		for l := 0; l < nl; l++ {
			switch assign[l] {
			case comm.MP:
				d.IntraFwd[l] = c.intra(comm.MP, amounts[l])
			default:
				d.IntraGrad[l] = c.intra(comm.DP, amounts[l])
			}
		}
		for e, ed := range plan.Edges {
			d.InterF[e] = c.interF(assign[ed.Src], assign[ed.Dst], amounts[ed.Src])
			d.InterE[e] = c.interE(assign[ed.Src], assign[ed.Dst], amounts[ed.Src])
		}
		pairs := float64(int64(1) << uint(h))
		plan.TotalElems += pairs * plan.PerPairElems(h)

		for l := range shards {
			shards[l] = shards[l].Apply(assign[l] == comm.DP)
		}
	}
}
