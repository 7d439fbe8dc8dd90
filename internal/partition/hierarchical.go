package partition

import (
	"fmt"
	"sort"

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
	shapes, preds, err := prepare(m, batch, len(levels), true)
	if err != nil {
		return nil, err
	}
	return evaluateShapes(m, batch, levels, shapes, EdgesOf(preds), cs)
}

// evaluateShapes is Evaluate with shape inference, edge resolution and
// cost compilation already done, so the enumeration hot paths (brute
// force, exploration) share them across every plan they score; edges
// is shared read-only (every plan aliases it).
func evaluateShapes(m *nn.Model, batch int, levels []Assignment, shapes []nn.LayerShapes, edges []Edge, cs []costs) (*Plan, error) {
	if len(cs) != len(levels) {
		return nil, fmt.Errorf("%w: %d per-level cost models for %d levels", ErrPlan, len(cs), len(levels))
	}
	for h, a := range levels {
		if len(a) != len(shapes) {
			return nil, fmt.Errorf("%w: level %d has %d choices, model %q has %d layers",
				ErrPlan, h, len(a), m.Name, len(shapes))
		}
	}
	// The plan's assignments share one backing array, cut into
	// cap-limited per-level slices so an append to one level can never
	// overwrite the next.
	nl := len(shapes)
	plan := &Plan{Model: m.Name, Batch: batch, Levels: make([]Assignment, len(levels)), Edges: edges}
	marks := make([]comm.Parallelism, len(levels)*nl)
	for h := range levels {
		plan.Levels[h] = marks[h*nl : (h+1)*nl : (h+1)*nl]
		copy(plan.Levels[h], levels[h])
	}
	fillDetails(plan, shapes, cs)
	return plan, nil
}

// prepare bounds the hierarchy depth, runs (memoized) shape inference,
// and resolves the layer graph. With boundFrontier set it refuses a graph
// whose frontier exceeds maxGraphFrontier; only the beam search, whose
// state space does not depend on the width, skips the check.
func prepare(m *nn.Model, batch, levels int, boundFrontier bool) ([]nn.LayerShapes, [][]int, error) {
	if levels > 20 {
		return nil, nil, fmt.Errorf("%w: hierarchy depth %d (2^%d accelerators) is unreasonable",
			ErrPlan, levels, levels)
	}
	shapes, err := m.CachedShapes(batch)
	if err != nil {
		return nil, nil, err
	}
	preds, err := m.LayerPreds()
	if err != nil {
		return nil, nil, err
	}
	if boundFrontier {
		if w := FrontierWidth(preds); w > maxGraphFrontier {
			return nil, nil, fmt.Errorf("%w: model %q needs a partition frontier of %d open layers (max %d)",
				ErrTooWide, m.Name, w, maxGraphFrontier)
		}
	}
	return shapes, preds, nil
}

// EdgesOf derives the layer-to-layer edge list from resolved
// predecessors, in canonical (Src, then Dst) order. Model-input
// references (-1) carry no partition cost and are dropped.
func EdgesOf(preds [][]int) []Edge {
	var edges []Edge
	for v, ps := range preds {
		for _, u := range ps {
			if u >= 0 {
				edges = append(edges, Edge{Src: u, Dst: v})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	return edges
}

// amountsAt writes the per-pair amounts of every layer under the given
// shard states into amounts, which holds one entry per layer.
func amountsAt(amounts []comm.LayerAmounts, shapes []nn.LayerShapes, shards []tensor.Shard) {
	for l := range shapes {
		amounts[l] = comm.Amounts(shapes[l], shards[l])
	}
}

// fillDetails populates plan.Details and plan.TotalElems from
// the plan's level assignments, scoring level h under cs[h] and
// threading shard state down the hierarchy. Inter-layer conversions are
// charged per edge (plan.Edges) on the producer's boundary tensors, so
// a forked feature map pays one conversion per disagreeing consumer.
// Every level's volume vectors are cap-limited cuts of one backing
// array.
func fillDetails(plan *Plan, shapes []nn.LayerShapes, cs []costs) {
	nl, ne := len(shapes), len(plan.Edges)
	shards := make([]tensor.Shard, nl)
	amounts := make([]comm.LayerAmounts, nl)
	plan.Details = make([]LevelDetail, len(plan.Levels))
	plan.TotalElems = 0
	per := 2*nl + 2*ne
	vols := make([]float64, len(plan.Levels)*per)

	for h, assign := range plan.Levels {
		c := cs[h]
		amountsAt(amounts, shapes, shards)
		v := vols[h*per : (h+1)*per : (h+1)*per]
		d := LevelDetail{
			IntraFwd:  v[:nl:nl],
			IntraGrad: v[nl : 2*nl : 2*nl],
			InterF:    v[2*nl : 2*nl+ne : 2*nl+ne],
			InterE:    v[2*nl+ne:],
		}
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
		plan.Details[h] = d
		pairs := float64(int64(1) << uint(h))
		plan.TotalElems += pairs * plan.PerPairElems(h)

		for l := range shards {
			shards[l] = shards[l].Apply(assign[l] == comm.DP)
		}
	}
}
