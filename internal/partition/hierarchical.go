package partition

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Hierarchical is Algorithm 2: it partitions a 2^H accelerator array by
// running Algorithm 1 at every hierarchy level, halving each layer's
// tensors between levels according to the level's choice (dp halves the
// batch; mp halves the kernel input dimension). The total communication
// follows the paper's recursion com = com_h + 2·com_n, i.e. level h's
// per-pair volume is counted once per group pair (2^h pairs). Branched
// (DAG) models run the graph generalization of Algorithm 1 per level;
// chains run the paper's O(L) recurrence unchanged.
func Hierarchical(m *nn.Model, batch, levels int) (*Plan, error) {
	return HierarchicalCtx(nil, m, batch, levels)
}

// HierarchicalCtx is Hierarchical with cancellation: the search checks
// ctx between hierarchy levels and inside the per-level frontier DP,
// returning ctx.Err() promptly when the context ends. A nil ctx never
// cancels.
func HierarchicalCtx(ctx context.Context, m *nn.Model, batch, levels int) (*Plan, error) {
	ws, err := repeatWeights(UnitWeights(), levels)
	if err != nil {
		return nil, err
	}
	return Solve(Request{Model: m, Batch: batch, Levels: ws, Ctx: ctx})
}

// Evaluate computes the communication volumes of an arbitrary
// hierarchical assignment (one Assignment per level) for the model. It
// is the reference evaluator used by the brute-force search, the
// baselines, and the Figure 9/10 space exploration; Hierarchical's own
// totals agree with it (tested).
func Evaluate(m *nn.Model, batch int, levels []Assignment) (*Plan, error) {
	shapes, preds, err := prepare(m, batch, len(levels))
	if err != nil {
		return nil, err
	}
	return evaluateShapesWith(m, batch, levels, shapes, EdgesOf(preds), trainingCosts)
}

// evaluateShapesWith is Evaluate with shape inference and edge
// resolution already done, so the enumeration hot paths (brute force,
// exploration) share one inference and one edge list across every plan
// they score; edges is shared read-only (every plan aliases it).
func evaluateShapesWith(m *nn.Model, batch int, levels []Assignment, shapes []nn.LayerShapes, edges []Edge, c costs) (*Plan, error) {
	return evaluateShapesLevelsWith(m, batch, levels, shapes, edges, repeatCosts(c, len(levels)))
}

// evaluateShapesLevelsWith is evaluateShapesWith under a per-level cost
// model: level h's volumes are scored by cs[h]. With every cs entry
// identical this is exactly the single-model evaluation (same functions
// in the same float order).
func evaluateShapesLevelsWith(m *nn.Model, batch int, levels []Assignment, shapes []nn.LayerShapes, edges []Edge, cs []costs) (*Plan, error) {
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
	fillDetailsLevelsWith(plan, shapes, cs)
	return plan, nil
}

// prepare validates the request, runs (memoized) shape inference, and
// resolves the layer graph, enforcing the package-default frontier cap.
func prepare(m *nn.Model, batch, levels int) ([]nn.LayerShapes, [][]int, error) {
	return prepareCap(m, batch, levels, 0)
}

// prepareCap is prepare under a per-request frontier cap: 0 means the
// package default (FrontierCap), positive values clamp to the
// compiled-in maximum, capUnlimited skips the width check entirely
// (the beam search, whose state space does not depend on the width).
func prepareCap(m *nn.Model, batch, levels, fcap int) ([]nn.LayerShapes, [][]int, error) {
	if levels < 0 {
		return nil, nil, fmt.Errorf("%w: negative hierarchy depth %d", ErrPlan, levels)
	}
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
	if fcap != capUnlimited {
		lim := FrontierCap()
		if fcap > 0 {
			lim = fcap
			if lim > maxGraphFrontier {
				lim = maxGraphFrontier
			}
		}
		if w := frontierWidth(preds); w > lim {
			return nil, nil, fmt.Errorf("%w: model %q needs a partition frontier of %d open layers (max %d)",
				ErrTooWide, m.Name, w, lim)
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

// repeatCosts expands one cost model to a per-level vector, the shape
// the per-level evaluation paths consume. Enumeration hot paths build
// it once outside their scan loops.
func repeatCosts(c costs, levels int) []costs {
	cs := make([]costs, levels)
	for h := range cs {
		cs[h] = c
	}
	return cs
}

// fillDetailsLevelsWith populates plan.Details and plan.TotalElems from
// the plan's level assignments, scoring level h under cs[h] and
// threading shard state down the hierarchy. Inter-layer conversions are
// charged per edge (plan.Edges) on the producer's boundary tensors, so
// a forked feature map pays one conversion per disagreeing consumer.
// Every level's volume vectors are cap-limited cuts of one backing
// array.
func fillDetailsLevelsWith(plan *Plan, shapes []nn.LayerShapes, cs []costs) {
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
