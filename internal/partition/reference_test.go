package partition

import "repro/internal/comm"

// unitCosts is the paper's training cost model at unit weights, the
// objective the reference evaluators below compute.
var unitCosts = UnitWeights().objectiveCosts(ObjectiveTraining)

// assignmentCost evaluates the Algorithm 1 objective for a fixed chain
// assignment on the given amounts: the exhaustive reference the chain
// recurrence is compared against.
func assignmentCost(amounts []comm.LayerAmounts, a Assignment) float64 {
	var total float64
	for i := range amounts {
		total += comm.Intra(a[i], amounts[i])
		if i > 0 {
			total += comm.InterF(a[i-1], a[i], amounts[i-1]) + comm.InterE(a[i-1], a[i], amounts[i-1])
		}
	}
	return total
}

// assignmentCostGraph evaluates the graph form of the Algorithm 1
// objective: every layer's intra-layer exchange plus, for every
// layer-to-layer edge, the Table 2 conversion on the producer's
// boundary tensors. preds is the model's resolved predecessor list
// (nn.Model.LayerPreds; -1 entries denote the model input and carry no
// cost). For a chain it equals assignmentCost.
func assignmentCostGraph(amounts []comm.LayerAmounts, preds [][]int, a Assignment) float64 {
	var total float64
	for i := range amounts {
		total += comm.Intra(a[i], amounts[i])
		for _, u := range preds[i] {
			if u >= 0 {
				total += comm.InterF(a[u], a[i], amounts[u]) + comm.InterE(a[u], a[i], amounts[u])
			}
		}
	}
	return total
}
