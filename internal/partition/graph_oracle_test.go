package partition

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/runner"
	"repro/internal/tensor"
)

// oracleRandomDAG builds a random valid branched model: conv layers use
// k=3/pad=1 with no pooling so every conv feature map shares the input's
// spatial extent (channel concat and residual add stay legal by
// construction), fc layers flatten anything. Dangling producers are
// swept into a final fc sink so the single-sink rule holds.
func oracleRandomDAG(r *rand.Rand, id int) *nn.Model {
	edge := 3 + r.Intn(5) // 3..7
	m := &nn.Model{
		Name:  fmt.Sprintf("dag-%d", id),
		Input: nn.Input{H: edge, W: edge, C: 1 + r.Intn(3)},
	}
	type prod struct {
		name string
		conv bool // conv output (spatial) vs fc output (flat)
		ch   int  // channels (conv) or neurons (fc)
	}
	// The model input is a spatial producer like a conv output.
	prods := []prod{{name: nn.InputName, conv: true, ch: m.Input.C}}
	n := 2 + r.Intn(5) // 2..6 random layers before the sink
	for i := 0; i < n; i++ {
		isConv := r.Intn(3) > 0 // conv-biased mix
		// Convolutions cannot consume flattened fc outputs.
		var cands []prod
		for _, p := range prods {
			if !isConv || p.conv {
				cands = append(cands, p)
			}
		}
		if len(cands) == 0 {
			isConv = false
			cands = prods
		}
		ins := []prod{cands[r.Intn(len(cands))]}
		join := nn.Concat
		if len(cands) >= 2 && r.Intn(2) == 0 {
			second := cands[r.Intn(len(cands))]
			if second.name != ins[0].name {
				ins = append(ins, second)
				// Add joins need identical shapes: same producer kind and
				// channel count (spatial extents match by construction).
				if ins[0].conv == second.conv && ins[0].ch == second.ch && r.Intn(2) == 0 {
					join = nn.Add
				}
			}
		}
		names := make([]string, len(ins))
		for j, p := range ins {
			names[j] = p.name
		}
		l := nn.Layer{Name: fmt.Sprintf("l%d", i), Inputs: names, Join: join, Act: nn.ReLU}
		if isConv {
			l.Type = nn.Conv
			l.K, l.Pad = 3, 1
			l.Cout = 1 + r.Intn(6)
		} else {
			l.Type = nn.FC
			l.Cout = 1 + r.Intn(24)
		}
		m.Layers = append(m.Layers, l)
		prods = append(prods, prod{name: l.Name, conv: isConv, ch: l.Cout})
	}
	// Sweep every dangling producer into one fc sink.
	consumed := map[string]bool{}
	for _, l := range m.Layers {
		for _, in := range l.Inputs {
			consumed[in] = true
		}
	}
	var dangling []string
	for _, l := range m.Layers {
		if !consumed[l.Name] {
			dangling = append(dangling, l.Name)
		}
	}
	m.Layers = append(m.Layers, nn.Layer{
		Name: "sink", Type: nn.FC, Cout: 1 + r.Intn(10), Inputs: dangling, Act: nn.Softmax,
	})
	return m
}

// TestTwoWayGraphMatchesExhaustiveOracle is the graph-DP guarantee on
// 250 random DAGs: the frontier dynamic program's minimum equals the
// true minimum of the per-edge objective over all 2^L assignments, and
// its traceback achieves it.
func TestTwoWayGraphMatchesExhaustiveOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	branched := 0
	for trial := 0; trial < 250; trial++ {
		m := oracleRandomDAG(r, trial)
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid model: %v", trial, err)
		}
		preds, err := m.LayerPreds()
		if err != nil {
			t.Fatal(err)
		}
		if !isChain(preds) {
			branched++
		}
		batch := 1 << uint(r.Intn(4))
		shapes, err := m.Shapes(batch)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, m.Name, err)
		}
		amounts := make([]comm.LayerAmounts, len(shapes))
		var sh tensor.Shard
		for l := range shapes {
			amounts[l] = comm.Amounts(&shapes[l], sh)
		}

		got, assign, err := twoWayGraphWith(nil, amounts, preds, unitCosts)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, m.Name, err)
		}

		nl := len(amounts)
		want := math.Inf(1)
		var wantA Assignment
		for code := 0; code < 1<<uint(nl); code++ {
			a := make(Assignment, nl)
			for b := 0; b < nl; b++ {
				if code&(1<<uint(b)) != 0 {
					a[b] = comm.MP
				}
			}
			c := assignmentCostGraph(amounts, preds, a)
			if c < want {
				want, wantA = c, a
			}
		}

		if !almostEq(got, want) {
			t.Errorf("trial %d (%s, batch %d): graph DP=%g oracle=%g (oracle %v, dp %v)",
				trial, m.Name, batch, got, want, wantA, assign)
		}
		if ac := assignmentCostGraph(amounts, preds, assign); !almostEq(ac, got) {
			t.Errorf("trial %d (%s): traceback assignment costs %g, dp claims %g", trial, m.Name, ac, got)
		}
	}
	// The generator must actually exercise branched structure, not
	// collapse to chains.
	if branched < 150 {
		t.Fatalf("only %d of 250 random models were branched", branched)
	}
}

// TestTwoWayGraphMatchesChainDP pins the dispatch: on chains the graph
// entry point returns exactly the paper recurrence's result, traceback
// included.
func TestTwoWayGraphMatchesChainDP(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		m := oracleRandomModel(r, 3000+trial)
		preds, err := m.LayerPreds()
		if err != nil {
			t.Fatal(err)
		}
		shapes, err := m.Shapes(4)
		if err != nil {
			t.Fatal(err)
		}
		amounts := make([]comm.LayerAmounts, len(shapes))
		var sh tensor.Shard
		for l := range shapes {
			amounts[l] = comm.Amounts(&shapes[l], sh)
		}
		cCost, cAssign := twoWayWith(amounts, unitCosts)
		gCost, gAssign, err := twoWayGraphWith(nil, amounts, preds, unitCosts)
		if err != nil {
			t.Fatal(err)
		}
		if cCost != gCost || cAssign.String() != gAssign.String() {
			t.Fatalf("trial %d: chain %g/%s vs graph %g/%s", trial, cCost, cAssign, gCost, gAssign)
		}
	}
}

// TestGraphHierarchicalNeverBeatsBruteForce is the Algorithm 2 oracle
// bound on branched models: the level-greedy hierarchical search ties
// or loses against the exhaustive minimum, never wins — the same
// guarantee the chain suite pins, now with skip and branch edges in
// the objective.
func TestGraphHierarchicalNeverBeatsBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pool := runner.Serial()
	trials := 0
	for id := 0; trials < 60; id++ {
		m := oracleRandomDAG(r, 5000+id)
		levels := 1 + r.Intn(2) // 1..2
		if levels*len(m.Layers) > 12 {
			continue // keep the exhaustive side ≤ 2^12 plans
		}
		trials++
		batch := 1 << uint(r.Intn(3))

		hier := mustHier(t, m, batch, levels)
		bf, err := Solve(Request{Model: m, Batch: batch, Levels: unit(levels), Pool: pool, Method: MethodBrute})
		if err != nil {
			t.Fatalf("%s: brute force: %v", m.Name, err)
		}
		if hier.TotalElems < bf.TotalElems && !almostEq(hier.TotalElems, bf.TotalElems) {
			t.Errorf("%s (batch %d, levels %d): Hierarchical %g beats BruteForce %g — oracle violated",
				m.Name, batch, levels, hier.TotalElems, bf.TotalElems)
		}
	}
}

// TestGraphEvaluateChargesSkipEdges pins the per-edge cost model on a
// hand-checked fork: a producer whose two consumers disagree with it
// pays one Table 2 conversion per disagreeing edge.
func TestGraphEvaluateChargesSkipEdges(t *testing.T) {
	m := &nn.Model{
		Name:  "fork",
		Input: nn.Input{H: 4, W: 4, C: 2},
		Layers: []nn.Layer{
			{Name: "a", Type: nn.Conv, K: 3, Pad: 1, Cout: 2, Act: nn.ReLU},
			{Name: "b1", Type: nn.Conv, K: 3, Pad: 1, Cout: 2, Act: nn.ReLU, Inputs: []string{"a"}},
			{Name: "b2", Type: nn.Conv, K: 3, Pad: 1, Cout: 2, Act: nn.ReLU, Inputs: []string{"a"}},
			{Name: "c", Type: nn.FC, Cout: 4, Inputs: []string{"b1", "b2"}},
		},
	}
	// a=mp, everything else mp too except the two branches force the
	// a→b1 and a→b2 edges into mp-mp transitions: each pays 0.5·A(E).
	assign := Assignment{comm.MP, comm.MP, comm.MP, comm.MP}
	plan, err := Evaluate(m, 2, []Assignment{assign}, unit(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Edges) != 4 {
		t.Fatalf("fork model has %d edges, want 4 (%v)", len(plan.Edges), plan.Edges)
	}
	shapes, err := m.Shapes(2)
	if err != nil {
		t.Fatal(err)
	}
	var sh tensor.Shard
	aAmounts := comm.Amounts(&shapes[0], sh)
	wantPerEdge := 0.5 * aAmounts.EBound
	d := plan.Details[0]
	for e, ed := range plan.Edges {
		if ed.Src != 0 {
			continue
		}
		if d.InterF[e] != 0 {
			t.Errorf("edge %v: mp-mp charged F conversion %g", ed, d.InterF[e])
		}
		if !almostEq(d.InterE[e], wantPerEdge) {
			t.Errorf("edge %v: E conversion %g, want %g", ed, d.InterE[e], wantPerEdge)
		}
	}
	// The plan total equals the graph objective for the assignment.
	amounts := make([]comm.LayerAmounts, len(shapes))
	for l := range shapes {
		amounts[l] = comm.Amounts(&shapes[l], sh)
	}
	preds, err := m.LayerPreds()
	if err != nil {
		t.Fatal(err)
	}
	if want := assignmentCostGraph(amounts, preds, assign); !almostEq(plan.TotalElems, want) {
		t.Errorf("plan total %g, graph objective %g", plan.TotalElems, want)
	}
}
