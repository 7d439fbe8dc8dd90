package partition

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/nn"
)

// twoWayWith is Algorithm 1: partition between two accelerator groups
// under the cost model c. It takes the per-layer sharded tensor amounts
// (already reflecting the hierarchy levels above this one) and returns
// the minimum total one-direction communication together with the
// optimal parallelism per layer. Time complexity is O(L).
//
// The recurrence (paper §4.1):
//
//	com_dp[l] = min(com_dp[l-1] + inter(dp,dp), com_mp[l-1] + inter(mp,dp)) + intra_dp(l)
//	com_mp[l] = min(com_dp[l-1] + inter(dp,mp), com_mp[l-1] + inter(mp,mp)) + intra_mp(l)
//
// where inter terms are evaluated on the boundary tensors F_l / E_l
// produced by layer l-1. Ties keep data parallelism.
func twoWayWith(amounts []comm.LayerAmounts, c costs) (float64, Assignment) {
	l := len(amounts)
	if l == 0 {
		return 0, nil
	}
	dpCells.Add(int64(2 * l)) // two recurrence cells per layer
	inter := func(prev, cur comm.Parallelism, a comm.LayerAmounts) float64 {
		return c.interF(prev, cur, a) + c.interE(prev, cur, a)
	}

	// comDP/comMP hold the best accumulated cost with layer l ending in
	// dp/mp; fromDP records which predecessor achieved it (traceback).
	comDP := make([]float64, l)
	comMP := make([]float64, l)
	dpFromDP := make([]bool, l)
	mpFromDP := make([]bool, l)

	comDP[0] = c.intra(comm.DP, amounts[0])
	comMP[0] = c.intra(comm.MP, amounts[0])

	for i := 1; i < l; i++ {
		bound := amounts[i-1] // F_l and E_l live on the l-1 / l boundary

		viaDP := comDP[i-1] + inter(comm.DP, comm.DP, bound)
		viaMP := comMP[i-1] + inter(comm.MP, comm.DP, bound)
		if viaDP <= viaMP {
			comDP[i] = viaDP
			dpFromDP[i] = true
		} else {
			comDP[i] = viaMP
		}
		comDP[i] += c.intra(comm.DP, amounts[i])

		viaDP = comDP[i-1] + inter(comm.DP, comm.MP, bound)
		viaMP = comMP[i-1] + inter(comm.MP, comm.MP, bound)
		if viaDP <= viaMP {
			comMP[i] = viaDP
			mpFromDP[i] = true
		} else {
			comMP[i] = viaMP
		}
		comMP[i] += c.intra(comm.MP, amounts[i])
	}

	assign := make(Assignment, l)
	var best float64
	if comDP[l-1] <= comMP[l-1] {
		best = comDP[l-1]
		assign[l-1] = comm.DP
	} else {
		best = comMP[l-1]
		assign[l-1] = comm.MP
	}
	for i := l - 1; i > 0; i-- {
		var fromDP bool
		if assign[i] == comm.DP {
			fromDP = dpFromDP[i]
		} else {
			fromDP = mpFromDP[i]
		}
		if fromDP {
			assign[i-1] = comm.DP
		} else {
			assign[i-1] = comm.MP
		}
	}
	return best, assign
}

// maxGraphFrontier bounds the number of simultaneously open layers the
// graph dynamic program tracks. The state space is 2^frontier per step;
// real branched networks (residual blocks, inception stems) keep the
// frontier at 2-3, so 16 is far above anything sane while still
// bounding the worst case (and keeping the uint32 state keys valid).
const maxGraphFrontier = 16

// ErrTooWide reports a model whose layer graph needs a partition
// frontier wider than maxGraphFrontier: the O(L·2^frontier) dynamic
// program would blow up, so the request is rejected up front with a
// typed error. ErrTooWide wraps ErrPlan, so errors.Is matches both.
var ErrTooWide = fmt.Errorf("%w: partition frontier too wide", ErrPlan)

// ctxErr reports the context's error, treating a nil context as one
// that never cancels — the hot loops call this at checkpoints.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// isChain reports whether the resolved predecessors describe a plain
// linear chain (layer l consuming exactly layer l-1). One definition
// of "chain" exists — nn.ChainPreds — shared with the trainer gate and
// the canonical encoder.
func isChain(preds [][]int) bool { return nn.ChainPreds(preds) }

// FrontierWidth returns the maximum number of simultaneously open
// layers (produced but not yet fully consumed) over a topological walk
// of the resolved predecessor lists — the width the exact graph DP's
// state space is exponential in, and the quantity its 16-open-layer cap
// bounds. Chains have width 1.
func FrontierWidth(preds [][]int) int {
	nl := len(preds)
	remaining := make([]int, nl)
	for _, ps := range preds {
		for _, u := range ps {
			if u >= 0 {
				remaining[u]++
			}
		}
	}
	open, width := 0, 0
	for l := 0; l < nl; l++ {
		for _, u := range preds[l] {
			if u >= 0 {
				remaining[u]--
				if remaining[u] == 0 {
					open--
				}
			}
		}
		if remaining[l] > 0 {
			open++
		}
		if open > width {
			width = open
		}
	}
	return width
}

// twoWayGraphWith is Algorithm 1 over a branched layer graph: it
// returns the minimum total one-direction communication and the
// per-layer optimum for one group pair, charging the Table 2
// conversions on every layer-to-layer edge whose endpoints disagree.
// Chains dispatch to the paper's O(L) recurrence; general DAGs run an
// exact dynamic program over the set of open layers (the "frontier"),
// O(L · 2^frontier). Callers must have bounded the frontier width to
// maxGraphFrontier (prepare does) or the uint32 state keys overflow. It
// processes layers in topological order,
// carrying one state per assignment of the currently open layers —
// layers whose outputs a later layer still consumes. Extending a state
// with layer l's choice charges l's intra cost plus the conversion on
// every incoming edge; a layer leaves the frontier when its last
// consumer is processed, minimizing over its bit. Ties keep the more
// data-parallel assignment, deterministically. The context (nil = never
// cancels) is checked once per layer step, so a wide-frontier DP
// returns promptly after cancellation.
func twoWayGraphWith(ctx context.Context, amounts []comm.LayerAmounts, preds [][]int, c costs) (float64, Assignment, error) {
	nl := len(amounts)
	if nl == 0 {
		return 0, nil, nil
	}
	if isChain(preds) {
		cost, assign := twoWayWith(amounts, c)
		return cost, assign, nil
	}

	remaining := make([]int, nl) // unprocessed consumers per layer
	for _, ps := range preds {
		for _, u := range ps {
			if u >= 0 {
				remaining[u]++
			}
		}
	}

	// step records, per processed layer, the frontier it extended
	// (previous frontier + the layer itself, the layer last) and the
	// winning extended state behind every projected state.
	type step struct {
		midFrontier []int
		pick        map[uint32]uint32
	}
	steps := make([]step, nl)

	frontier := []int{}
	states := map[uint32]float64{0: 0}

	for l := 0; l < nl; l++ {
		if err := ctxErr(ctx); err != nil {
			return 0, nil, err
		}
		pos := make(map[int]int, len(frontier))
		for i, u := range frontier {
			pos[u] = i
		}
		midFrontier := append(append(make([]int, 0, len(frontier)+1), frontier...), l)
		lbit := uint32(1) << uint(len(frontier))

		// Phase A: extend every state with both choices for l. Each
		// (state, choice) yields a distinct extended key — no merging.
		mid := make(map[uint32]float64, 2*len(states))
		for key, cost := range states {
			for _, p := range []comm.Parallelism{comm.DP, comm.MP} {
				nc := cost + c.intra(p, amounts[l])
				for _, u := range preds[l] {
					if u < 0 {
						continue
					}
					pu := comm.DP
					if key&(1<<uint(pos[u])) != 0 {
						pu = comm.MP
					}
					nc += c.interF(pu, p, amounts[u]) + c.interE(pu, p, amounts[u])
				}
				mk := key
				if p == comm.MP {
					mk |= lbit
				}
				mid[mk] = nc
			}
		}
		dpCells.Add(int64(len(mid)))

		// Phase B: close layers whose last consumer was l (and l itself
		// when nothing consumes it — the sink), minimizing over their
		// bits. Extended keys are visited in ascending order so ties
		// resolve to the lowest key (more dp), independent of map order.
		for _, u := range preds[l] {
			if u >= 0 {
				remaining[u]--
			}
		}
		var keepPos []int
		newFrontier := frontier[:0:0]
		for i, u := range midFrontier {
			if remaining[u] > 0 {
				keepPos = append(keepPos, i)
				newFrontier = append(newFrontier, u)
			}
		}
		mks := make([]uint32, 0, len(mid))
		for mk := range mid {
			mks = append(mks, mk)
		}
		sort.Slice(mks, func(i, j int) bool { return mks[i] < mks[j] })
		after := make(map[uint32]float64, len(mid))
		pick := make(map[uint32]uint32, len(mid))
		for _, mk := range mks {
			var ak uint32
			for j, i := range keepPos {
				if mk&(1<<uint(i)) != 0 {
					ak |= 1 << uint(j)
				}
			}
			if old, ok := after[ak]; !ok || mid[mk] < old {
				after[ak] = mid[mk]
				pick[ak] = mk
			}
		}
		steps[l] = step{midFrontier: midFrontier, pick: pick}
		frontier = newFrontier
		states = after
	}

	// A single sink (validated by the model) leaves the final frontier
	// empty — one state, keyed 0. Minimize over final states anyway so
	// hand-built multi-sink graphs still resolve, lowest key on ties.
	finals := make([]uint32, 0, len(states))
	for k := range states {
		finals = append(finals, k)
	}
	sort.Slice(finals, func(i, j int) bool { return finals[i] < finals[j] })
	best, key := states[finals[0]], finals[0]
	for _, k := range finals[1:] {
		if states[k] < best {
			best, key = states[k], k
		}
	}

	// Traceback: walk the steps backward; each winning extended key
	// fixes the choices of every layer open at that step (consistent
	// along the path), and its low bits are the previous state's key.
	assign := make(Assignment, nl)
	for l := nl - 1; l >= 0; l-- {
		mk := steps[l].pick[key]
		for i, u := range steps[l].midFrontier {
			if mk&(1<<uint(i)) != 0 {
				assign[u] = comm.MP
			} else {
				assign[u] = comm.DP
			}
		}
		key = mk &^ (uint32(1) << uint(len(steps[l].midFrontier)-1))
	}
	return best, assign, nil
}
