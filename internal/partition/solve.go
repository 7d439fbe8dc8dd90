package partition

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/runner"
	"repro/internal/tensor"
)

// Method selects the search algorithm a Request runs.
type Method int

const (
	// MethodHierarchical is Algorithm 2: the exact per-level dynamic
	// program (the paper's O(L) recurrence on chains, the O(L·2^frontier)
	// frontier DP on branched graphs). The zero value, and the default.
	MethodHierarchical Method = iota
	// MethodBrute exhaustively enumerates every hierarchical assignment
	// (2^(H·L) plans) — the exactness reference for small models.
	MethodBrute
	// MethodBeam runs a bounded-width beam search over the graph frontier
	// DP: approximate on branched graphs (exact on chains), but immune to
	// frontier-width blowup, so inception/NAS-width graphs the exact DP
	// refuses under its frontier cap still plan in O(L·width) states.
	MethodBeam
)

// ParseMethod parses a search method name. The empty string,
// "hierarchical" and "graph" all select MethodHierarchical (the graph
// frontier DP is how the hierarchical search handles branched models);
// "brute" and "beam" select the other two. Case-insensitive.
func ParseMethod(name string) (Method, error) {
	switch strings.ToLower(name) {
	case "", "hierarchical", "graph":
		return MethodHierarchical, nil
	case "brute":
		return MethodBrute, nil
	case "beam":
		return MethodBeam, nil
	}
	return 0, fmt.Errorf("%w: unknown search method %q (want hierarchical, graph, brute or beam)", ErrPlan, name)
}

// String returns the canonical method name.
func (m Method) String() string {
	switch m {
	case MethodHierarchical:
		return "hierarchical"
	case MethodBrute:
		return "brute"
	case MethodBeam:
		return "beam"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Objective selects the cost model a Request minimizes.
type Objective int

const (
	// ObjectiveTraining is the paper's full model (Tables 1-2): gradient
	// allreduce, partial-sum aggregation, and F/E boundary conversions.
	// The zero value, and the default.
	ObjectiveTraining Objective = iota
	// ObjectiveInference drops everything gradients and errors cause: dp
	// incurs no intra-layer exchange (there is no ∆W) and no E tensors
	// flow backward. Only mp's output partial sums and the forward F
	// conversions remain — which is why §3.3 observes that inference
	// always optimizes to pure Data Parallelism (both of its cost
	// sources are zero).
	ObjectiveInference
)

// DefaultBeamWidth is the beam width a Request with Method beam and a
// zero BeamWidth gets. 64 states per layer keeps the beam exact on
// every graph whose frontier never exceeds 6 open layers while bounding
// the worst case linearly.
const DefaultBeamWidth = 64

// Request describes one partition search. The zero value of every
// optional field selects the default: only Model, Batch and Levels are
// required.
type Request struct {
	// Model is the network to partition.
	Model *nn.Model
	// Batch is the global mini-batch size shapes are inferred at.
	Batch int
	// Levels carries one communication-weight set per hierarchy level;
	// its length is the hierarchy depth H (the array has 2^H
	// accelerators). A homogeneous array repeats one entry; a
	// heterogeneous array scores each cut with the platform serving it.
	Levels []Weights
	// Ctx cancels the search between hierarchy levels and inside the
	// per-level DP (and every 256 codes of a brute-force scan). A nil
	// Ctx never cancels.
	Ctx context.Context
	// Pool runs the brute-force enumeration; nil uses runner.Default().
	// The other methods are single-threaded and ignore it.
	Pool *runner.Pool
	// Method selects the search algorithm (default MethodHierarchical).
	Method Method
	// Objective selects the cost model (default ObjectiveTraining).
	Objective Objective
	// BeamWidth bounds the number of states the beam search keeps per
	// layer (MethodBeam only; 0 means DefaultBeamWidth).
	BeamWidth int
	// Warm seeds the search with a previous solve's plan: any hierarchy
	// level whose inputs (method, objective, weights, sharded tensor
	// amounts, layer graph) fingerprint identically to the warm plan's
	// reuses its assignment and skips the per-level DP entirely. A sweep
	// that mutates one dimension re-relaxes only the levels it actually
	// affects; reuse is byte-identical because the DP is a deterministic
	// function of the fingerprinted inputs. Plans not produced by Solve
	// (or produced by MethodBrute) carry no fingerprints and warm
	// nothing. Nil means a cold solve. Only a caller supplies the hint
	// (hypar.PlanOptions.Warm): nothing in the module keeps plans to
	// warm from.
	Warm *Plan
}

// Solve runs one partition search described by a Request. The default
// method is Algorithm 2: it partitions a 2^H accelerator array by
// running Algorithm 1 at every hierarchy level under that level's
// weights, halving each layer's tensors between levels according to
// the level's choice (dp halves the batch; mp halves the kernel input
// dimension). The total communication follows the paper's recursion
// com = com_h + 2·com_n, i.e. level h's per-pair volume is counted once
// per group pair (2^h pairs). Branched (DAG) models run the graph
// generalization of Algorithm 1 per level, whose frontier is capped at
// 16 open layers (wider graphs get ErrTooWide; MethodBeam plans them);
// chains run the paper's O(L) recurrence unchanged.
func Solve(req Request) (*Plan, error) {
	if req.Model == nil {
		return nil, fmt.Errorf("%w: nil model", ErrPlan)
	}
	if req.BeamWidth < 0 {
		return nil, fmt.Errorf("%w: negative beam width %d", ErrPlan, req.BeamWidth)
	}
	switch req.Objective {
	case ObjectiveTraining, ObjectiveInference:
	default:
		return nil, fmt.Errorf("%w: unknown objective %d", ErrPlan, int(req.Objective))
	}
	cs, err := levelCosts(req.Levels, req.Objective)
	if err != nil {
		return nil, err
	}
	switch req.Method {
	case MethodHierarchical, MethodBeam:
		width := 0
		if req.Method == MethodBeam {
			width = req.BeamWidth
			if width == 0 {
				width = DefaultBeamWidth
			}
		}
		seeds := make([]uint64, len(req.Levels))
		for h, w := range req.Levels {
			seeds[h] = levelSeed(req.Method, width, req.Objective, w)
		}
		return hierarchicalCore(req.Ctx, req.Model, req.Batch, cs, coreOpts{
			method:    req.Method,
			beamWidth: width,
			warm:      req.Warm,
			seeds:     seeds,
		})
	case MethodBrute:
		pool := req.Pool
		if pool == nil {
			pool = runner.Default()
		}
		return bruteForceCore(req.Ctx, pool, req.Model, req.Batch, cs)
	}
	return nil, fmt.Errorf("%w: unknown search method %d", ErrPlan, int(req.Method))
}

// dpCells counts dynamic-program cells evaluated package-wide: one per
// (layer, choice) of the chain recurrence, one per extended state of
// the graph frontier DP, one per extended beam state. The counter is
// the observability hook warm-start tests use to prove an incremental
// re-plan really skipped work.
var dpCells atomic.Int64

// DPCells returns the cumulative number of DP cells evaluated by this
// package since process start. Monotone; read deltas around a solve to
// measure its search effort. Safe for concurrent use.
func DPCells() int64 { return dpCells.Load() }

// coreOpts carries the optional knobs of hierarchicalCore. The zero
// value selects the exact hierarchical search.
type coreOpts struct {
	method    Method
	beamWidth int
	warm      *Plan
	seeds     []uint64 // per-level fingerprint seeds; nil disables warm bookkeeping
}

// hierarchicalCore is Algorithm 2 over a per-level cost model with the
// optional Solve extensions: beam search and warm-start level reuse.
// With zero opts it is the exact search.
func hierarchicalCore(ctx context.Context, m *nn.Model, batch int, cs []costs, opt coreOpts) (*Plan, error) {
	levels := len(cs)
	shapes, g, err := prepare(m, batch, levels, opt.method != MethodBeam)
	if err != nil {
		return nil, err
	}
	nl, preds := len(shapes), g.Preds
	plan := &Plan{Model: m.Name, Batch: batch, Levels: make([]Assignment, 0, levels), Edges: slices.Clone(g.Edges)}
	var pk uint64
	if opt.seeds != nil {
		plan.levelKeys = make([]uint64, levels)
		pk = predsKey(preds)
	}
	shards := make([]tensor.Shard, nl)
	amounts := make([]comm.LayerAmounts, nl)
	for h := 0; h < levels; h++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		amountsAt(amounts, shapes, shards)
		var key uint64
		if plan.levelKeys != nil {
			key = warmLevelKey(fnvMix(opt.seeds[h], pk), amounts)
			plan.levelKeys[h] = key
		}
		var assign Assignment
		if w := opt.warm; w != nil && key != 0 && h < len(w.levelKeys) && w.levelKeys[h] == key &&
			h < len(w.Levels) && len(w.Levels[h]) == nl {
			// Identical fingerprint means identical DP inputs, and the DP
			// is deterministic: reuse the warm level verbatim.
			assign = w.Levels[h].Clone()
		} else if opt.method == MethodBeam {
			_, assign, err = beamTwoWayWith(ctx, amounts, preds, cs[h], opt.beamWidth)
			if err != nil {
				return nil, err
			}
		} else {
			_, assign, err = twoWayGraphWith(ctx, amounts, preds, cs[h])
			if err != nil {
				return nil, err
			}
		}
		plan.Levels = append(plan.Levels, assign)
		for l := range shards {
			shards[l] = shards[l].Apply(assign[l] == comm.DP)
		}
	}
	fillDetails(plan, shapes, cs)
	return plan, nil
}

// levelSeed folds everything except the per-level tensor amounts that
// determines a level's DP output — search method, beam width,
// objective, and the level's cost weights — into one warm-start
// fingerprint seed. Never zero (zero disables reuse).
func levelSeed(method Method, beamWidth int, obj Objective, w Weights) uint64 {
	h := fnvOffset
	h = fnvMix(h, uint64(method))
	h = fnvMix(h, uint64(beamWidth))
	h = fnvMix(h, uint64(obj))
	h = fnvMix(h, math.Float64bits(w.Grad))
	h = fnvMix(h, math.Float64bits(w.Psum))
	h = fnvMix(h, math.Float64bits(w.Convert))
	if h == 0 {
		h = 1
	}
	return h
}

// warmLevelKey extends a level seed with the remaining DP inputs: the
// sharded per-pair tensor amounts of every layer (which already encode
// batch size, shapes, and the assignment history of the levels above).
// The layer graph rides in via the predsKey folded into the seed. Two
// levels with equal keys run the exact same deterministic DP. Never
// zero.
func warmLevelKey(seed uint64, amounts []comm.LayerAmounts) uint64 {
	h := seed
	h = fnvMix(h, uint64(len(amounts)))
	for _, a := range amounts {
		h = fnvMix(h, math.Float64bits(a.DW))
		h = fnvMix(h, math.Float64bits(a.FOut))
		h = fnvMix(h, math.Float64bits(a.FBound))
		h = fnvMix(h, math.Float64bits(a.EBound))
	}
	if h == 0 {
		h = 1
	}
	return h
}

// predsKey digests the layer graph. It is identical at every hierarchy
// level of one solve, so hierarchicalCore computes it once outside the
// level loop and folds it into each level's seed.
func predsKey(preds [][]int) uint64 {
	h := fnvOffset
	h = fnvMix(h, uint64(len(preds)))
	for _, ps := range preds {
		h = fnvMix(h, uint64(len(ps)))
		for _, u := range ps {
			h = fnvMix(h, uint64(int64(u)))
		}
	}
	return h
}

// fnvMix folds one 64-bit word into the fingerprint with the FNV-1a
// constants, word-at-a-time: one xor and one multiply per value keeps
// the fingerprinting cost invisible next to the DP it guards. The keys
// are process-internal and never persisted, so byte-exact FNV framing
// is not required — only determinism and dispersion.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime
	return h
}
