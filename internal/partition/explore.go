package partition

import (
	"context"
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/runner"
)

// bruteForceCore exhaustively enumerates every hierarchical assignment
// of the model's layers (level h scored by cs[h]) and returns the plan
// with minimum total communication — the exactness reference the
// hierarchical search is compared against. The search space is
// 2^(levels·L), so it exists for tests and the small explorations of
// §6.3. The enumeration fans out over chunked code ranges on the pool
// and checks ctx every 256 codes; ties on total communication resolve
// to the lowest code, so the result is identical at any pool width.
func bruteForceCore(ctx context.Context, pool *runner.Pool, m *nn.Model, batch int, cs []costs) (*Plan, error) {
	levels := len(cs)
	shapes, preds, err := prepare(m, batch, levels, true)
	if err != nil {
		return nil, err
	}
	edges := EdgesOf(preds)
	nl := len(shapes)
	bits := levels * nl
	if bits > 24 {
		return nil, fmt.Errorf("%w: brute force over 2^%d assignments", ErrPlan, bits)
	}

	chunks := runner.Chunks(1<<uint(bits), pool.Width(), 0)
	bests, err := runner.MapCtx(ctx, pool, chunks, func(_ int, ck [2]int) (*Plan, error) {
		assigns := make([]Assignment, levels)
		for h := range assigns {
			assigns[h] = make(Assignment, nl)
		}
		var best *Plan
		for code := ck[0]; code < ck[1]; code++ {
			if code&255 == 0 {
				if err := ctxErr(ctx); err != nil {
					return nil, err
				}
			}
			for b := 0; b < bits; b++ {
				p := comm.DP
				if code&(1<<uint(b)) != 0 {
					p = comm.MP
				}
				assigns[b/nl][b%nl] = p
			}
			plan, err := evaluateShapes(m, batch, assigns, shapes, edges, cs)
			if err != nil {
				return nil, err
			}
			if best == nil || plan.TotalElems < best.TotalElems {
				best = plan
			}
		}
		return best, nil
	})
	if err != nil {
		return nil, err
	}
	// Within a chunk the scan ascends by code and the reduce below walks
	// chunks in code order, so the strict < keeps the lowest code among
	// equal-communication plans — identical at any pool width.
	var best *Plan
	for _, b := range bests {
		if b != nil && (best == nil || b.TotalElems < best.TotalElems) {
			best = b
		}
	}
	return best, nil
}

// FreeVar identifies one (hierarchy level, layer) cell whose parallelism
// an exploration enumerates while all other cells stay fixed.
type FreeVar struct {
	Level int
	Layer int
}

// ExplorePoint is one sample of a parallelism-space exploration.
type ExplorePoint struct {
	// Code enumerates the free variables: bit i (LSB first) is the
	// choice of Free[i] (0 = dp, 1 = mp).
	Code int
	Plan *Plan
}

// Explore enumerates all 2^len(free) settings of the free cells on top
// of the base assignment (Figures 9 and 10: the fixed cells come from
// the HyPar-optimized plan, the free cells sweep), scoring level h of
// every point with ws[h] on the pool. Points come back indexed by code,
// so the result is independent of the pool width. The sweep checks ctx
// every 256 codes inside each chunk; a nil ctx never cancels.
func Explore(ctx context.Context, pool *runner.Pool, m *nn.Model, batch int, base []Assignment, free []FreeVar, ws []Weights) ([]ExplorePoint, error) {
	cs, err := levelCosts(ws, ObjectiveTraining)
	if err != nil {
		return nil, err
	}
	if len(free) > 20 {
		return nil, fmt.Errorf("%w: exploring 2^%d points", ErrPlan, len(free))
	}
	for _, fv := range free {
		if fv.Level < 0 || fv.Level >= len(base) {
			return nil, fmt.Errorf("%w: free variable level %d out of range", ErrPlan, fv.Level)
		}
		if fv.Layer < 0 || fv.Layer >= len(base[fv.Level]) {
			return nil, fmt.Errorf("%w: free variable layer %d out of range", ErrPlan, fv.Layer)
		}
	}
	shapes, preds, err := prepare(m, batch, len(base), true)
	if err != nil {
		return nil, err
	}
	edges := EdgesOf(preds)
	n := 1 << uint(len(free))
	points := make([]ExplorePoint, n)
	chunks := runner.Chunks(n, pool.Width(), 0)
	err = runner.ForEach(pool, chunks, func(_ int, ck [2]int) error {
		work := make([]Assignment, len(base))
		for h := range base {
			work[h] = base[h].Clone()
		}
		for code := ck[0]; code < ck[1]; code++ {
			if code&255 == 0 {
				if err := ctxErr(ctx); err != nil {
					return err
				}
			}
			for i, fv := range free {
				p := comm.DP
				if code&(1<<uint(i)) != 0 {
					p = comm.MP
				}
				work[fv.Level][fv.Layer] = p
			}
			plan, err := evaluateShapes(m, batch, work, shapes, edges, cs)
			if err != nil {
				return err
			}
			points[code] = ExplorePoint{Code: code, Plan: plan}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}
