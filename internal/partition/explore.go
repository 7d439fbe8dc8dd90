package partition

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/runner"
	"repro/internal/tensor"
)

// bruteForceCore exhaustively enumerates every hierarchical assignment
// of the model's layers (level h scored by cs[h]) and returns the plan
// with minimum total communication — the exactness reference the
// hierarchical search is compared against, over 2^(levels·L) codes. It
// is a sweep freeing every cell in level-major order (bit b is cell
// (b / L, b mod L)), fanned out over chunked code ranges on the pool;
// each chunk fills its codes into one reused plan, keeps its best in a
// second, and checks ctx every 256 codes. Ties on total communication
// resolve to the lowest code, so the result is identical at any width.
func bruteForceCore(ctx context.Context, pool *runner.Pool, m *nn.Model, batch int, cs []costs) (*Plan, error) {
	levels := len(cs)
	shapes, preds, err := prepare(m, batch, levels, true)
	if err != nil {
		return nil, err
	}
	nl := len(shapes)
	bits := levels * nl
	if bits > 24 {
		return nil, fmt.Errorf("%w: brute force over 2^%d assignments", ErrPlan, bits)
	}
	free := make([]FreeVar, bits)
	for b := range free {
		free[b] = FreeVar{Level: b / nl, Layer: b % nl}
	}
	sw, err := newSweep(m.Name, batch, shapes, EdgesOf(preds), cutLevels(levels, nl), free, cs)
	if err != nil {
		return nil, err
	}

	chunks := runner.Chunks(sw.Points(), pool.Width())
	bests, err := runner.MapCtx(ctx, pool, chunks, func(_ int, ck [2]int) (*Plan, error) {
		var best, work *Plan
		for code := ck[0]; code < ck[1]; code++ {
			if code&255 == 0 {
				if err := ctxErr(ctx); err != nil {
					return nil, err
				}
			}
			work = sw.Fill(work, code)
			if best == nil || work.TotalElems < best.TotalElems {
				best, work = work, best // keep the improvement, refill the old best
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

// Sweep is a parallelism-space exploration (Figures 9 and 10): all
// 2^len(free) settings of some free (level, layer) cells on top of a
// base assignment; bit i of a point's code is free cell i's choice (0 =
// dp, 1 = mp). At level h, layer l's shard is {DP: k, MP: h−k}, k
// counting the levels above h that chose dp for l, so a point's volumes
// depend only on (h, k) and the choices at h. NewSweep tabulates them
// once with Evaluate's cost models, and Fill scores a point by lookups
// and additions. A reader that needs less than a point's plan — the
// simulator's sweep step prices each volume once per sweep — reads the
// free cells (Free) and the tabulated volumes (IntraVolume,
// InterVolume) instead. A Sweep is read-only: goroutines share it, each
// filling its own plan.
type Sweep struct {
	model string
	batch int
	nl    int
	edges []Edge
	base  []Assignment
	free  []FreeVar
	// vols holds a block of stride floats per (h, k): layer l's intra
	// volume under choice p at 2l+p, then edge e's InterF and InterE for
	// producer choice ps and consumer choice pd at 2nl+8e+4ps+2pd and +1.
	vols   []float64
	stride int
}

// NewSweep tabulates the exploration of the free cells (at most 20,
// each inside base) on top of base, one Assignment per level, scoring
// level h with ws[h]. Figures 9 and 10 take base from the HyPar plan.
// The exact graph DP's frontier cap applies, as for Evaluate.
func NewSweep(m *nn.Model, batch int, base []Assignment, free []FreeVar, ws []Weights) (*Sweep, error) {
	cs, err := levelCosts(ws, ObjectiveTraining)
	if err != nil {
		return nil, err
	}
	if len(free) > 20 {
		return nil, fmt.Errorf("%w: exploring 2^%d points", ErrPlan, len(free))
	}
	for i, fv := range free {
		if fv.Level < 0 || fv.Level >= len(base) || fv.Layer < 0 || fv.Layer >= len(base[fv.Level]) {
			return nil, fmt.Errorf("%w: free variable (level %d, layer %d) out of range", ErrPlan, fv.Level, fv.Layer)
		}
		// A repeated cell would sweep each setting twice, the later bit
		// overriding the earlier in every point.
		if slices.Contains(free[:i], fv) {
			return nil, fmt.Errorf("%w: free variable (level %d, layer %d) given twice", ErrPlan, fv.Level, fv.Layer)
		}
	}
	shapes, preds, err := prepare(m, batch, len(base), true)
	if err != nil {
		return nil, err
	}
	return newSweep(m.Name, batch, shapes, EdgesOf(preds), base, free, cs)
}

// newSweep tabulates checked free cells; brute force frees over 20.
func newSweep(model string, batch int, shapes []nn.LayerShapes, edges []Edge, base []Assignment, free []FreeVar, cs []costs) (*Sweep, error) {
	nl := len(shapes)
	if err := checkLevels(model, base, nl, cs); err != nil {
		return nil, err
	}
	s := &Sweep{model: model, batch: batch, nl: nl, edges: edges, base: cutLevels(len(base), nl),
		free: append([]FreeVar(nil), free...), stride: 2*nl + 8*len(edges)}
	for h, a := range base {
		copy(s.base[h], a)
	}
	s.vols = make([]float64, s.block(len(base), 0))
	amounts := make([]comm.LayerAmounts, nl)
	ps := [2]comm.Parallelism{comm.DP, comm.MP}
	for h, c := range cs {
		for k := 0; k <= h; k++ {
			b := s.vols[s.block(h, k):]
			for l := range amounts {
				amounts[l] = comm.Amounts(shapes[l], tensor.Shard{DP: k, MP: h - k})
				for _, p := range ps {
					b[2*l+int(p)] = c.intra(p, amounts[l])
				}
			}
			for e, ed := range edges {
				for _, src := range ps {
					for _, dst := range ps {
						i := 2*nl + 8*e + 4*int(src) + 2*int(dst)
						b[i] = c.interF(src, dst, amounts[ed.Src])
						b[i+1] = c.interE(src, dst, amounts[ed.Src])
					}
				}
			}
		}
	}
	return s, nil
}

// block returns the offset of the (h, k) block.
func (s *Sweep) block(h, k int) int { return (h*(h+1)/2 + k) * s.stride }

// Points returns the number of points, 2^len(free).
func (s *Sweep) Points() int { return 1 << uint(len(s.free)) }

// Fill scores point code (bits above the free cells ignored) into dst
// and returns it. A nil dst, or one not shaped like this sweep's plans,
// is replaced by a new plan in Evaluate's layout; one of the right
// shape is overwritten in full without allocating. The plan equals
// Evaluate's for the point's levels in every field, no warm-start
// fingerprints included.
func (s *Sweep) Fill(dst *Plan, code int) *Plan {
	if !s.fits(dst) {
		dst = &Plan{Levels: cutLevels(len(s.base), s.nl), Details: cutDetails(len(s.base), s.nl, len(s.edges))}
	}
	dst.Model, dst.Batch, dst.Edges, dst.levelKeys = s.model, s.batch, s.edges, nil
	for h, a := range s.base {
		copy(dst.Levels[h], a)
	}
	for i, fv := range s.free {
		dst.Levels[fv.Level][fv.Layer] = comm.Parallelism(code >> uint(i) & 1)
	}
	for l := 0; l < s.nl; l++ {
		k := 0
		for h, a := range dst.Levels {
			d := &dst.Details[h]
			v := s.IntraVolume(h, k, l, a[l])
			if a[l] == comm.MP {
				d.IntraFwd[l], d.IntraGrad[l] = v, 0
			} else {
				d.IntraFwd[l], d.IntraGrad[l] = 0, v
				k++
			}
		}
	}
	for e, ed := range s.edges {
		k := 0
		for h, a := range dst.Levels {
			ps, pd := a[ed.Src], a[ed.Dst]
			dst.Details[h].InterF[e] = s.InterVolume(h, k, e, ps, pd, nn.Forward)
			dst.Details[h].InterE[e] = s.InterVolume(h, k, e, ps, pd, nn.Backward)
			if ps == comm.DP {
				k++
			}
		}
	}
	dst.TotalElems = 0
	for h := range dst.Levels {
		dst.TotalElems += float64(int64(1)<<uint(h)) * dst.PerPairElems(h)
	}
	return dst
}

// Free returns the free cells in code order: bit i of a point's code is
// free[i]'s choice. The slice is the sweep's own; callers must not
// modify it.
func (s *Sweep) Free() []FreeVar { return s.free }

// IntraVolume returns layer l's tabulated intra volume at level h under
// choice p, where k of the levels above h chose dp for l: a point's
// IntraFwd[l] at h when p is mp, its IntraGrad[l] when p is dp.
func (s *Sweep) IntraVolume(h, k, l int, p comm.Parallelism) float64 {
	return s.vols[s.block(h, k)+2*l+int(p)]
}

// InterVolume returns edge e's tabulated conversion volume at level h
// for producer choice src and consumer choice dst, where k of the
// levels above h chose dp for the producer: a point's InterF[e] at h
// for phase nn.Forward, its InterE[e] for nn.Backward.
func (s *Sweep) InterVolume(h, k, e int, src, dst comm.Parallelism, p nn.Phase) float64 {
	i := s.block(h, k) + 2*s.nl + 8*e + 4*int(src) + 2*int(dst)
	if p != nn.Forward {
		i++
	}
	return s.vols[i]
}

// fits reports whether p has the shape of this sweep's plans.
func (s *Sweep) fits(p *Plan) bool {
	ok := p != nil && len(p.Levels) == len(s.base) && len(p.Details) == len(s.base)
	for h := 0; ok && h < len(s.base); h++ {
		d, ne := &p.Details[h], len(s.edges)
		ok = len(p.Levels[h]) == s.nl && len(d.IntraFwd) == s.nl && len(d.IntraGrad) == s.nl &&
			len(d.InterF) == ne && len(d.InterE) == ne
	}
	return ok
}
