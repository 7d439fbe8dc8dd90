package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// maxSweepDurations caps a sweep's duration table. A layer with f free
// cells has 2^f blocks, so only a sweep freeing most of one layer's
// cells on a deep array exceeds it; such a sweep fills and simulates
// its points instead.
const maxSweepDurations = 1 << 16

// sweepTable is the Simulator's state for the sweep SweepStep last
// stepped: the inputs it was checked under and, when a point's step is
// a running sum (see buildSerial), the durations that sum adds.
//
// A point's durations for layer l depend only on l's choices — its
// column — and, for the conversion into layer l+1, on l+1's choice at
// each level. So the table holds a block per (layer, setting of the
// layer's free cells): at depth H,
//
//	0              the forward phase
//	1+h            level h's mp partial-sum exchange (0 at a dp level)
//	H+1            the gradient phase
//	H+2+h          level h's dp gradient exchange (0 at an mp level)
//	2H+2           the backward phase
//	2H+3+4h+2d+e   level h's conversion on the edge to layer l+1, when
//	               l+1 chose d at h: the F conversion for e = 0, the E
//	               conversion for e = 1
//
// The phases are priced from the Simulator's cost table, the transfers
// through Arch.Transfer. NaN marks an entry not yet priced, and an
// entry is stored only once it passes checkDuration. An entry for a
// transfer serialTransfers skips is 0, and adding 0 leaves the
// non-negative clock's bits as they are.
type sweepTable struct {
	// The held sweep's inputs; sw is nil until a sweep's checks pass.
	model *nn.Model
	sw    *partition.Sweep
	arch  Arch // LevelMems copied, so a caller's later writes cannot alias it

	// plan is point 0's plan, which the checks ran on, and the plan each
	// point is filled into when the step is not walked.
	plan *partition.Plan
	walk bool // chain wiring, OverlapGradComm off, no trace, table within its cap

	// b prices entries: the checked shapes, depth and arch.
	b   stepBuilder
	key costKey

	durs  []float64
	first []int       // offset of layer l's block with every free cell dp
	base  []uint      // layer l's column at point 0: bit h set when level h chose mp
	free  []sweepCell // free cell i, set by the point code's bit i

	// The walked point: each layer's column and block offset.
	cols []uint
	at   []int
}

// sweepCell is a free cell: its layer and level, and the offset its mp
// choice adds to the layer's block.
type sweepCell struct {
	layer, level, step int
}

// SweepStep returns the step time of sw's point code on the
// architecture: the StepSeconds that Simulate gives sw.Fill's plan of
// the point, bit for bit, or the error Simulate returns for it.
//
// Simulate's checks depend on a point's model, batch, depth and edges,
// never on its choices, so they run once, when SweepStep first sees
// (m, sw, arch), on point 0's plan. For a chain with OverlapGradComm
// off and no trace, the step is buildSerial's running sum, and a point
// walks buildSerial's task order adding durations from a table held for
// the sweep (see sweepTable), so no plan, Stats or energy is built per
// point, and once the walks have met every duration a step allocates
// nothing. DAG, overlap and traced sweeps fill the point's plan and
// simulate it.
//
// A table entry is priced the first time a walk adds it, where Simulate
// would first price it, so a failing pricing fails the same point with
// the same error, and is priced again next time. Like the phase-cost
// and transfer-price memos, the table assumes the cost models are pure
// and that neither the model nor the sweep changes after first use.
func (s *Simulator) SweepStep(m *nn.Model, sw *partition.Sweep, arch Arch, code int) (float64, error) {
	if sw == nil {
		return 0, fmt.Errorf("%w: nil sweep", ErrSim)
	}
	t := &s.sweep
	if !t.holds(m, sw, &arch) {
		if err := s.beginSweep(m, sw, arch); err != nil {
			return 0, err
		}
	}
	if !t.walk {
		t.plan = sw.Fill(t.plan, code)
		st, err := s.Simulate(m, t.plan, arch)
		if err != nil {
			return 0, err
		}
		return st.StepSeconds, nil
	}
	return s.walk(code)
}

// holds reports whether the table was checked and set up for (m, sw,
// arch).
func (t *sweepTable) holds(m *nn.Model, sw *partition.Sweep, a *Arch) bool {
	return t.sw == sw && t.model == m &&
		t.arch.Mem == a.Mem && t.arch.Comp == a.Comp && t.arch.NoC == a.NoC && t.arch.DType == a.DType &&
		t.arch.OverlapGradComm == a.OverlapGradComm && t.arch.CollectTrace == a.CollectTrace &&
		slices.Equal(t.arch.LevelMems, a.LevelMems)
}

// beginSweep runs Simulate's checks on sw's point 0 and, when they pass,
// holds (m, sw, arch) with an unpriced table.
func (s *Simulator) beginSweep(m *nn.Model, sw *partition.Sweep, arch Arch) error {
	t := &s.sweep
	t.sw = nil
	t.plan = sw.Fill(t.plan, 0)
	b := &t.b
	wire, err := s.begin(b, m, t.plan, arch)
	if err != nil {
		return err
	}
	arch.LevelMems = slices.Clone(arch.LevelMems)
	t.model, t.sw, t.arch = m, sw, arch
	t.walk = wire.chain && !arch.OverlapGradComm && !arch.CollectTrace
	if !t.walk {
		return nil
	}

	// Lay the blocks out layer by layer: a layer with f free cells takes
	// 2^f, and its i-th free cell's mp choice steps 2^i blocks on. t.at
	// serves as the per-layer counter.
	nl, size := len(b.shapes), 6*b.levels+3
	free := sw.Free()
	t.at = resize(t.at, nl)
	clear(t.at)
	for _, fv := range free {
		t.at[fv.Layer]++
	}
	t.first = resize(t.first, nl)
	blocks := 0
	for l, f := range t.at {
		t.first[l] = blocks * size
		blocks += 1 << f
	}
	if blocks*size > maxSweepDurations {
		t.walk = false
		return nil
	}
	clear(t.at)
	t.free = resize(t.free, len(free))
	for i, fv := range free {
		t.free[i] = sweepCell{layer: fv.Layer, level: fv.Level, step: size << t.at[fv.Layer]}
		t.at[fv.Layer]++
	}
	t.durs = resize(t.durs, blocks*size)
	for i := range t.durs {
		t.durs[i] = math.NaN()
	}
	t.base, t.cols = resize(t.base, nl), resize(t.cols, nl)
	clear(t.base)
	for h, a := range t.plan.Levels {
		for l, p := range a {
			t.base[l] |= uint(p) << h
		}
	}
	b.arch = arch
	b.leafShard = resize(b.leafShard, nl)
	t.key = costKey{model: m, batch: t.plan.Batch, depth: b.levels, comp: arch.Comp, mem: arch.Mem, dtype: arch.DType}
	return nil
}

// walk returns the held chain sweep's point code's step time:
// buildSerial's clock, its durations added in buildSerial's order.
func (s *Simulator) walk(code int) (float64, error) {
	t := &s.sweep
	levels := t.b.levels
	cols, at := t.cols, t.at
	copy(cols, t.base)
	copy(at, t.first)
	for i, c := range t.free {
		bit := code >> i & 1
		cols[c.layer] |= uint(bit) << c.level
		at[c.layer] += bit * c.step
	}
	durs := t.durs
	nl := len(cols)
	var clock float64
	for l := 0; l < nl; l++ {
		// The forward phase, then the mp partial-sum exchange of F_{l+1}.
		for j := at[l]; j <= at[l]+levels; j++ {
			dur := durs[j]
			if dur != dur {
				var err error
				if dur, err = s.price(l, j); err != nil {
					return 0, err
				}
			}
			clock += dur
		}
		if l+1 == nl {
			break
		}
		// The F conversion along edge (l, l+1).
		conv, next := at[l]+2*levels+3, cols[l+1]
		for h := 0; h < levels; h++ {
			j := conv + 4*h + 2*int(next>>h&1)
			dur := durs[j]
			if dur != dur {
				var err error
				if dur, err = s.price(l, j); err != nil {
					return 0, err
				}
			}
			clock += dur
		}
	}
	for l := nl - 1; l >= 0; l-- {
		// The gradient phase, then the dp gradient exchange, then — but
		// for the first layer, whose input error is never consumed — the
		// backward phase.
		end := at[l] + 2*levels + 2
		if l == 0 {
			end--
		}
		for j := at[l] + levels + 1; j <= end; j++ {
			dur := durs[j]
			if dur != dur {
				var err error
				if dur, err = s.price(l, j); err != nil {
					return 0, err
				}
			}
			clock += dur
		}
		if l == 0 {
			break
		}
		// The E conversion along edge (l-1, l).
		conv, next := at[l-1]+2*levels+4, cols[l]
		for h := 0; h < levels; h++ {
			j := conv + 4*h + 2*int(next>>h&1)
			dur := durs[j]
			if dur != dur {
				var err error
				if dur, err = s.price(l-1, j); err != nil {
					return 0, err
				}
			}
			clock += dur
		}
	}
	return clock, nil
}

// price prices entry j of the walked point's block for layer l and
// stores it.
func (s *Simulator) price(l, j int) (float64, error) {
	t := &s.sweep
	b := &t.b
	levels, c, r := b.levels, t.cols[l], j-t.at[l]
	switch r {
	case 0:
		return s.pricePhase(l, j, nn.Forward)
	case levels + 1:
		return s.pricePhase(l, j, nn.Gradient)
	case 2*levels + 2:
		return s.pricePhase(l, j, nn.Backward)
	}
	// dpAbove is how many of the levels above h chose dp for layer l.
	dpAbove := func(h int) int { return h - bits.OnesCount(c&(1<<h-1)) }
	var h int
	var elems float64
	switch {
	case r <= levels:
		// An mp level's partial-sum exchange; a dp level has none.
		if h = r - 1; c>>h&1 == 1 {
			elems = t.sw.IntraVolume(h, dpAbove(h), l, comm.MP)
		}
	case r <= 2*levels+1:
		// A dp level's gradient exchange; an mp level has none.
		if h = r - levels - 2; c>>h&1 == 0 {
			elems = t.sw.IntraVolume(h, dpAbove(h), l, comm.DP)
		}
	default:
		q := r - 2*levels - 3
		h = q / 4
		p := nn.Forward
		if q%2 == 1 {
			p = nn.Backward
		}
		elems = t.sw.InterVolume(h, dpAbove(h), l, comm.Parallelism(c>>h&1), comm.Parallelism(q/2%2), p)
	}
	if elems <= 0 {
		return t.store(j, 0)
	}
	dur, _, err := b.arch.Transfer(h, 2*elems*b.es)
	if err != nil {
		return 0, err
	}
	return t.store(j, dur)
}

// pricePhase prices entry j, layer l's phase p under the walked point's
// column, from the Simulator's cost table and stores it.
func (s *Simulator) pricePhase(l, j int, p nn.Phase) (float64, error) {
	t := &s.sweep
	b := &t.b
	// Simulate may have keyed the cost table to other inputs since.
	b.costs = s.costs.cellsFor(t.key, len(b.shapes))
	d := b.levels - bits.OnesCount(t.cols[l])
	b.leafShard[l] = tensor.Shard{DP: d, MP: b.levels - d}
	return t.store(j, b.phaseCost(l, p).dur)
}

// store keeps a priced duration that passes checkDuration.
func (t *sweepTable) store(j int, dur float64) (float64, error) {
	if err := checkDuration("", dur); err != nil {
		return 0, err
	}
	t.durs[j] = dur
	return dur, nil
}
