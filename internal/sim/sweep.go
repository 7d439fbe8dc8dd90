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

// maxSweepDurations caps a sweep program's duration layout, counted
// before zeros are dropped. A segment keyed by two neighbouring layers
// with f and g free cells has 2^(f+g) rows, so only a sweep freeing most
// of two neighbours' cells on a deep array exceeds it; such a sweep
// fills and simulates its points instead.
const maxSweepDurations = 1 << 16

// failedBits marks a duration that failed to price: a quiet NaN whose
// low bits index the program's errors.
const failedBits = 0x7ff8_0000_0000_0000

// SweepProgram is a sweep's points compiled once on one architecture:
// CompileSweep runs Simulate's checks and prices every duration a
// point's step can add, and Steps then gives any point's step time —
// the StepSeconds Simulate gives sw.Fill's plan of the point, bit for
// bit, or the error Simulate returns for it. A program is immutable, so
// goroutines share one, each stepping its own points.
//
// For a chain with OverlapGradComm off and no trace, a step is
// buildSerial's running sum, and a point walks durations laid out in
// buildSerial's order: the forward segment of each layer, first to
// last, then the backward segment of each, last to first.
//
//	forward, layer l    the forward phase, the mp partial-sum exchange
//	                    at each level, then the F conversion into layer
//	                    l+1 at each level
//	backward, layer l   the gradient phase, the dp gradient exchange at
//	                    each level, then — but for the first layer, whose
//	                    input error is never consumed — the backward
//	                    phase and the E conversion from layer l-1 at each
//	                    level
//
// A segment's durations depend only on its own layer's column and, for
// the conversions, on its neighbour's (l+1 forward, l-1 backward), so
// it holds one row per (own block, neighbour block), a layer's block
// being the setting of its free cells. Consecutive segments whose free
// cells nest form a run, with one row per setting of the larger set, so
// a point finds its row once per run. A row keeps only its nonzero
// durations — adding a zero leaves the non-negative clock's bits as
// they are — padded with zeros to the longest row, so every point's
// walk has the same length and Steps walks four points side by side as
// independent sums.
//
// A duration that fails to price is kept as a NaN (failedBits) naming
// its error. It poisons the sum of every point whose walk meets it, and
// such a point fails with the first failed duration in walk order,
// where Simulate, pricing in the same order, fails.
//
// Other sweeps — over a DAG, with OverlapGradComm, traced, or with a
// layout past maxSweepDurations — fill each point's plan and simulate
// it. Like the Simulator's memos, a program assumes the cost models are
// pure and that neither the model nor the sweep changes after
// CompileSweep.
type SweepProgram struct {
	m    *nn.Model
	sw   *partition.Sweep
	arch Arch // LevelMems copied, so a caller's later writes cannot alias it

	walk  bool
	runs  []sweepRun
	terms []sweepTerm // each run's, in run order
	durs  []float64
	errs  []error // the pricing errors failed durations name
}

// sweepRun is one run of the walk, segments whose rows a point finds
// at once: the offset of the all-dp point's row, the row length, and
// the end of its terms (they start where the previous run's end).
type sweepRun struct {
	at, n, terms int
}

// sweepTerm moves a run's row on by step when a point's code has bit
// set: the bit is a free cell of one of the run's segments' layers.
type sweepTerm struct {
	bit  uint
	step int
}

// CompileSweep compiles sw's points on the architecture. Simulate's
// checks depend on a point's model, batch, depth and edges, never on
// its choices, so they run once, on point 0's plan, and a sweep that
// fails them fails as Simulate fails each of its points.
func CompileSweep(m *nn.Model, sw *partition.Sweep, arch Arch) (*SweepProgram, error) {
	if sw == nil {
		return nil, fmt.Errorf("%w: nil sweep", ErrSim)
	}
	var s Simulator // for the checks and the step builder
	plan := sw.Fill(nil, 0)
	g, err := s.begin(&s.b, m, plan, arch)
	if err != nil {
		return nil, err
	}
	arch.LevelMems = slices.Clone(arch.LevelMems)
	p := &SweepProgram{m: m, sw: sw, arch: arch}
	if g.Chain && !arch.OverlapGradComm && !arch.CollectTrace {
		c := sweepCompiler{p: p, b: &s.b}
		c.compile(plan)
	}
	return p, nil
}

// sweepCompiler prices a chain sweep's durations and lays them out.
type sweepCompiler struct {
	p      *SweepProgram
	b      *stepBuilder // the checked shapes, depth and arch
	levels int

	cells [][]int   // layer l's free cells, as code bits: cell j sets bit j of l's block
	codes []uint    // layer l's free cells, as a mask of code bits
	off   []int     // where layer l's block lies in the key of the run being laid out
	keyed []int     // the run, counted from 1, that off[l] was set for
	free  []uint    // layer l's free levels
	base  []uint    // layer l's column at point 0: bit h set when level h chose mp
	blkAt []int     // the index of layer l's first block among every layer's
	own   []float64 // the durations of every block, ownWidth each
	heads []int     // every block's forward and backward head lengths
	convs []uint64  // every block's nonzero F and E conversions, bit 2h+d
	picks []uint64  // every block's consumer choices, bit 2h+d when it chose d at h
	cols  []uint    // the column of every block
	shard []phases  // the phases of the layer being priced, by dp level count
}

// phases are a layer's forward, gradient and backward phase durations
// under one leaf shard, once priced.
type phases struct {
	fwd, grad, bwd float64
	priced         bool
}

// The durations of a layer's block, at depth H, those it adds in the
// forward and the backward segment first, nonzero ones only (heads
// counts them), then the conversions it adds by its neighbour's choice
// (convs marks the nonzero ones):
//
//	[0, H+1)       the forward phase, then the mp partial-sum exchange of
//	               each mp level
//	[H+1, 2H+3)    the gradient phase, the dp gradient exchange of each
//	               dp level, then the backward phase (none for layer 0)
//	2H+3+4h+2d+e   level h's conversion on the edge to layer l+1, when
//	               l+1 chose d at h: the F conversion for e = 0, the E
//	               conversion for e = 1
//
// Only durations some point adds are priced; the rest stay 0.
func ownWidth(levels int) int { return 6*levels + 3 }

// compile lays out the walk, leaving the program to fill and simulate
// its points when the layout passes its cap.
func (c *sweepCompiler) compile(plan *partition.Plan) {
	p, b := c.p, c.b
	c.levels = b.levels
	nl := len(b.shapes)
	c.cells = make([][]int, nl)
	c.codes, c.free = make([]uint, nl), make([]uint, nl)
	c.off, c.keyed = make([]int, nl), make([]int, nl)
	for i, fv := range p.sw.Free() {
		c.cells[fv.Layer] = append(c.cells[fv.Layer], i)
		c.codes[fv.Layer] |= 1 << i
		c.free[fv.Layer] |= 1 << fv.Level
	}
	runs := c.runs()
	size, terms := 0, 0
	for _, g := range runs {
		f := bits.OnesCount(g.mask)
		if f > 16 {
			return
		}
		size += c.width(g) << f
		terms += f
	}
	if size > maxSweepDurations || 2*c.levels > 64 {
		return
	}

	c.base = make([]uint, nl)
	for h, a := range plan.Levels {
		for l, ch := range a {
			c.base[l] |= uint(ch) << h
		}
	}
	b.leafShard = resize(b.leafShard, nl)
	c.blkAt = make([]int, nl+1)
	for l := range nl {
		c.blkAt[l+1] = c.blkAt[l] + 1<<len(c.cells[l])
	}
	blocks := c.blkAt[nl]
	c.own = make([]float64, blocks*ownWidth(c.levels))
	c.heads = make([]int, 2*blocks)
	c.convs, c.picks = make([]uint64, 2*blocks), make([]uint64, blocks)
	c.cols = make([]uint, blocks)
	c.shard = make([]phases, c.levels+1)
	for l := range nl {
		c.price(l)
	}

	// A run's rows are as long as its longest, so size every run, then
	// write each row in place, zeros padding it.
	p.runs = make([]sweepRun, 0, len(runs))
	p.terms = make([]sweepTerm, 0, terms)
	size = 0
	for k, g := range runs {
		c.key(k, g)
		n := 0
		for key := range 1 << bits.OnesCount(g.mask) {
			w := 0
			for _, sg := range g.parts {
				w += c.rowLen(sg, c.blockOf(sg.own, key), c.blockOf(sg.nb, key))
			}
			n = max(n, w)
		}
		for l, cells := range c.cells {
			for j, bit := range cells {
				if c.keyed[l] == k+1 {
					p.terms = append(p.terms, sweepTerm{bit: uint(bit), step: n << (c.off[l] + j)})
				}
			}
		}
		p.runs = append(p.runs, sweepRun{at: size, n: n, terms: len(p.terms)})
		size += n << bits.OnesCount(g.mask)
	}
	p.durs = make([]float64, size)
	for k, g := range runs {
		c.key(k, g)
		run := p.runs[k]
		for key := range 1 << bits.OnesCount(g.mask) {
			at := run.at + key*run.n
			row := p.durs[at : at : at+run.n]
			for _, sg := range g.parts {
				row = c.row(row, sg, c.blockOf(sg.own, key), c.blockOf(sg.nb, key))
			}
		}
	}
	p.walk = true
}

// key lays out the key of run k, g: its layers' blocks end to end, in
// the order its segments name the layers.
func (c *sweepCompiler) key(k int, g segRun) {
	at := 0
	for _, sg := range g.parts {
		for _, l := range [2]int{sg.own, sg.nb} {
			if l >= 0 && c.keyed[l] != k+1 {
				c.keyed[l], c.off[l] = k+1, at
				at += len(c.cells[l])
			}
		}
	}
}

// segment is the forward or backward durations of layer own in the
// walk, keyed by own's block and neighbour nb's (-1: none).
type segment struct {
	own, nb int
	fwd     bool
}

// width is the segment's row length before zeros are dropped.
func (sg segment) width(levels int) int {
	switch {
	case sg.nb < 0:
		return levels + 1
	case sg.fwd:
		return 2*levels + 1
	default:
		return 3*levels + 2
	}
}

// segRun is a run of consecutive segments in walk order: every
// segment's free cells are among the run's, those of its segment with
// the most, so a run has no more rows than that segment.
type segRun struct {
	parts []segment
	mask  uint // the run's free cells, as code bits
}

// runs cuts the walk's segments, in buildSerial's order, into runs,
// adding each to the run before when one's free cells include the
// other's.
func (c *sweepCompiler) runs() []segRun {
	nl := len(c.cells)
	segs := make([]segment, 0, 2*nl)
	for l := 0; l < nl; l++ {
		nb := l + 1
		if nb == nl {
			nb = -1
		}
		segs = append(segs, segment{own: l, nb: nb, fwd: true})
	}
	for l := nl - 1; l >= 0; l-- {
		segs = append(segs, segment{own: l, nb: l - 1})
	}
	var gs []segRun
	for i, sg := range segs {
		m := c.codes[sg.own]
		if sg.nb >= 0 {
			m |= c.codes[sg.nb]
		}
		if k := len(gs) - 1; k >= 0 && (m&^gs[k].mask == 0 || gs[k].mask&^m == 0) {
			gs[k].parts = segs[i-len(gs[k].parts) : i+1]
			gs[k].mask |= m
			continue
		}
		gs = append(gs, segRun{parts: segs[i : i+1], mask: m})
	}
	return gs
}

// width is a run's row length before zeros are dropped.
func (c *sweepCompiler) width(g segRun) int {
	w := 0
	for _, sg := range g.parts {
		w += sg.width(c.levels)
	}
	return w
}

// block returns the durations of block i, counted over every layer's.
func (c *sweepCompiler) block(i int) []float64 {
	w := ownWidth(c.levels)
	return c.own[i*w:][:w]
}

// blockOf returns the index, over every layer's blocks, of layer l's
// block in key, laid out by the last call to key; -1 for no layer
// (l < 0).
func (c *sweepCompiler) blockOf(l, key int) int {
	if l < 0 {
		return -1
	}
	return c.blkAt[l] + key>>c.off[l]&(1<<len(c.cells[l])-1)
}

// row appends to dst the nonzero durations of segment sg, its own layer
// at block i and its neighbour at block nb, in walk order.
func (c *sweepCompiler) row(dst []float64, sg segment, i, nb int) []float64 {
	H, own := c.levels, c.block(i)
	if sg.fwd {
		dst = append(dst, own[:c.heads[2*i]]...)
		if nb >= 0 {
			dst = c.conversions(dst, own, c.convs[2*i]&c.picks[nb], 0)
		}
		return dst
	}
	dst = append(dst, own[H+1:H+1+c.heads[2*i+1]]...)
	if nb >= 0 {
		dst = c.conversions(dst, c.block(nb), c.convs[2*nb+1]&c.picks[i], 1)
	}
	return dst
}

// rowLen is the length of row's durations.
func (c *sweepCompiler) rowLen(sg segment, i, nb int) int {
	switch {
	case sg.fwd && nb >= 0:
		return c.heads[2*i] + bits.OnesCount64(c.convs[2*i]&c.picks[nb])
	case sg.fwd:
		return c.heads[2*i]
	case nb >= 0:
		return c.heads[2*i+1] + bits.OnesCount64(c.convs[2*nb+1]&c.picks[i])
	default:
		return c.heads[2*i+1]
	}
}

// conversions appends producer block own's conversions that m marks,
// bit 2h+d for level h when the consumer chose d: the F conversions
// for e = 0, the E conversions for e = 1.
func (c *sweepCompiler) conversions(dst, own []float64, m uint64, e int) []float64 {
	for ; m != 0; m &= m - 1 {
		dst = append(dst, own[2*c.levels+3+2*bits.TrailingZeros64(m)+e])
	}
	return dst
}

// nonzero appends the nonzero durations of ds to dst.
func nonzero(dst []float64, ds ...float64) []float64 {
	for _, d := range ds {
		if d != 0 {
			dst = append(dst, d)
		}
	}
	return dst
}

// price sets the column of each of layer l's blocks and prices every
// duration of theirs that some point adds.
func (c *sweepCompiler) price(l int) {
	H, sw := c.levels, c.p.sw
	nl := len(c.cells)
	clear(c.shard)
	for blk := range 1 << len(c.cells[l]) {
		i, col := c.blkAt[l]+blk, c.base[l]
		for j, bit := range c.cells[l] {
			col |= uint(blk>>j&1) << sw.Free()[bit].Level
		}
		c.cols[i] = col
		for h := range H {
			c.picks[i] |= 1 << (2*h + int(col>>h&1))
		}
		own := c.block(i)
		// A layer's phases depend on its column only through its leaf
		// shard, so blocks with as many dp levels share them.
		d := H - bits.OnesCount(col)
		ph := &c.shard[d]
		if !ph.priced {
			c.b.leafShard[l] = tensor.Shard{DP: d, MP: H - d}
			ph.fwd, ph.grad = c.phase(l, nn.Forward), c.phase(l, nn.Gradient)
			if l > 0 {
				ph.bwd = c.phase(l, nn.Backward)
			}
			ph.priced = true
		}
		fwd, bwd := nonzero(own[:0:H+1], ph.fwd), nonzero(own[H+1:H+1:2*H+3], ph.grad)
		for h := 0; h < H; h++ {
			// dpAbove is how many of the levels above h chose dp for l.
			dpAbove := h - bits.OnesCount(col&(1<<h-1))
			ps := comm.Parallelism(col >> h & 1)
			if ps == comm.MP {
				fwd = nonzero(fwd, c.transfer(h, sw.IntraVolume(h, dpAbove, l, comm.MP)))
			} else {
				bwd = nonzero(bwd, c.transfer(h, sw.IntraVolume(h, dpAbove, l, comm.DP)))
			}
			if l+1 == nl {
				continue
			}
			for pd := range 2 {
				// Layer l+1 chooses pd at h only if its base does or the
				// cell is free.
				if c.free[l+1]>>h&1 == 0 && int(c.base[l+1]>>h&1) != pd {
					continue
				}
				j := 2*H + 3 + 4*h + 2*pd
				own[j] = c.transfer(h, sw.InterVolume(h, dpAbove, l, ps, comm.Parallelism(pd), nn.Forward))
				own[j+1] = c.transfer(h, sw.InterVolume(h, dpAbove, l, ps, comm.Parallelism(pd), nn.Backward))
				for e := range 2 {
					if own[j+e] != 0 {
						c.convs[2*i+e] |= 1 << (2*h + pd)
					}
				}
			}
		}
		if l > 0 {
			bwd = nonzero(bwd, ph.bwd)
		}
		c.heads[2*i], c.heads[2*i+1] = len(fwd), len(bwd)
	}
}

// phase prices layer l's phase p under its leaf shard, as serialPhase
// does.
func (c *sweepCompiler) phase(l int, p nn.Phase) float64 {
	dur, _, _ := c.b.phaseTime(l, p)
	return c.check(dur, nil)
}

// transfer prices level h's exchange of elems elements per pair, as
// serialTransfers does: a volume it skips is 0.
func (c *sweepCompiler) transfer(h int, elems float64) float64 {
	if elems <= 0 {
		return 0
	}
	dur, _, err := c.b.arch.Transfer(h, 2*elems*c.b.es)
	return c.check(dur, err)
}

// check returns dur, or, when pricing it failed with err or dur fails
// checkDuration, a failed duration naming the error.
func (c *sweepCompiler) check(dur float64, err error) float64 {
	if err == nil {
		err = checkDuration("", dur)
	}
	if err == nil {
		return dur
	}
	c.p.errs = append(c.p.errs, err)
	return math.Float64frombits(failedBits | uint64(len(c.p.errs)-1))
}

// SweepScratch is one worker's scratch for a program that fills and
// simulates its points: a Simulator and the plan each point is filled
// into, made on first use. The zero value is ready; a walked program
// never touches it.
type SweepScratch struct {
	sm   *Simulator
	plan *partition.Plan
}

// Steps sets steps[i] to the step time of point lo+i and returns how
// many it set: every one, or those before the first point that fails,
// with that point's error. sc is the caller's own; workers stepping
// one program each pass theirs.
func (p *SweepProgram) Steps(sc *SweepScratch, lo int, steps []float64) (int, error) {
	if !p.walk {
		if sc.sm == nil {
			sc.sm = NewSimulator()
		}
		for i := range steps {
			sc.plan = p.sw.Fill(sc.plan, lo+i)
			st, err := sc.sm.Simulate(p.m, sc.plan, p.arch)
			if err != nil {
				return i, err
			}
			steps[i] = st.StepSeconds
		}
		return len(steps), nil
	}
	for i := 0; i < len(steps); i += 4 {
		// A short tail's spare lanes walk points past it, which any code
		// names (Fill ignores the bits above the free cells); their steps
		// are dropped.
		var s [4]float64
		code := lo + i
		s[0], s[1], s[2], s[3] = p.walk4(code, code+1, code+2, code+3)
		for j, step := range s[:min(4, len(steps)-i)] {
			if step != step {
				return i + j, p.fault(code + j)
			}
			steps[i+j] = step
		}
	}
	return len(steps), nil
}

// walk4 returns the step times of four points: buildSerial's clocks,
// each adding its durations in buildSerial's order.
func (p *SweepProgram) walk4(c0, c1, c2, c3 int) (s0, s1, s2, s3 float64) {
	durs, t := p.durs, 0
	for _, run := range p.runs {
		o0, o1, o2, o3 := run.at, run.at, run.at, run.at
		for _, tm := range p.terms[t:run.terms] {
			o0 += c0 >> tm.bit & 1 * tm.step
			o1 += c1 >> tm.bit & 1 * tm.step
			o2 += c2 >> tm.bit & 1 * tm.step
			o3 += c3 >> tm.bit & 1 * tm.step
		}
		t = run.terms
		r0 := durs[o0 : o0+run.n]
		r1, r2, r3 := durs[o1:][:len(r0)], durs[o2:][:len(r0)], durs[o3:][:len(r0)]
		for k, d := range r0 {
			s0 += d
			s1 += r1[k]
			s2 += r2[k]
			s3 += r3[k]
		}
	}
	return s0, s1, s2, s3
}

// fault returns the error of the first failed duration code's walk
// meets.
func (p *SweepProgram) fault(code int) error {
	t := 0
	for _, run := range p.runs {
		o := run.at
		for _, tm := range p.terms[t:run.terms] {
			o += code >> tm.bit & 1 * tm.step
		}
		t = run.terms
		for _, d := range p.durs[o : o+run.n] {
			if d != d {
				return p.errs[math.Float64bits(d)&^failedBits]
			}
		}
	}
	return nil
}
