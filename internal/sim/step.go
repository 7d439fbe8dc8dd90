package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/noc"
	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Arch bundles the hardware configuration of one HyPar accelerator
// array: the per-node memory and energy model, the per-node compute
// engine, and the inter-node network. The cost models are the
// platform.Platform interfaces, so the same step builder simulates the
// paper's HMC array, a GPU-HBM array or a TPU-style systolic array —
// only the Arch contents change.
type Arch struct {
	Mem   platform.Memory
	Comp  platform.Compute
	NoC   noc.Topology
	DType tensor.DType

	// LevelMems holds the energy model billing each hierarchy level's
	// link bytes, root cut first: level h's transfers charge
	// LevelMems[h].LinkEnergy, so a heterogeneous array bills each cut's
	// bytes at that cut's platform, and a single-platform array holds Mem
	// at every level. It must cover every level a simulated plan has.
	// Compute, DRAM and capacity stay on Mem: the node platform owns the
	// accelerators regardless of what fabrics sit above them.
	LevelMems []platform.Memory

	// OverlapGradComm lets gradient partial-sum exchanges proceed
	// concurrently with the remaining backward sweep instead of
	// serializing phase by phase. The paper's simulator executes the
	// phases of each layer in order (the default here); overlapping is
	// provided as an ablation of what a communication-hiding runtime
	// would recover.
	OverlapGradComm bool

	// CollectTrace records every scheduled task into Stats.Trace for
	// Chrome trace export and occupancy analysis.
	CollectTrace bool
}

// Validate checks the architecture.
func (a Arch) Validate() error {
	if a.Mem == nil {
		return fmt.Errorf("%w: nil memory model", ErrSim)
	}
	if err := a.Mem.Validate(); err != nil {
		return err
	}
	if a.Comp == nil {
		return fmt.Errorf("%w: nil compute model", ErrSim)
	}
	if err := a.Comp.Validate(); err != nil {
		return err
	}
	if a.NoC == nil {
		return fmt.Errorf("%w: nil topology", ErrSim)
	}
	for h, m := range a.LevelMems {
		if m == nil {
			return fmt.Errorf("%w: nil level-%d memory model", ErrSim, h)
		}
		if err := m.Validate(); err != nil {
			return fmt.Errorf("level %d: %w", h, err)
		}
	}
	return nil
}

// Transfer prices one exchange of bytes (both directions, per pair) on
// hierarchy level h's links: how long the level takes, and the energy
// its link bytes cost under LevelMems[h].
func (a *Arch) Transfer(h int, bytes float64) (seconds, joules float64, err error) {
	seconds, err = a.NoC.TransferTime(h, bytes)
	if err != nil {
		return 0, 0, err
	}
	linkBytes, err := a.NoC.LinkBytes(h, bytes)
	if err != nil {
		return 0, 0, err
	}
	if h < 0 || h >= len(a.LevelMems) {
		return 0, 0, fmt.Errorf("%w: %d per-level memory models, level %d has none", ErrSim, len(a.LevelMems), h)
	}
	return seconds, a.LevelMems[h].LinkEnergy(linkBytes), nil
}

// Stats aggregates the outcome of simulating one training step.
type Stats struct {
	// StepSeconds is the makespan of one complete training step.
	StepSeconds float64
	// ComputeSeconds is the accelerator-array busy time (compute+DRAM
	// critical path contribution).
	ComputeSeconds float64
	// CommSeconds[h] is the busy time of hierarchy level h's links.
	CommSeconds []float64

	// Energy breakdown, joules, summed over the whole array.
	EnergyCompute float64
	EnergySRAM    float64
	EnergyDRAM    float64
	EnergyLink    float64

	// CommBytes is the paper's both-direction exchanged-byte total for
	// the step (Figure 8's quantity).
	CommBytes float64
	// DRAMBytes is the array-wide cube-DRAM traffic for the step.
	DRAMBytes float64
	// PeakMemoryBytes is the per-accelerator working set of one
	// training step: local shards of every layer's weights, gradients,
	// input/output activations and errors (activations are retained
	// for the backward pass, so the sets sum across layers).
	PeakMemoryBytes float64
	// FitsMemory reports whether PeakMemoryBytes fits the HMC capacity.
	FitsMemory bool
	// Tasks is the size of the scheduled task graph.
	Tasks int
	// Trace holds every scheduled task when Arch.CollectTrace is set.
	Trace []trace.Record
}

// TotalCommSeconds sums the per-level link busy times.
func (s *Stats) TotalCommSeconds() float64 {
	var t float64
	for _, c := range s.CommSeconds {
		t += c
	}
	return t
}

// EnergyTotal sums the energy breakdown.
func (s *Stats) EnergyTotal() float64 {
	return s.EnergyCompute + s.EnergySRAM + s.EnergyDRAM + s.EnergyLink
}

// Simulate runs one training step of the model under the given
// hierarchical partition plan on the architecture, returning timing,
// energy and communication statistics.
//
// The task graph follows the paper's three phases. Forward: layer
// compute (with DRAM streaming overlapped), then the mp partial-sum
// exchange of F_{l+1} level by level, then the inter-layer F
// conversions, then the next layer. Backward mirrors forward with E
// tensors. Gradient computation for layer l starts as soon as E_{l+1}
// exists and overlaps the remaining backward sweep; dp levels then
// exchange gradient partial sums on the level links (contending with
// backward traffic), followed by the local weight update.
func Simulate(m *nn.Model, plan *partition.Plan, arch Arch) (*Stats, error) {
	return NewSimulator().Simulate(m, plan, arch)
}

// Simulator owns a reusable engine so repeated simulations (sweeps,
// explorations, zoo comparisons) stop reallocating the task slab. The
// shapes and layer graph it schedules are the model's own
// (nn.Model.Derive). It keeps, across calls:
//
//   - the phase-cost table of the last (shapes, depth, cost models,
//     element width), so a sweep prices each layer phase once per leaf
//     shard instead of once per plan;
//   - the transfer prices of the last topology, per-level energy models
//     and element type, so steps that share them — a DAG or overlap
//     sweep's points, a comparison's strategies — price each (level,
//     volume) once;
//   - the step builder's scratch, so a reused Simulator allocates only
//     the returned Stats.
//
// The phase-cost memo keys on the model's memoized shapes, which never
// change: a model whose content changes derives new ones. A Simulator
// is not safe for concurrent use: give each worker its own. A sweep's
// points are priced by a SweepProgram, which workers share.
type Simulator struct {
	eng *Engine

	costs  costTable
	prices priceTable
	b      stepBuilder
}

// NewSimulator returns a Simulator with an empty engine.
func NewSimulator() *Simulator { return &Simulator{eng: NewEngine()} }

// costKey is everything a layer phase's cost depends on besides the
// layer and its leaf shard: the model's memoized shapes at the step's
// batch (keyed by their first layer, which a live key keeps from being
// recycled), the depth, which fixes the accelerator count, and the cost
// models and element width that price them. The cost models compare as
// interface values, which is why platform.Compute and platform.Memory
// implementations must be comparable.
type costKey struct {
	shapes *nn.LayerShapes
	depth  int
	comp   platform.Compute
	mem    platform.Memory
	dtype  tensor.DType
}

// phaseCost is one layer phase's task duration and the terms it adds to
// Stats, for one leaf shard. The terms stay apart rather than summed,
// so adding them in the step's order gives the same floats as pricing
// the phase in place.
type phaseCost struct {
	dur       float64 // the longer of compute and DRAM time
	mac       float64 // MAC energy
	sram      float64 // SRAM energy
	dram      float64 // DRAM energy
	dramBytes float64 // array-wide DRAM bytes
	local     float64 // activation+pooling (forward) or weight-update (gradient) energy
	filled    bool
}

// costTable holds the phaseCost of every (layer, phase, leaf DP count)
// under one costKey, filled lazily: a sweep over one model fills each
// cell once, while a stream of distinct keys prices only the cells its
// plans use. A depth-H leaf shard is {DP: d, MP: H-d}, so the DP count
// alone selects the shard.
type costTable struct {
	key   costKey
	cells []phaseCost
}

// cellsFor returns the table's cells for key, emptied unless key is the
// one they were filled under.
func (t *costTable) cellsFor(key costKey, layers int) []phaseCost {
	if t.cells != nil && t.key == key {
		return t.cells
	}
	t.key = key
	t.cells = resize(t.cells, layers*len(nn.Phases)*(key.depth+1))
	clear(t.cells)
	return t.cells
}

// priceBits sizes each level's transfer-price memo: a sweep's level
// sees only a few distinct volumes.
const priceBits = 7

// price is a memoized transfer of the volume whose float64 bits are
// bits, valid while gen is its table's generation.
type price struct {
	bits, gen   uint64
	dur, energy float64
}

// priceTable memoizes transfer prices per (level, volume), one
// direct-mapped table per level, under the inputs that price them: the
// topology, each level's energy model and the element type, compared as
// interface values like costKey's. Bumping gen empties it, clearing no memory.
type priceTable struct {
	noc   noc.Topology
	mems  []platform.Memory
	dtype tensor.DType
	gen   uint64
	slots [][1 << priceBits]price
}

// slotsFor returns the first levels levels' slots and generation,
// emptied unless arch prices each level as the arch they hold did. The
// first step under new inputs gets none, so one-off steps never touch it.
func (t *priceTable) slotsFor(arch *Arch, levels int) ([][1 << priceBits]price, uint64) {
	same := t.noc == arch.NoC && t.dtype == arch.DType && len(t.mems) >= levels
	for h := 0; same && h < levels; h++ {
		same = t.mems[h] == arch.LevelMems[h]
	}
	if !same {
		t.noc, t.dtype, t.mems = arch.NoC, arch.DType, append(t.mems[:0], arch.LevelMems[:levels]...)
		t.slots, t.gen = resize(t.slots, levels), t.gen+1
		return nil, 0
	}
	return t.slots, t.gen
}

// resize returns s with length n, reallocating only when its capacity
// is short. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Simulate is Simulate on the Simulator's engine, memos and scratch.
func (s *Simulator) Simulate(m *nn.Model, plan *partition.Plan, arch Arch) (*Stats, error) {
	b := &s.b
	g, err := s.begin(b, m, plan, arch)
	if err != nil {
		return nil, err
	}
	b.costs = s.costs.cellsFor(costKey{
		shapes: &b.shapes[0], depth: b.levels,
		comp: arch.Comp, mem: arch.Mem, dtype: arch.DType,
	}, len(b.shapes))
	b.stats = &Stats{CommSeconds: make([]float64, b.levels)}
	b.prices, b.priceGen = s.prices.slotsFor(&arch, b.levels)
	b.shard()

	if g.Chain && !arch.OverlapGradComm && !arch.CollectTrace {
		b.clock, b.tasks = 0, 0
		if err := b.buildSerial(); err != nil {
			return nil, err
		}
		b.stats.StepSeconds = b.clock
		b.stats.Tasks = b.tasks
	} else {
		s.eng.Reset()
		b.eng = s.eng
		if err := b.build(); err != nil {
			return nil, err
		}
		makespan, err := s.eng.Run()
		if err != nil {
			return nil, err
		}
		b.stats.StepSeconds = makespan
		b.stats.ComputeSeconds = b.compute.Busy()
		for h, r := range b.links {
			b.stats.CommSeconds[h] = r.Busy()
		}
		b.stats.Tasks = s.eng.NumTasks()
		if arch.CollectTrace {
			b.stats.Trace = s.eng.TraceRecords()
		}
	}
	b.stats.CommBytes = plan.TotalBytes(arch.DType)
	b.stats.PeakMemoryBytes = b.workingSet()
	b.stats.FitsMemory = arch.Mem.Fits(b.stats.PeakMemoryBytes)
	return b.stats, nil
}

// begin runs Simulate's checks of m, plan and arch, in Simulate's order
// and with its error text, and points b at them: shapes, depth, element
// size and the edge order to schedule. It returns the model's graph.
// b's phase-cost cells, stats and transfer-price slots are the caller's
// to set.
func (s *Simulator) begin(b *stepBuilder, m *nn.Model, plan *partition.Plan, arch Arch) (*nn.Graph, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	shapes, g, err := m.Derive(plan.Batch)
	if err != nil {
		return nil, err
	}
	if len(plan.Levels) > 0 && len(shapes) != len(plan.Levels[0]) {
		return nil, fmt.Errorf("%w: plan is for %d layers, model %q has %d",
			ErrSim, len(plan.Levels[0]), m.Name, len(shapes))
	}
	if plan.Model != "" && plan.Model != m.Name {
		return nil, fmt.Errorf("%w: plan was computed for model %q, not %q",
			ErrSim, plan.Model, m.Name)
	}
	levels := plan.NumLevels()
	if arch.NoC.Levels() < levels {
		return nil, fmt.Errorf("%w: topology has %d levels, plan needs %d",
			ErrSim, arch.NoC.Levels(), levels)
	}
	if len(arch.LevelMems) < levels {
		return nil, fmt.Errorf("%w: %d per-level memory models, plan needs %d",
			ErrSim, len(arch.LevelMems), levels)
	}

	b.shapes, b.plan, b.arch = shapes, plan, arch
	b.levels = levels
	b.accs = float64(int64(1) << uint(levels))
	b.es = float64(arch.DType.Size())
	b.named = arch.CollectTrace
	if err := b.route(g); err != nil {
		return nil, err
	}
	return g, nil
}

// stepBuilder compiles one training step and accrues its energy. It
// either adds the step's tasks to the engine or, for a phase-serial
// chain, sums their durations directly (buildSerial). A Simulator keeps
// one so the per-step scratch below survives across simulations.
type stepBuilder struct {
	shapes []nn.LayerShapes
	plan   *partition.Plan
	arch   Arch
	levels int     // hierarchy depth H
	accs   float64 // accelerator count 2^H
	es     float64 // element size in bytes
	named  bool    // format task names (only needed for trace export)
	stats  *Stats

	// costs is the Simulator's phase-cost table for this step's key,
	// indexed by costIndex.
	costs []phaseCost
	// prices[h] memoizes level h's transfers (slots of priceGen; nil: none).
	prices   [][1 << priceBits]price
	priceGen uint64

	// edges is the model's layer-to-layer edge list in the canonical
	// (Src, Dst) order the plan's per-edge volumes are indexed by;
	// outEdges/inEdges index it per layer.
	edges    []nn.Edge
	outEdges [][]int
	inEdges  [][]int

	// leafShard[l] is layer l's shard state below the whole hierarchy.
	leafShard []tensor.Shard

	// The running sum of a serial step: the last task's finish time
	// and the task count.
	clock float64
	tasks int

	// Engine-path state. deps and bdeps are scratch dependency lists
	// reused across layers; AddTask does not retain the slice it is
	// given. convTail[e] and errTail[e] are the last tasks of edge e's F
	// and E conversions.
	eng               *Engine
	compute           *Resource
	links             []*Resource
	convTail, errTail []*Task
	deps, bdeps       []*Task
}

// route selects the edge order the step schedules from. The plan's
// per-edge conversion volumes are indexed parallel to its own Edges, so
// schedule from that order when recorded; plans without one (hand-built
// zero-level plans) use the canonical order. Planners record the
// canonical order, so the graph's per-layer lists serve almost every
// plan as they are.
func (b *stepBuilder) route(g *nn.Graph) error {
	switch {
	case b.plan.Edges == nil || slices.Equal(b.plan.Edges, g.Edges):
		b.edges, b.outEdges, b.inEdges = g.Edges, g.Out, g.In
	case len(b.plan.Edges) != len(g.Edges):
		return fmt.Errorf("%w: plan records %d edges, model has %d",
			ErrSim, len(b.plan.Edges), len(g.Edges))
	default:
		// The recorded edge set must be exactly the model's (any order):
		// per-edge volumes attached to wiring the model does not have
		// would silently charge conversions on the wrong edges.
		set := make(map[nn.Edge]bool, len(g.Edges))
		for _, ed := range g.Edges {
			set[ed] = true
		}
		for _, ed := range b.plan.Edges {
			if !set[ed] {
				return fmt.Errorf("%w: plan edge %v is not an edge of model %q", ErrSim, ed, b.plan.Model)
			}
			delete(set, ed)
		}
		out, in := nn.IndexEdges(b.plan.Edges, len(b.shapes))
		b.edges, b.outEdges, b.inEdges = b.plan.Edges, out, in
	}
	return nil
}

// shard derives every layer's leaf shard from the plan.
func (b *stepBuilder) shard() {
	b.leafShard = resize(b.leafShard, len(b.shapes))
	for l := range b.leafShard {
		var sh tensor.Shard
		for h := 0; h < b.levels; h++ {
			sh = sh.Apply(b.plan.At(h, l) == comm.DP)
		}
		b.leafShard[l] = sh
	}
}

// linkNames holds the level-link resource names, formatted once
// instead of on every simulated step.
var linkNames = func() []string {
	names := make([]string, 32)
	for h := range names {
		names[h] = fmt.Sprintf("link-H%d", h+1)
	}
	return names
}()

// linkName names level h's link resource ("link-H1" is the top level).
func linkName(h int) string {
	if h < len(linkNames) {
		return linkNames[h]
	}
	return fmt.Sprintf("link-H%d", h+1)
}

// build adds the step's resources and full task graph to the engine.
func (b *stepBuilder) build() error {
	b.compute = b.eng.AddResource("array-compute")
	b.links = resize(b.links, b.levels)
	for h := range b.links {
		b.links[h] = b.eng.AddResource(linkName(h))
	}
	b.convTail = resize(b.convTail, len(b.edges))
	b.errTail = resize(b.errTail, len(b.edges))
	clear(b.convTail)
	clear(b.errTail)
	fwdDone, err := b.buildForward()
	if err != nil {
		return err
	}
	return b.buildBackwardGradient(fwdDone)
}

// workingSet returns the per-accelerator bytes resident during one
// training step: weight and gradient shards plus the retained
// activations and errors of every layer.
func (b *stepBuilder) workingSet() float64 {
	var total float64
	for l := range b.shapes {
		s := &b.shapes[l]
		sh := b.leafShard[l]
		w := sh.KernelElems(s.Kernel)
		in := sh.InputElems(s.In)
		out := sh.OutputElems(s.Out)
		// W + ∆W + F_l + F_{l+1} + E_{l+1} (E_l aliases the previous
		// layer's E_{l+1}).
		total += (2*w + in + 2*out) * b.es
	}
	return total
}

// taskName formats "prefix/layer" when names are collected and returns
// the empty string otherwise, keeping fmt off the hot path.
func (b *stepBuilder) taskName(prefix string, l int) string {
	if !b.named {
		return ""
	}
	return prefix + "/" + b.shapes[l].Layer.Name
}

// edgeTaskName formats "prefix/src->dst" for per-edge transfers, so a
// fork's parallel conversion chains stay distinguishable in traces.
func (b *stepBuilder) edgeTaskName(prefix string, e int) string {
	if !b.named {
		return ""
	}
	ed := b.edges[e]
	return prefix + "/" + b.shapes[ed.Src].Layer.Name + "->" + b.shapes[ed.Dst].Layer.Name
}

// phaseCost returns layer l's phase-p cost under its leaf shard,
// pricing the table cell on first use.
func (b *stepBuilder) phaseCost(l int, p nn.Phase) *phaseCost {
	sh := b.leafShard[l]
	c := &b.costs[(l*len(nn.Phases)+int(p))*(b.levels+1)+sh.DP]
	if c.filled {
		return c
	}
	s := &b.shapes[l]
	n := b.accs
	dur, perAccMACs, traffic := b.phaseTime(l, p)
	*c = phaseCost{
		dur:       dur,
		mac:       b.arch.Mem.MACEnergy(perAccMACs * n),
		sram:      b.arch.Mem.SRAMEnergy(2 * perAccMACs * n),
		dram:      b.arch.Mem.DRAMEnergy(traffic * n),
		dramBytes: traffic * n,
		filled:    true,
	}
	switch p {
	case nn.Forward:
		// Activation and pooling, local element-wise work.
		aux := float64(s.ActOps()+s.PoolOps()) / n
		c.local = b.arch.Mem.AddEnergy(aux * n)
	case nn.Gradient:
		// Weight update: one multiply-add per local weight shard.
		upd := sh.KernelElems(s.Kernel)
		c.local = b.arch.Mem.AddEnergy(upd * n)
	}
	return c
}

// phaseTime returns layer l's phase-p duration under its leaf shard,
// the longer of compute and DRAM time, with the per-accelerator MACs and
// the DRAM traffic it is priced from.
func (b *stepBuilder) phaseTime(l int, p nn.Phase) (dur, perAccMACs, traffic float64) {
	s := &b.shapes[l]
	perAccMACs = float64(s.MACs(p)) / b.accs
	computeT := b.arch.Comp.ComputeTime(perAccMACs, s)
	opBytes, resBytes := b.phaseBytes(l, p)
	traffic = b.arch.Comp.DRAMTraffic(s, opBytes, resBytes)
	dramT := b.arch.Mem.DRAMTime(traffic)
	dur = computeT
	if dramT > dur {
		dur = dramT
	}
	return dur, perAccMACs, traffic
}

// chargePhase adds one compute+DRAM phase of a layer to the step's
// energy, array-wide, and returns its cost.
func (b *stepBuilder) chargePhase(l int, p nn.Phase) *phaseCost {
	c := b.phaseCost(l, p)
	st := b.stats
	st.EnergyCompute += c.mac
	st.EnergySRAM += c.sram
	st.EnergyDRAM += c.dram
	st.DRAMBytes += c.dramBytes
	if p != nn.Backward {
		st.EnergyCompute += c.local
	}
	return c
}

// phaseTask adds one compute+DRAM task for a phase of a layer and
// charges its energy.
func (b *stepBuilder) phaseTask(name string, l int, p nn.Phase, deps ...*Task) (*Task, error) {
	return b.eng.AddTask(name, b.chargePhase(l, p).dur, b.compute, deps...)
}

// phaseBytes returns the per-accelerator operand and result bytes of a
// phase under the leaf shard state.
func (b *stepBuilder) phaseBytes(l int, p nn.Phase) (op, res float64) {
	s := &b.shapes[l]
	sh := b.leafShard[l]
	in := sh.InputElems(s.In) * b.es
	out := sh.OutputElems(s.Out) * b.es
	w := sh.KernelElems(s.Kernel) * b.es
	switch p {
	case nn.Forward:
		return in + w, out
	case nn.Backward:
		return out + w, in
	default: // Gradient
		return in + out, w
	}
}

// transfer returns how long level h's links take to exchange elems
// one-direction elements per pair, charging the link energy. The
// exchange a link carries is both directions (the paper's 2× counting),
// and all pairs of a level move concurrently on that level's link
// resource. A price is memoized only once its duration passes checkDuration.
func (b *stepBuilder) transfer(h int, elems float64) (float64, error) {
	key := math.Float64bits(elems)
	var p *price
	if b.prices != nil {
		if p = &b.prices[h][key*0x9e3779b97f4a7c15>>(64-priceBits)]; p.bits == key && p.gen == b.priceGen {
			b.stats.EnergyLink += p.energy
			return p.dur, nil
		}
	}
	dur, energy, err := b.arch.Transfer(h, 2*elems*b.es)
	if err != nil {
		return 0, err
	}
	if p != nil && checkDuration("", dur) == nil {
		*p = price{key, b.priceGen, dur, energy}
	}
	b.stats.EnergyLink += energy
	return dur, nil
}

// transferChain appends one NoC transfer task per hierarchy level with
// non-zero volume, chained after prev. Volumes are one-direction
// per-pair element counts.
func (b *stepBuilder) transferChain(name string, vols func(h int) float64, prev *Task) (*Task, error) {
	for h := 0; h < b.levels; h++ {
		elems := vols(h)
		if elems <= 0 {
			continue
		}
		dur, err := b.transfer(h, elems)
		if err != nil {
			return nil, err
		}
		id := ""
		if b.named {
			id = fmt.Sprintf("%s@H%d", name, h+1)
		}
		t, err := b.eng.AddTask(id, dur, b.links[h], prev)
		if err != nil {
			return nil, err
		}
		prev = t
	}
	return prev, nil
}

// dedupeDeps drops nil and repeated tasks in place, preserving order.
func dedupeDeps(deps []*Task) []*Task {
	out := deps[:0]
	for _, d := range deps {
		if d == nil {
			continue
		}
		dup := false
		for _, e := range out {
			if e == d {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, d)
		}
	}
	return out
}

// buildForward builds the forward sweep in topological (declaration)
// order and returns its final task. Each layer's compute waits for the
// F conversions of every incoming edge; a fork's duplicated feature map
// yields one conversion chain per outgoing edge, all branching off the
// producer's partial-sum exchange. For a chain this reproduces the
// historical linear sweep task for task.
func (b *stepBuilder) buildForward() (*Task, error) {
	var last *Task
	for l := range b.shapes {
		deps := b.deps[:0]
		for _, e := range b.inEdges[l] {
			deps = append(deps, b.convTail[e])
		}
		b.deps = deps
		ct, err := b.phaseTask(b.taskName("fwd", l), l, nn.Forward, dedupeDeps(deps)...)
		if err != nil {
			return nil, err
		}
		// mp partial-sum exchange of F_{l+1}, level by level.
		t, err := b.transferChain(b.taskName("fwd-psum", l),
			func(h int) float64 { return b.plan.Details[h].IntraFwd[l] }, ct)
		if err != nil {
			return nil, err
		}
		// Inter-layer F conversion along every outgoing edge.
		for _, e := range b.outEdges[l] {
			et, err := b.transferChain(b.edgeTaskName("fwd-conv", e),
				func(h int) float64 { return b.plan.Details[h].InterF[e] }, t)
			if err != nil {
				return nil, err
			}
			b.convTail[e] = et
		}
		if len(b.outEdges[l]) == 0 {
			// The sink: its post-exchange output feeds the loss.
			last = t
		}
	}
	return last, nil
}

// buildBackwardGradient builds the backward sweep in reverse
// topological order. A layer's output error is ready once every
// consumer has run its backward compute and pushed the E conversion of
// the connecting edge — a fork's skip tensor therefore joins error
// contributions from every consumer edge before the producer's
// gradient and backward phases run. In the default phase-serial
// schedule each layer runs gradient compute, gradient exchange,
// backward compute and E conversions in order before the next layer
// starts — matching the paper's per-layer execution. With
// OverlapGradComm, gradient work branches off the sweep and contends
// only for the compute and link resources. For a chain this reproduces
// the historical linear sweep task for task.
func (b *stepBuilder) buildBackwardGradient(fwdDone *Task) error {
	nl := len(b.shapes)
	prev := fwdDone // the sink's E comes out of the loss right after forward
	for l := nl - 1; l >= 0; l-- {
		// The layer's output error: the loss for the sink, otherwise the
		// E conversions of every outgoing edge.
		errDeps := append(b.deps[:0], prev)
		for _, e := range b.outEdges[l] {
			errDeps = append(errDeps, b.errTail[e])
		}
		b.deps = errDeps
		errDeps = dedupeDeps(errDeps)

		// Gradient for layer l consumes the layer's output error.
		gt, err := b.phaseTask(b.taskName("grad", l), l, nn.Gradient, errDeps...)
		if err != nil {
			return err
		}
		// dp gradient partial-sum exchange (allreduce), level by level.
		gTail, err := b.transferChain(b.taskName("grad-psum", l),
			func(h int) float64 { return b.plan.Details[h].IntraGrad[l] }, gt)
		if err != nil {
			return err
		}
		if !b.arch.OverlapGradComm {
			prev = gTail
		}
		if len(b.inEdges[l]) == 0 {
			// Only the model input feeds this layer: its input error is
			// never consumed, so there is no backward compute.
			continue
		}
		bdeps := append(append(b.bdeps[:0], prev), errDeps...)
		b.bdeps = bdeps
		bdeps = dedupeDeps(bdeps)
		ct, err := b.phaseTask(b.taskName("bwd", l), l, nn.Backward, bdeps...)
		if err != nil {
			return err
		}
		// Inter-layer E conversion along every incoming edge.
		t := ct
		for _, e := range b.inEdges[l] {
			t, err = b.transferChain(b.edgeTaskName("bwd-conv", e),
				func(h int) float64 { return b.plan.Details[h].InterE[e] }, t)
			if err != nil {
				return err
			}
			b.errTail[e] = t
		}
		prev = t
	}
	return nil
}

// buildSerial prices a chain model's phase-serial step without the
// engine. With chain wiring, OverlapGradComm off and no trace, the task
// graph buildForward and buildBackwardGradient would add is a total
// order: every task's latest dependency is the task added just before
// it (forward computes wait on the previous edge's conversion tail;
// backward error dependencies dedupe to the previous task; a backward
// compute's latest dependency is the gradient exchange just added). So
// each task starts exactly when its predecessor finishes, on a resource
// that is already free, and the engine's schedule reduces to running
// sums: the makespan is the last finish, each resource's busy time is
// its durations summed in add order, and Tasks is the count. The sums
// below are the engine's additions in the engine's order, so every
// Stats field is bit-identical; TestChainScheduleMatchesEngine pins it.
func (b *stepBuilder) buildSerial() error {
	nl := len(b.shapes)
	for l := 0; l < nl; l++ {
		if err := b.serialPhase(l, nn.Forward); err != nil {
			return err
		}
		if err := b.serialTransfers(func(h int) float64 { return b.plan.Details[h].IntraFwd[l] }); err != nil {
			return err
		}
		for _, e := range b.outEdges[l] {
			if err := b.serialTransfers(func(h int) float64 { return b.plan.Details[h].InterF[e] }); err != nil {
				return err
			}
		}
	}
	for l := nl - 1; l >= 0; l-- {
		if err := b.serialPhase(l, nn.Gradient); err != nil {
			return err
		}
		if err := b.serialTransfers(func(h int) float64 { return b.plan.Details[h].IntraGrad[l] }); err != nil {
			return err
		}
		if len(b.inEdges[l]) == 0 {
			continue
		}
		if err := b.serialPhase(l, nn.Backward); err != nil {
			return err
		}
		for _, e := range b.inEdges[l] {
			if err := b.serialTransfers(func(h int) float64 { return b.plan.Details[h].InterE[e] }); err != nil {
				return err
			}
		}
	}
	return nil
}

// serialPhase runs one layer phase on the serial step's compute.
func (b *stepBuilder) serialPhase(l int, p nn.Phase) error {
	return b.serial(b.chargePhase(l, p).dur, &b.stats.ComputeSeconds)
}

// serialTransfers runs one transfer per hierarchy level with non-zero
// volume on the serial step's links, as transferChain would chain them.
func (b *stepBuilder) serialTransfers(vols func(h int) float64) error {
	for h := 0; h < b.levels; h++ {
		elems := vols(h)
		if elems <= 0 {
			continue
		}
		dur, err := b.transfer(h, elems)
		if err != nil {
			return err
		}
		if err := b.serial(dur, &b.stats.CommSeconds[h]); err != nil {
			return err
		}
	}
	return nil
}

// serial appends one task of the given duration to the serial step:
// it starts at the clock, occupies the resource whose busy time is
// busy, and moves the clock to its finish.
func (b *stepBuilder) serial(dur float64, busy *float64) error {
	if err := checkDuration("", dur); err != nil {
		return err
	}
	b.clock += dur
	*busy += dur
	b.tasks++
	return nil
}
