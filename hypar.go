// Package hypar is the public API of this reproduction of "HyPar:
// Towards Hybrid Parallelism for Deep Learning Accelerator Array"
// (Song et al., HPCA 2019).
//
// HyPar trains a deep neural network on an array of 2^H HMC-based
// accelerators and must decide, for every weighted layer at every level
// of the array hierarchy, between data parallelism (shard the batch,
// replicate the kernel) and model parallelism (shard the kernel,
// aggregate output partial sums). The package computes the
// communication-minimizing hybrid partition with a linear-time
// layer-wise dynamic program applied level by level, and evaluates
// partitions on an event-driven simulator of the HMC + Eyeriss-style
// row-stationary + H-tree/torus architecture.
//
// Typical use:
//
//	m, _ := hypar.ModelByName("VGG-A")
//	res, _ := hypar.Run(m, hypar.HyPar, hypar.DefaultConfig())
//	fmt.Println(res.Plan.LayerString(0), res.Stats.StepSeconds)
//
// or compare against the published baselines:
//
//	cmp, _ := hypar.Compare(m, hypar.DefaultConfig())
//	fmt.Println(cmp.PerformanceGain(hypar.HyPar)) // normalized to DP
package hypar

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// ErrConfig reports an invalid top-level configuration.
var ErrConfig = errors.New("hypar: invalid config")

// Re-exported core types, so downstream users interact with one import.
type (
	// Model is a feed-forward DNN description (see nn.Model). A model
	// is plain data: any field may change between calls, and the next
	// call sees the change. Only a change made while a call is reading
	// the model is a data race.
	Model = nn.Model
	// Input is the geometry of one training sample.
	Input = nn.Input
	// Layer is one weighted layer with folded pooling/activation.
	Layer = nn.Layer
	// LayerType distinguishes convolutional from fully-connected layers.
	LayerType = nn.LayerType
	// Plan is a hierarchical parallelism assignment with its
	// communication volumes.
	Plan = partition.Plan
	// Stats is the simulated outcome of one training step.
	Stats = sim.Stats
	// Arch is the simulated hardware platform.
	Arch = sim.Arch
	// Platform bundles an accelerator platform's cost models (compute,
	// memory/energy, interconnect, partition weights). See Platforms for
	// the registered names.
	Platform = platform.Platform
)

// Platform selection helpers.
var (
	// Platforms lists the registered accelerator platform names, sorted
	// ("hmc", "gpu-hbm", "tpu-systolic" by default).
	Platforms = platform.Names
	// PlatformByName resolves a registered platform by its wire name.
	PlatformByName = platform.ByName
)

// DefaultPlatform is the platform an empty Config.Platform means: the
// paper's HMC-based array. It aliases platform.DefaultName — the single
// place the empty-name fallback is defined.
const DefaultPlatform = platform.DefaultName

// Layer kind constants for hand-built models.
const (
	// Conv marks a convolutional layer.
	Conv = nn.Conv
	// FC marks a fully-connected layer.
	FC = nn.FC
)

// JoinOp selects how a multi-input layer of a branched (DAG) model
// combines its producers' feature maps (see nn.JoinOp): channel/vector
// concatenation or the residual element-wise add.
type JoinOp = nn.JoinOp

// Join operators for hand-built branched models.
const (
	// JoinConcat concatenates producer feature maps — along channels
	// for a convolutional consumer, along the flattened vector for a
	// fully-connected one. The default for multi-input layers.
	JoinConcat = nn.Concat
	// JoinAdd element-wise adds identically shaped producer maps (the
	// residual skip connection).
	JoinAdd = nn.Add
)

// InputName is the reserved Layer.Inputs reference naming the model
// input tensor in branched models.
const InputName = nn.InputName

// DType is the element type tensors are accounted in.
type DType = tensor.DType

// Float32 is the paper's 32-bit floating-point precision.
const Float32 = tensor.Float32

// Layer constructors for hand-built models.
var (
	// ConvLayer builds a stride-1 convolution.
	ConvLayer = nn.ConvLayer
	// ConvPoolLayer builds a stride-1 convolution with max pooling.
	ConvPoolLayer = nn.ConvPoolLayer
	// FCLayer builds a fully-connected layer.
	FCLayer = nn.FCLayer
)

// Model zoo passthroughs (the paper's ten evaluation networks plus the
// branched workloads).
var (
	// Zoo returns the ten networks of the evaluation (Figure 5 order).
	Zoo = nn.Zoo
	// BranchedZoo returns the branched (DAG) workload networks — the
	// residual SRES-8 and the two-branch inception-style Incep-2. They
	// are kept out of Zoo so the paper's figures stay exactly the
	// paper's.
	BranchedZoo = nn.BranchedZoo
	// ModelByName looks a network up by name across Zoo and
	// BranchedZoo, e.g. "VGG-A" or "SRES-8".
	ModelByName = nn.ByName
)

// Strategy selects how the parallelism assignment is produced.
type Strategy int

const (
	// HyPar runs the hierarchical dynamic-programming partition search
	// (the paper's contribution).
	HyPar Strategy = iota
	// DataParallel assigns data parallelism everywhere (the default
	// baseline all results are normalized to).
	DataParallel
	// ModelParallel assigns model parallelism everywhere.
	ModelParallel
	// OneWeirdTrick assigns dp to conv layers and mp to fc layers at
	// every level (Krizhevsky's empirical configuration [111]).
	OneWeirdTrick
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case HyPar:
		return "HyPar"
	case DataParallel:
		return "DataParallel"
	case ModelParallel:
		return "ModelParallel"
	case OneWeirdTrick:
		return "OneWeirdTrick"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy resolves a strategy from its wire spelling. Accepted
// names (case-insensitive): "hypar", "dp"/"dataparallel",
// "mp"/"modelparallel", "trick"/"oneweirdtrick". The CLI flags and the
// hypard service both parse through here.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(name) {
	case "hypar":
		return HyPar, nil
	case "dp", "dataparallel":
		return DataParallel, nil
	case "mp", "modelparallel":
		return ModelParallel, nil
	case "trick", "oneweirdtrick":
		return OneWeirdTrick, nil
	default:
		return 0, fmt.Errorf("%w: unknown strategy %q (hypar, dp, mp, trick)", ErrConfig, name)
	}
}

// MarshalJSON renders the strategy by name.
func (s Strategy) MarshalJSON() ([]byte, error) {
	switch s {
	case HyPar, DataParallel, ModelParallel, OneWeirdTrick:
		return json.Marshal(s.String())
	default:
		return nil, fmt.Errorf("%w: unknown strategy %v", ErrConfig, s)
	}
}

// UnmarshalJSON parses a strategy name (ParseStrategy spellings).
func (s *Strategy) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("%w: strategy: %v", ErrConfig, err)
	}
	parsed, err := ParseStrategy(name)
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

// Strategies lists all supported strategies in report order.
var Strategies = []Strategy{ModelParallel, DataParallel, OneWeirdTrick, HyPar}

// Faults describes failed accelerator groups in the array hierarchy:
// Groups of the 2^(Level+1) sub-trees formed at hierarchy level Level
// have failed and been fenced off. Each failed group at level h removes
// 2^(H-h-1) accelerators from the 2^H array; planning and simulation
// then run over the largest power-of-two sub-array the survivors can
// host (see Config.EffectiveLevels). The zero value means a healthy
// array.
type Faults struct {
	// Level is the hierarchy level (0-based, root splits first) at
	// which whole groups have failed.
	Level int `json:"level"`
	// Groups is the number of failed groups at Level; zero means no
	// faults.
	Groups int `json:"groups"`
}

// IsZero reports whether the spec describes a healthy array. A zero
// Faults marshals to nothing under Config's omitzero tag, so healthy
// configs keep their historical canonical JSON byte for byte.
func (f Faults) IsZero() bool { return f == Faults{} }

// String renders the spec in the CLI's "level:groups" spelling.
func (f Faults) String() string {
	return fmt.Sprintf("%d:%d", f.Level, f.Groups)
}

// ParseFaults parses the CLI spelling "level:groups" (for example
// "1:2" — two failed groups at hierarchy level 1). The empty string
// means no faults.
func ParseFaults(spec string) (Faults, error) {
	if spec == "" {
		return Faults{}, nil
	}
	lvl, grp, ok := strings.Cut(spec, ":")
	if !ok {
		return Faults{}, fmt.Errorf("%w: fault spec %q (want level:groups, e.g. 1:2)", ErrConfig, spec)
	}
	l, err1 := strconv.Atoi(strings.TrimSpace(lvl))
	g, err2 := strconv.Atoi(strings.TrimSpace(grp))
	if err1 != nil || err2 != nil {
		return Faults{}, fmt.Errorf("%w: fault spec %q (want level:groups, e.g. 1:2)", ErrConfig, spec)
	}
	return Faults{Level: l, Groups: g}, nil
}

// PlatformSpec assigns a platform per hierarchy level for a
// heterogeneous array. The internal form is the comma-separated
// per-level platform names, root cut (level 0) first; an empty slot
// inherits Config.Platform. The zero value means no per-level
// assignment: the whole array runs Config.Platform, exactly the
// historical behavior. The type is a plain (comparable) string so
// Config keeps working as a map key; on the wire it marshals as an
// object keyed by level index, e.g. {"0": "gpu-hbm", "1": "hmc"}.
type PlatformSpec string

// maxSpecLevels caps per-level assignment indices at the hierarchy
// depth Config.Validate accepts, so hostile level keys cannot force
// huge allocations.
const maxSpecLevels = 20

// IsZero reports whether no per-level assignment is configured. A zero
// spec marshals to nothing under Config's omitzero tag, so
// single-platform configs keep their historical canonical JSON byte for
// byte.
func (s PlatformSpec) IsZero() bool { return s == "" }

// Names returns the per-level platform names, root cut first (empty
// slots stay empty — Canonical fills them), or nil for the zero spec.
func (s PlatformSpec) Names() []string {
	if s == "" {
		return nil
	}
	return strings.Split(string(s), ",")
}

// joinSpec builds the internal comma form from per-level names.
func joinSpec(names []string) PlatformSpec {
	return PlatformSpec(strings.Join(names, ","))
}

// ParsePlatformSpec parses the CLI spelling: comma-separated per-level
// platform names, root cut first, e.g. "gpu-hbm,hmc,hmc,hmc". An empty
// slot inherits the -platform flag; the empty string means no per-level
// assignment.
func ParsePlatformSpec(spec string) (PlatformSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return "", nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) > maxSpecLevels {
		return "", fmt.Errorf("%w: per-level platform assignment names %d levels (max %d)",
			ErrConfig, len(parts), maxSpecLevels)
	}
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return joinSpec(parts), nil
}

// MarshalJSON renders the spec as its wire object, keys in ascending
// level order (manual: Go's map marshaling sorts lexically, which
// misorders two-digit levels). Empty slots are omitted.
func (s PlatformSpec) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, n := range s.Names() {
		if n == "" {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		key, err := json.Marshal(strconv.Itoa(i))
		if err != nil {
			return nil, err
		}
		val, err := json.Marshal(n)
		if err != nil {
			return nil, err
		}
		b.Write(key)
		b.WriteByte(':')
		b.Write(val)
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// UnmarshalJSON parses the wire object {"<level>": "<platform>", ...}.
// Levels may be sparse (holes inherit Config.Platform); keys must be
// integer level indices within the supported hierarchy depth, no two
// naming one level, and names must not contain commas (the internal
// separator).
func (s *PlatformSpec) UnmarshalJSON(data []byte) error {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("%w: platforms: %v", ErrConfig, err)
	}
	if len(m) == 0 {
		*s = ""
		return nil
	}
	byLevel := make(map[int]string, len(m))
	max := -1
	for k, v := range m {
		i, err := strconv.Atoi(k)
		if err != nil || i < 0 || i >= maxSpecLevels {
			return fmt.Errorf("%w: platforms key %q (want a level index 0..%d)",
				ErrConfig, k, maxSpecLevels-1)
		}
		if strings.Contains(v, ",") {
			return fmt.Errorf("%w: platforms level %d: invalid name %q", ErrConfig, i, v)
		}
		// Keys such as "0" and "00" name one level; letting either win
		// would make the result depend on map order.
		if _, dup := byLevel[i]; dup {
			return fmt.Errorf("%w: platforms level %d named twice", ErrConfig, i)
		}
		byLevel[i] = v
		if i > max {
			max = i
		}
	}
	names := make([]string, max+1)
	for i, v := range byLevel {
		names[i] = v
	}
	*s = joinSpec(names)
	return nil
}

// Config selects the workload and platform parameters.
type Config struct {
	// Batch is the mini-batch size (paper default: 256).
	Batch int `json:"batch"`
	// Levels is the hierarchy depth H; the array has 2^H accelerators
	// (paper default: 4 → 16 accelerators).
	Levels int `json:"levels"`
	// Platform names the accelerator platform: "hmc" (paper default,
	// empty means hmc), "gpu-hbm" or "tpu-systolic" — see Platforms.
	Platform string `json:"platform,omitempty"`
	// Platforms optionally assigns a platform per hierarchy level for a
	// heterogeneous array, e.g. {"0": "gpu-hbm", "1": "hmc"} — level 0
	// is the root cut, and the deepest level's platform is the node
	// platform doing the compute. Missing levels — holes inside the
	// spec and every level past its end — inherit Platform (empty means
	// hmc), so an unknown Platform is an error wherever a level
	// inherits it, and unused where every level is named. An
	// assignment naming one platform everywhere canonicalizes to the
	// plain Platform form, so single-platform configs (and their request
	// hashes) are unchanged. Where adjacent levels differ, transfers
	// crossing the upper cut pay an explicit protocol-conversion charge.
	Platforms PlatformSpec `json:"platforms,omitzero"`
	// Topology is the interconnect: "htree", "torus" or "ideal". Empty
	// means the platform's native default (htree for hmc, torus for
	// gpu-hbm and tpu-systolic).
	Topology string `json:"topology,omitempty"`
	// LinkMbps is the NoC link bandwidth in Mb/s. Zero means the
	// platform's native default (1600 for hmc, 200000 for gpu-hbm,
	// 496000 for tpu-systolic).
	LinkMbps float64 `json:"linkMbps,omitempty"`
	// OverlapGradComm enables the communication-hiding runtime
	// ablation (off by default, matching the paper's phase-serial
	// simulator).
	OverlapGradComm bool `json:"overlapGradComm,omitempty"`
	// Precision selects the element width: "fp32" (paper default,
	// empty means fp32), "fp16" or "int8" for precision ablations.
	Precision string `json:"precision,omitempty"`
	// Faults marks failed accelerator groups; the zero value (default)
	// is a healthy array and is omitted from the canonical JSON, so
	// fault-free configs hash identically to historical ones.
	Faults Faults `json:"faults,omitzero"`
	// SearchMethod selects the partition search algorithm for the HyPar
	// strategy: "" or "hierarchical" (also "graph") is the exact
	// per-level DP, "brute" the exhaustive reference, "beam" the
	// bounded-width beam search that plans graphs too wide for the exact
	// DP's frontier. The empty default is omitted from the canonical
	// JSON, so existing configs hash identically.
	SearchMethod string `json:"searchMethod,omitempty"`
	// BeamWidth bounds the beam search's kept states per layer
	// (searchMethod "beam" only; zero canonicalizes to the default
	// width, and any width is cleared under non-beam methods).
	BeamWidth int `json:"beamWidth,omitempty"`
}

// Canonical normalizes the configuration to its canonical equivalent:
// the empty precision becomes the explicit "fp32" it means, the empty
// platform becomes "hmc", and an empty topology or zero link bandwidth
// resolves to the named platform's native default. A per-level platform
// assignment fills its holes (levelPlatforms); naming one platform at
// every level, it collapses to the plain single-platform form, so its
// request hash is that form's; a mixed one keeps the full spec with
// Platform cleared and Topology/LinkMbps as given. Two configs with
// identical semantics therefore marshal to identical JSON — the
// property the hypard request hash relies on. An unknown platform name
// or an invalid spec is left untouched for Validate to reject.
func (c Config) Canonical() Config {
	canonicalCalls.Add(1)
	if c.Precision == "" {
		c.Precision = "fp32"
	}
	c = c.canonicalSearch()
	if !c.Platforms.IsZero() {
		per, err := c.levelPlatforms()
		if err != nil {
			return c
		}
		names := make([]string, len(per))
		for h, p := range per {
			names[h] = p.Name()
		}
		if slices.ContainsFunc(names, func(n string) bool { return n != names[0] }) {
			c.Platform, c.Platforms = "", joinSpec(names)
			return c
		}
		c.Platform, c.Platforms = names[0], ""
	}
	if c.Platform == "" {
		c.Platform = DefaultPlatform
	}
	if p, err := platform.ByName(c.Platform); err == nil {
		if c.Topology == "" {
			c.Topology = p.Topologies()[0]
		}
		if c.LinkMbps == 0 {
			c.LinkMbps = p.DefaultLinkMbps()
		}
	}
	return c
}

// maxBeamWidth bounds the beam width a config may request; each state
// holds a full assignment prefix, so an unbounded width would let one
// request allocate arbitrary memory.
const maxBeamWidth = 1 << 16

// canonicalSearch normalizes the search-method fields: method names
// fold to lower case, the aliases of the default exact search
// ("hierarchical", "graph") collapse to the empty string it means (so
// spelling the default explicitly hashes identically to omitting it),
// a beam request with zero width becomes the explicit default width,
// and a width under any non-beam method is dropped (it is meaningless
// there). Unknown method names are left untouched for Validate to
// reject.
func (c Config) canonicalSearch() Config {
	switch strings.ToLower(c.SearchMethod) {
	case "", "hierarchical", "graph":
		c.SearchMethod = ""
		c.BeamWidth = 0
	case "brute":
		c.SearchMethod = "brute"
		c.BeamWidth = 0
	case "beam":
		c.SearchMethod = "beam"
		if c.BeamWidth == 0 {
			c.BeamWidth = partition.DefaultBeamWidth
		}
	}
	return c
}

// levelPlatforms returns the platform of each level of a config with a
// Platforms spec, root cut first: the one rule for holes that
// Canonical, Validate and the assignment share. A level the spec leaves
// empty, inside it or past its end, inherits Platform (empty means
// hmc); an unregistered name, named or inherited, is an error.
func (c Config) levelPlatforms() ([]platform.Platform, error) {
	if c.Levels > maxSpecLevels {
		return nil, fmt.Errorf("%w: levels %d", ErrConfig, c.Levels)
	}
	names := c.Platforms.Names()
	if len(names) > c.Levels {
		return nil, fmt.Errorf("%w: per-level platform assignment covers %d levels, hierarchy has %d",
			ErrConfig, len(names), c.Levels)
	}
	per := make([]platform.Platform, c.Levels)
	for h := range per {
		name := c.Platform
		if h < len(names) && names[h] != "" {
			name = names[h]
		}
		p, err := platform.Resolve(name)
		if err != nil {
			return nil, fmt.Errorf("%w: level %d: %v", ErrConfig, h, err)
		}
		per[h] = p
	}
	return per, nil
}

// DefaultConfig returns the paper's evaluation workload — batch 256,
// sixteen accelerators in four hierarchy levels — with the platform
// fields left to their Canonical defaults: the hmc platform on its
// native H-tree at 1600 Mb/s. Leaving Topology and LinkMbps unset
// matters: setting Platform on the returned config selects that
// platform's native fabric instead of silently keeping the HMC's
// 1600 Mb/s H-tree.
func DefaultConfig() Config {
	return Config{Batch: 256, Levels: 4}
}

// Validate checks the configuration. Empty platform/topology and zero
// link bandwidth are valid: they mean the Canonical defaults.
func (c Config) Validate() error { return c.Canonical().validate() }

// validate is Validate on an already canonical configuration.
func (c Config) validate() error {
	validateCalls.Add(1)
	if c.Batch <= 0 {
		return fmt.Errorf("%w: batch %d", ErrConfig, c.Batch)
	}
	if c.Levels < 0 || c.Levels > maxSpecLevels {
		return fmt.Errorf("%w: levels %d", ErrConfig, c.Levels)
	}
	if _, err := partition.ParseMethod(c.SearchMethod); err != nil {
		return fmt.Errorf("%w: unknown search method %q (want hierarchical, graph, brute or beam)",
			ErrConfig, c.SearchMethod)
	}
	if c.BeamWidth < 0 || c.BeamWidth > maxBeamWidth {
		return fmt.Errorf("%w: beam width %d (want 0..%d)", ErrConfig, c.BeamWidth, maxBeamWidth)
	}
	if !c.Platforms.IsZero() {
		// A mixed array: each level's platform must support an explicit
		// topology, and a zero link rate means each level's native one.
		per, err := c.levelPlatforms()
		if err != nil {
			return err
		}
		for h, p := range per {
			if c.Topology != "" && !slices.Contains(p.Topologies(), c.Topology) {
				return fmt.Errorf("%w: level %d platform %q does not support topology %q (supported: %v)",
					ErrConfig, h, p.Name(), c.Topology, p.Topologies())
			}
		}
		if c.LinkMbps < 0 {
			return fmt.Errorf("%w: link bandwidth %g Mb/s", ErrConfig, c.LinkMbps)
		}
	} else {
		p, err := platform.ByName(c.Platform)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrConfig, err)
		}
		if c.LinkMbps <= 0 {
			return fmt.Errorf("%w: link bandwidth %g Mb/s", ErrConfig, c.LinkMbps)
		}
		if !slices.Contains(p.Topologies(), c.Topology) {
			return fmt.Errorf("%w: platform %q does not support topology %q (supported: %v)",
				ErrConfig, c.Platform, c.Topology, p.Topologies())
		}
	}
	if _, err := c.dtype(); err != nil {
		return err
	}
	if !c.Faults.IsZero() {
		if c.Faults.Groups < 0 {
			return fmt.Errorf("%w: %d failed groups", ErrConfig, c.Faults.Groups)
		}
		if c.Faults.Level < 0 || c.Faults.Level >= c.Levels {
			return fmt.Errorf("%w: fault level %d outside hierarchy of %d levels",
				ErrConfig, c.Faults.Level, c.Levels)
		}
		if groups := 1 << uint(c.Faults.Level+1); c.Faults.Groups >= groups {
			return fmt.Errorf("%w: %d failed groups at level %d, but only %d groups exist (the whole array would be gone)",
				ErrConfig, c.Faults.Groups, c.Faults.Level, groups)
		}
	}
	return nil
}

// FailedAccelerators returns how many of the 2^Levels accelerators the
// fault spec removes: each failed group at level h fences off a
// sub-tree of 2^(Levels-h-1) accelerators.
func (c Config) FailedAccelerators() int {
	if c.Faults.IsZero() {
		return 0
	}
	return c.Faults.Groups << uint(c.Levels-c.Faults.Level-1)
}

// SurvivingAccelerators returns how many accelerators remain healthy
// under the fault spec (2^Levels for a healthy array).
func (c Config) SurvivingAccelerators() int {
	return (1 << uint(c.Levels)) - c.FailedAccelerators()
}

// EffectiveLevels returns the hierarchy depth planning and simulation
// actually run at: Levels for a healthy array, and for a degraded one
// the depth of the largest full power-of-two sub-array the survivors
// can host (floor(log2(survivors))). The planner replans over that
// sub-array rather than an irregular topology, matching the paper's
// 2^H structural assumption.
func (c Config) EffectiveLevels() int {
	if c.Faults.IsZero() {
		return c.Levels
	}
	s := c.SurvivingAccelerators()
	if s <= 1 {
		return 0
	}
	return bits.Len(uint(s)) - 1
}

// DegradedGroups returns the surviving group count G at the fault level
// and the depth of each group's intact sub-array (group size 2^depth).
// Zero groups for a healthy array. When G is not a power of two, the
// survivors hold more accelerators than the largest aligned sub-array
// EffectiveLevels snaps to — Evaluator.RunCtx exploits that with
// group-level data parallelism across all G groups.
func (c Config) DegradedGroups() (groups, depth int) {
	if c.Faults.IsZero() {
		return 0, 0
	}
	return (1 << uint(c.Faults.Level+1)) - c.Faults.Groups, c.Levels - c.Faults.Level - 1
}

// dtype resolves the configured precision.
func (c Config) dtype() (tensor.DType, error) {
	switch c.Precision {
	case "", "fp32":
		return tensor.Float32, nil
	case "fp16":
		return tensor.Float16, nil
	case "int8":
		return tensor.Int8, nil
	default:
		return tensor.Float32, fmt.Errorf("%w: unknown precision %q (fp32, fp16, int8)", ErrConfig, c.Precision)
	}
}

// PlatformFor resolves the configuration's node platform — the deepest
// level's, the one whose accelerators do the compute: AssignmentFor's
// Node. Use AssignmentFor for the full per-level view.
func PlatformFor(c Config) (Platform, error) {
	a, err := AssignmentFor(c)
	if err != nil {
		return nil, err
	}
	return a.Node(), nil
}

// AssignmentFor resolves the configuration's per-level platform
// assignment at the depth planning actually runs at (EffectiveLevels:
// a degraded array keeps the deepest surviving levels, platforms
// included). A config without a Platforms spec names its platform at
// every level, and at least once: a zero-depth array is the Tail(0) of
// a one-level array of its node platform.
func AssignmentFor(c Config) (platform.Assignment, error) {
	return c.Canonical().assignment()
}

// assignment is AssignmentFor on an already canonical configuration.
func (c Config) assignment() (platform.Assignment, error) {
	assignCalls.Add(1)
	if c.Levels > maxSpecLevels {
		return platform.Assignment{}, fmt.Errorf("%w: levels %d", ErrConfig, c.Levels)
	}
	var per []platform.Platform
	if c.Platforms.IsZero() {
		p, err := platform.Resolve(c.Platform)
		if err != nil {
			return platform.Assignment{}, fmt.Errorf("%w: level 0: %v", ErrConfig, err)
		}
		per = slices.Repeat([]platform.Platform{p}, max(c.Levels, 1))
	} else {
		var err error
		if per, err = c.levelPlatforms(); err != nil {
			return platform.Assignment{}, err
		}
	}
	a, err := platform.NewAssignment(per)
	if err != nil {
		return platform.Assignment{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	tail, err := a.Tail(c.EffectiveLevels())
	if err != nil {
		return platform.Assignment{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return tail, nil
}

// BuildArch materializes the simulated platform for the configuration:
// the node platform's compute and memory, the assignment's fabric (a
// mixed assignment adds boundary-adapter charges) and each level's link
// energy model. It is Resolve's Arch.
func BuildArch(c Config) (Arch, error) {
	r, err := Resolve(c)
	if err != nil {
		return Arch{}, err
	}
	return r.Arch()
}

// Resolution counters, which tests read to pin one resolution per
// request.
var canonicalCalls, validateCalls, assignCalls, archBuilds atomic.Int64

// Resolved is a Config resolved once: its canonical form, checked, and
// what planning and simulation derive from it — element type, search
// method, the assignment at EffectiveLevels with its partition weights,
// and the Arch; for a degraded config also its healthy twin and the
// group sub-array of the grouped candidate (Evaluator.Eval). It is
// immutable and safe to share across goroutines.
type Resolved struct {
	cfg     Config
	dtype   DType
	method  partition.Method
	assign  platform.Assignment
	weights []partition.Weights // assign's, one per level

	// The Arch is built on the first Arch call: planning and a
	// canonical-cache hit need none, so a failed build fails only
	// simulation.
	archOnce sync.Once
	arch     Arch
	archErr  error

	healthy  *Resolved // cfg without its faults; the value itself when healthy
	groups   int       // surviving groups of the grouped candidate, 0 if none
	group    *Resolved // one group's sub-array; nil if it did not resolve
	groupErr error
}

// Resolve canonicalizes and validates the configuration once and
// resolves everything planning and simulation need from it. It fails
// exactly when Validate does, with Validate's error.
func Resolve(c Config) (*Resolved, error) {
	c = c.Canonical()
	if err := c.validate(); err != nil {
		return nil, err
	}
	a, err := c.assignment()
	if err != nil {
		return nil, err
	}
	r := &Resolved{cfg: c, assign: a, weights: a.PartitionWeights()}
	r.dtype, _ = c.dtype()                              // validate checked the precision
	r.method, _ = partition.ParseMethod(c.SearchMethod) // and the search method
	if c.Faults.IsZero() {
		r.healthy = r
		return r, nil
	}
	healthy := c
	healthy.Faults = Faults{}
	if r.healthy, err = Resolve(healthy); err != nil {
		return nil, err
	}
	if g, depth := c.DegradedGroups(); g > 1 && g&(g-1) != 0 {
		// Each surviving group is an intact bottom-of-hierarchy sub-array
		// on a batch shard. One that does not resolve only rules the
		// grouped candidate out.
		sub := healthy
		sub.Levels = depth
		sub.Batch = (c.Batch + g - 1) / g
		if names := c.Platforms.Names(); len(names) >= depth {
			sub.Platforms = joinSpec(names[len(names)-depth:])
		}
		r.groups = g
		r.group, r.groupErr = Resolve(sub)
	}
	return r, nil
}

// Config returns the canonical configuration.
func (r *Resolved) Config() Config { return r.cfg }

// DType returns the element type tensors are accounted in.
func (r *Resolved) DType() DType { return r.dtype }

// Assignment returns the per-level platform assignment (AssignmentFor).
func (r *Resolved) Assignment() platform.Assignment { return r.assign }

// Arch returns the simulated platform, or why it could not be built.
// The first call builds it; later calls, from any goroutine, return the
// same value.
func (r *Resolved) Arch() (Arch, error) {
	r.archOnce.Do(func() {
		archBuilds.Add(1)
		a := r.assign
		topo, err := a.NewTopology(r.cfg.Topology, r.cfg.LinkMbps)
		if err != nil {
			r.archErr = err
			return
		}
		r.arch = Arch{
			Mem:             a.Node().Memory(),
			Comp:            a.Node().Compute(),
			NoC:             topo,
			DType:           r.dtype,
			OverlapGradComm: r.cfg.OverlapGradComm,
			LevelMems:       a.LevelMemories(),
		}
	})
	return r.arch, r.archErr
}

// Healthy returns the config without its faults: r itself if healthy.
func (r *Resolved) Healthy() *Resolved { return r.healthy }

// NewPlan produces the parallelism assignment for the model under the
// given strategy and configuration. The partition search and the plan's
// recorded transfer volumes run under the configured platform's cost
// weights, so the DP objective and the simulated schedule agree. With a
// fault spec configured, the plan covers the degraded array's
// EffectiveLevels-deep surviving sub-array.
func NewPlan(m *Model, s Strategy, c Config) (*Plan, error) {
	return NewPlanCtx(nil, m, s, c)
}

// NewPlanCtx is NewPlan with cancellation: the partition search checks
// ctx between DP layers and inside its enumeration loops, returning
// ctx.Err() promptly when the context ends. A nil ctx never cancels.
func NewPlanCtx(ctx context.Context, m *Model, s Strategy, c Config) (*Plan, error) {
	return NewPlanOpts(ctx, m, s, c, PlanOptions{})
}

// PlanOptions carries a per-call planning hint that is deliberately
// not part of Config: it changes how a plan is computed, never which
// plan is correct, so it stays out of the canonical request hash.
type PlanOptions struct {
	// Warm seeds the HyPar partition search with a previous plan
	// (partition.Request.Warm): hierarchy levels whose search inputs
	// are unchanged are reused instead of re-solved. Byte-identical
	// output either way; baselines ignore it. Nil means a cold solve.
	// It is a hint only the caller supplies: nothing in this module
	// keeps plans to warm from, so Evaluator.Eval, experiments
	// sessions and the service all solve cold — Algorithm 2 runs
	// Algorithm 1's linear-time DP once per level, so a cold plan
	// costs microseconds.
	Warm *Plan
}

// NewPlanOpts is NewPlanCtx with per-call options: Resolved.Plan at
// the resolved configuration.
func NewPlanOpts(ctx context.Context, m *Model, s Strategy, c Config, opt PlanOptions) (*Plan, error) {
	r, err := Resolve(c)
	if err != nil {
		return nil, err
	}
	return r.Plan(ctx, m, s, opt)
}

// Plan produces the parallelism assignment for the model under the
// strategy. Every strategy runs under the assignment's per-level
// weights (all equal on a single-platform array), so the level-h cut is
// scored by the platform serving it. HyPar dispatches on
// Config.SearchMethod — exact hierarchical DP (default), exhaustive
// brute force or beam search — through partition.Solve. A nil ctx never
// cancels.
func (r *Resolved) Plan(ctx context.Context, m *Model, s Strategy, opt PlanOptions) (*Plan, error) {
	batch, ws := r.cfg.Batch, r.weights
	switch s {
	case HyPar:
		return partition.Solve(partition.Request{
			Model:     m,
			Batch:     batch,
			Levels:    ws,
			Ctx:       ctx,
			Method:    r.method,
			BeamWidth: r.cfg.BeamWidth,
			Warm:      opt.Warm,
		})
	case DataParallel:
		return partition.DataParallel(m, batch, ws)
	case ModelParallel:
		return partition.ModelParallel(m, batch, ws)
	case OneWeirdTrick:
		return partition.OneWeirdTrick(m, batch, ws)
	default:
		return nil, fmt.Errorf("%w: unknown strategy %v", ErrConfig, s)
	}
}

// NewInferencePlan runs the partition search with the inference cost
// model (§3.3): no gradients, no backward errors. The optimum is pure
// Data Parallelism with zero communication under any platform's
// weights — exposed so users can verify that property and plan
// inference-only deployments.
func NewInferencePlan(m *Model, c Config) (*Plan, error) {
	r, err := Resolve(c)
	if err != nil {
		return nil, err
	}
	return partition.Solve(partition.Request{
		Model:     m,
		Batch:     r.cfg.Batch,
		Levels:    r.weights,
		Objective: partition.ObjectiveInference,
	})
}

// Result pairs a plan with its simulated training-step statistics.
type Result struct {
	Strategy Strategy
	Plan     *Plan
	Stats    *Stats
	// DegradedGroups is non-zero when a degraded evaluation ran as
	// group-level data parallelism across a non-power-of-two survivor
	// set instead of snapping to the largest aligned sub-array: the
	// number of surviving groups the batch was split across. Plan then
	// describes one group's sub-array partition.
	DegradedGroups int
}

// Run plans and simulates one training step.
func Run(m *Model, s Strategy, c Config) (*Result, error) {
	return NewEvaluator().Run(m, s, c)
}

// Evaluator amortizes evaluation state across calls: it reuses one
// simulation engine (task slab and all). Every plan is solved cold, and
// the Arch comes with the Resolved config a step is evaluated at
// (Eval). An Evaluator is not safe for concurrent use — fan-outs give
// each worker its own (see runner.MapWith).
type Evaluator struct {
	sim *sim.Simulator
}

// NewEvaluator returns an empty Evaluator.
func NewEvaluator() *Evaluator { return &Evaluator{sim: sim.NewSimulator()} }

// Run plans and simulates one training step on the reusable engine.
func (e *Evaluator) Run(m *Model, s Strategy, c Config) (*Result, error) {
	return e.RunCtx(nil, m, s, c)
}

// RunCtx is Run with cancellation threaded into the partition search
// (see NewPlanCtx): Eval at the resolved configuration.
func (e *Evaluator) RunCtx(ctx context.Context, m *Model, s Strategy, c Config) (*Result, error) {
	r, err := Resolve(c)
	if err != nil {
		return nil, err
	}
	return e.Eval(ctx, m, s, r)
}

// Eval plans and simulates one training step at the resolved
// configuration on the reusable engine. A nil ctx never cancels.
//
// With a fault spec whose surviving group count is not a power of two,
// the aligned sub-array EffectiveLevels snaps to strands part of the
// surviving hardware (Faults{1,1} on 16 accelerators leaves 12
// survivors, but an aligned plan uses only 8). Eval additionally
// evaluates the grouped candidate — every surviving group running the
// sub-array plan on a batch shard, gradients allreduced across groups —
// and returns whichever step is faster, so degraded slowdowns can only
// improve over the aligned snap.
func (e *Evaluator) Eval(ctx context.Context, m *Model, s Strategy, r *Resolved) (*Result, error) {
	plan, err := r.Plan(ctx, m, s, PlanOptions{})
	if err != nil {
		return nil, err
	}
	res, err := e.simulate(m, s, plan, r)
	if err != nil {
		return nil, err
	}
	if r.groups > 0 {
		alt, aerr := e.runGrouped(ctx, m, s, r)
		if aerr != nil {
			// The grouped candidate is an optimization: its failure
			// never fails the aligned evaluation — except a canceled
			// context, which must keep its promptness contract.
			if ctx != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return res, nil
		}
		if alt.Stats.StepSeconds < res.Stats.StepSeconds {
			return alt, nil
		}
	}
	return res, nil
}

// runGrouped evaluates the non-power-of-two degraded candidate: all G
// surviving groups (each an intact 2^depth sub-array) run group-level
// data parallelism — the batch splits evenly across groups, each group
// plans and simulates its shard at the group depth, and the full weight
// gradients allreduce across groups over the healthy fabric after every
// step. The allreduce is charged conservatively: ceil(log2(G)) pairwise
// full-gradient exchanges, each through the tree cut nearest the fault
// level and then progressively higher cuts — the recursive-halving
// schedule an irregular group count cannot beat.
func (e *Evaluator) runGrouped(ctx context.Context, m *Model, s Strategy, r *Resolved) (*Result, error) {
	if r.groupErr != nil {
		return nil, r.groupErr
	}
	plan, err := r.group.Plan(ctx, m, s, PlanOptions{})
	if err != nil {
		return nil, err
	}
	res, err := e.simulate(m, s, plan, r.group)
	if err != nil {
		return nil, err
	}

	// Cross-group gradient traffic rides the healthy array's fabric:
	// the surviving groups sit under the physical topology's upper
	// cuts, failed subtrees notwithstanding.
	arch, err := r.healthy.Arch()
	if err != nil {
		return nil, err
	}
	c, groups := r.cfg, r.groups
	weightElems, err := m.Params(c.Batch)
	if err != nil {
		return nil, err
	}

	st := *res.Stats
	// Re-home the group-internal communication onto the physical level
	// it runs at: group-internal cut i is healthy cut Faults.Level+1+i.
	comm := make([]float64, c.Levels)
	for i, v := range res.Stats.CommSeconds {
		if li := c.Faults.Level + 1 + i; li < len(comm) {
			comm[li] += v
		}
	}
	// Group results aggregate across G concurrent groups: times stay
	// (groups run in parallel), array-wide totals scale.
	g := float64(groups)
	st.EnergyCompute *= g
	st.EnergySRAM *= g
	st.EnergyDRAM *= g
	st.EnergyLink *= g
	st.DRAMBytes *= g
	st.CommBytes *= g
	st.Tasks *= groups

	// The allreduce: both directions of a full-gradient exchange per
	// round (the simulator's 2× pair counting).
	bytes := 2 * float64(weightElems) * float64(arch.DType.Size())
	rounds := bits.Len(uint(groups - 1)) // ceil(log2(G))
	for r := 0; r < rounds; r++ {
		h := c.Faults.Level - r
		if h < 0 {
			h = 0
		}
		tt, energy, err := arch.Transfer(h, bytes)
		if err != nil {
			return nil, err
		}
		st.StepSeconds += tt
		comm[h] += tt
		st.CommBytes += bytes
		st.EnergyLink += energy
	}
	st.CommSeconds = comm
	return &Result{Strategy: s, Plan: plan, Stats: &st, DegradedGroups: groups}, nil
}

// Simulate evaluates an already-computed plan under the configuration.
func (e *Evaluator) Simulate(m *Model, s Strategy, plan *Plan, c Config) (*Result, error) {
	r, err := Resolve(c)
	if err != nil {
		return nil, err
	}
	return e.simulate(m, s, plan, r)
}

// simulate is Simulate at a resolved configuration.
func (e *Evaluator) simulate(m *Model, s Strategy, plan *Plan, r *Resolved) (*Result, error) {
	arch, err := r.Arch()
	if err != nil {
		return nil, err
	}
	stats, err := e.sim.Simulate(m, plan, arch)
	if err != nil {
		return nil, err
	}
	return &Result{Strategy: s, Plan: plan, Stats: stats}, nil
}

// Compare runs every strategy on the model with the reusable engine,
// serially. For the parallel fan-out use the package-level Compare.
func (e *Evaluator) Compare(m *Model, c Config) (*Comparison, error) {
	r, err := Resolve(c)
	if err != nil {
		// An unresolvable config fails every strategy; report it as the
		// first strategy's failure, as the fan-out reports its first.
		return nil, fmt.Errorf("strategy %v: %w", Strategies[0], err)
	}
	return e.compare(m, r)
}

// compare is Compare at a resolved configuration.
func (e *Evaluator) compare(m *Model, r *Resolved) (*Comparison, error) {
	cmp := &Comparison{Model: m.Name, Results: make(map[Strategy]*Result, len(Strategies))}
	for _, s := range Strategies {
		res, err := e.Eval(nil, m, s, r)
		if err != nil {
			return nil, fmt.Errorf("strategy %v: %w", s, err)
		}
		cmp.Results[s] = res
	}
	return cmp, nil
}

// Comparison holds one Result per strategy for one model and config.
type Comparison struct {
	Model   string
	Results map[Strategy]*Result
}

// Compare runs every strategy on the model, fanning out over the
// default runner pool. Each strategy's evaluation is independent and
// deterministic, so the result is identical at any pool width.
func Compare(m *Model, c Config) (*Comparison, error) {
	r, err := Resolve(c)
	if err != nil {
		return nil, fmt.Errorf("strategy %v: %w", Strategies[0], err)
	}
	results, err := runner.MapWith(runner.Default(), Strategies, NewEvaluator,
		func(ev *Evaluator, _ int, s Strategy) (*Result, error) {
			res, err := ev.Eval(nil, m, s, r)
			if err != nil {
				return nil, fmt.Errorf("strategy %v: %w", s, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	cmp := &Comparison{Model: m.Name, Results: make(map[Strategy]*Result, len(Strategies))}
	for i, s := range Strategies {
		cmp.Results[s] = results[i]
	}
	return cmp, nil
}

// PerformanceGain returns the strategy's speedup over the Data
// Parallelism baseline (Figure 6's normalization).
func (c *Comparison) PerformanceGain(s Strategy) float64 {
	dp, ok1 := c.Results[DataParallel]
	r, ok2 := c.Results[s]
	if !ok1 || !ok2 || r.Stats.StepSeconds == 0 {
		return 0
	}
	return dp.Stats.StepSeconds / r.Stats.StepSeconds
}

// EnergyEfficiency returns the strategy's energy saving over the Data
// Parallelism baseline (Figure 7's normalization).
func (c *Comparison) EnergyEfficiency(s Strategy) float64 {
	dp, ok1 := c.Results[DataParallel]
	r, ok2 := c.Results[s]
	if !ok1 || !ok2 || r.Stats.EnergyTotal() == 0 {
		return 0
	}
	return dp.Stats.EnergyTotal() / r.Stats.EnergyTotal()
}

// PlatformComparison holds one full strategy Comparison per platform
// for one model: the cross-platform view of how the partition DP's
// dp/mp choices and the resulting gains shift with the backend.
type PlatformComparison struct {
	Model string
	// Names lists the compared platforms in request order.
	Names []string
	// ByPlatform maps each platform name to its strategy comparison.
	ByPlatform map[string]*Comparison
}

// ComparePlatforms runs the full strategy comparison on every named
// platform (all registered platforms when names is empty). Each
// platform is evaluated at its native topology and link bandwidth: the
// config's Topology and LinkMbps are reset to the platform defaults so
// the comparison contrasts whole platforms, not one fabric transplanted
// across them. Batch, levels, precision and the overlap ablation carry
// over unchanged.
func ComparePlatforms(m *Model, c Config, names ...string) (*PlatformComparison, error) {
	if len(names) == 0 {
		names = Platforms()
	}
	rs := make([]*Resolved, len(names))
	for i, name := range names {
		pc := c
		pc.Platform = name
		pc.Platforms = ""
		pc.Topology = ""
		pc.LinkMbps = 0
		r, err := Resolve(pc)
		if err != nil {
			return nil, fmt.Errorf("platform %q: %w", name, err)
		}
		rs[i] = r
	}
	cmps, err := runner.Map(runner.Default(), rs, func(i int, r *Resolved) (*Comparison, error) {
		cmp, err := NewEvaluator().compare(m, r)
		if err != nil {
			return nil, fmt.Errorf("platform %q: %w", names[i], err)
		}
		return cmp, nil
	})
	if err != nil {
		return nil, err
	}
	out := &PlatformComparison{
		Model:      m.Name,
		Names:      append([]string(nil), names...),
		ByPlatform: make(map[string]*Comparison, len(names)),
	}
	for i, name := range names {
		out.ByPlatform[name] = cmps[i]
	}
	return out, nil
}

// DegradedComparison contrasts one model's strategies on the healthy
// array against the same array with the configured fault spec applied:
// the replan-and-report view of losing accelerator groups mid-fleet.
type DegradedComparison struct {
	Model string
	// Faults is the applied fault spec.
	Faults Faults
	// Accelerators is the healthy array size (2^Levels).
	Accelerators int
	// Survivors is how many accelerators remain under Faults.
	Survivors int
	// DegradedLevels is the hierarchy depth the degraded plan runs at
	// (EffectiveLevels of the faulted config).
	DegradedLevels int
	// Healthy holds the strategy comparison on the fault-free array.
	Healthy *Comparison
	// Degraded holds the strategy comparison on the surviving sub-array.
	Degraded *Comparison
}

// Slowdown returns how much slower the strategy's training step runs on
// the degraded array than on the healthy one (degraded step time over
// healthy step time; 0 when either result is missing).
func (d *DegradedComparison) Slowdown(s Strategy) float64 {
	h, ok1 := d.Healthy.Results[s]
	g, ok2 := d.Degraded.Results[s]
	if !ok1 || !ok2 || h.Stats.StepSeconds == 0 {
		return 0
	}
	return g.Stats.StepSeconds / h.Stats.StepSeconds
}

// CompareDegraded evaluates every strategy on the healthy array and on
// the degraded one described by c.Faults (which must be non-zero),
// fanning both comparisons out over the default runner pool. The
// healthy side runs the identical config with the fault spec cleared,
// so the pair isolates exactly the cost of the lost groups.
func CompareDegraded(m *Model, c Config) (*DegradedComparison, error) {
	r, err := Resolve(c)
	if err != nil {
		return nil, err
	}
	c = r.cfg
	if c.Faults.IsZero() {
		return nil, fmt.Errorf("%w: CompareDegraded needs a non-zero fault spec", ErrConfig)
	}
	cmps, err := runner.Map(runner.Default(), []*Resolved{r.healthy, r}, func(_ int, r *Resolved) (*Comparison, error) {
		return NewEvaluator().compare(m, r)
	})
	if err != nil {
		return nil, err
	}
	return &DegradedComparison{
		Model:          m.Name,
		Faults:         c.Faults,
		Accelerators:   1 << uint(c.Levels),
		Survivors:      c.SurvivingAccelerators(),
		DegradedLevels: c.EffectiveLevels(),
		Healthy:        cmps[0],
		Degraded:       cmps[1],
	}, nil
}
