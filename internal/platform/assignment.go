package platform

import (
	"fmt"
	"strings"

	"repro/internal/noc"
	"repro/internal/partition"
)

// Assignment maps every level of the 2^H accelerator hierarchy to the
// platform serving it. Level h's entry is the fabric (and cost models)
// that carry the level-h cut's exchanges; the deepest level's platform
// is the node platform — the one whose accelerators hold the shards and
// do the compute. A uniform assignment (every level the same platform)
// is exactly the historical single-platform array; a mixed one models a
// heterogeneous fleet such as HMC leaves under a GPU interposer.
//
// Where two adjacent levels run different platforms, data crossing the
// upper level's cut passes a protocol-conversion adapter; Assignment
// charges that boundary explicitly (ConvertTime, ConvertLinkBytes), so
// a mixed array pays for its seams instead of getting both fabrics'
// best sides for free.
type Assignment struct {
	levels []Platform // one per hierarchy level, root cut (level 0) first
	node   Platform   // the accelerator (node) platform
}

// NewAssignment builds the assignment from one platform per hierarchy
// level, root cut first. The deepest level's platform becomes the node
// platform. At least one level is required: a zero-depth (single
// accelerator) array is the Tail(0) of a one-level assignment.
func NewAssignment(perLevel []Platform) (Assignment, error) {
	if len(perLevel) == 0 {
		return Assignment{}, fmt.Errorf("%w: empty per-level assignment", ErrPlatform)
	}
	levels := make([]Platform, len(perLevel))
	for h, p := range perLevel {
		if p == nil {
			return Assignment{}, fmt.Errorf("%w: nil platform at level %d", ErrPlatform, h)
		}
		levels[h] = p
	}
	return Assignment{levels: levels, node: levels[len(levels)-1]}, nil
}

// Levels returns the hierarchy depth the assignment covers.
func (a Assignment) Levels() int { return len(a.levels) }

// At returns the platform serving hierarchy level h.
func (a Assignment) At(h int) Platform { return a.levels[h] }

// Node returns the accelerator platform — the deepest level's, the one
// whose nodes do the compute and hold the working set.
func (a Assignment) Node() Platform { return a.node }

// IsUniform reports whether every level runs the node platform: the
// single-platform array, whose fabric is its platform's own.
func (a Assignment) IsUniform() bool {
	for _, p := range a.levels {
		if p.Name() != a.node.Name() {
			return false
		}
	}
	return true
}

// Names returns the per-level platform names, root cut first.
func (a Assignment) Names() []string {
	names := make([]string, len(a.levels))
	for h, p := range a.levels {
		names[h] = p.Name()
	}
	return names
}

// String renders the assignment as its comma-separated per-level names.
func (a Assignment) String() string {
	if len(a.levels) == 0 {
		return a.node.Name()
	}
	return strings.Join(a.Names(), ",")
}

// Tail returns the assignment of the deepest depth levels — the
// sub-array a degraded plan snaps to keeps the bottom of the hierarchy,
// platforms included.
func (a Assignment) Tail(depth int) (Assignment, error) {
	if depth < 0 || depth > len(a.levels) {
		return Assignment{}, fmt.Errorf("%w: tail depth %d of a %d-level assignment",
			ErrPlatform, depth, len(a.levels))
	}
	return Assignment{levels: a.levels[len(a.levels)-depth:], node: a.node}, nil
}

// PartitionWeights returns each level's platform cost weights, root cut
// first — the per-level objective the partition DP scores each cut
// with.
func (a Assignment) PartitionWeights() []partition.Weights {
	ws := make([]partition.Weights, len(a.levels))
	for h, p := range a.levels {
		ws[h] = p.PartitionWeights()
	}
	return ws
}

// LevelMemories returns each level's memory/energy model for link
// accounting, root cut first: on a single-platform array, the node
// model at every level.
func (a Assignment) LevelMemories() []Memory {
	mems := make([]Memory, len(a.levels))
	for h, p := range a.levels {
		mems[h] = p.Memory()
	}
	return mems
}

// Boundary reports whether transfers at hierarchy level h cross a
// platform boundary: the level below (h+1) runs a different platform,
// so bytes entering level h's fabric pass a conversion adapter. The
// deepest level sits directly on the node platform and never pays.
func (a Assignment) Boundary(h int) bool {
	return h >= 0 && h+1 < len(a.levels) && a.levels[h].Name() != a.levels[h+1].Name()
}

// ConvertBps returns the boundary adapter's per-pair bandwidth at level
// h in bytes/s, or 0 when level h has no boundary. The adapter is a
// store-and-forward protocol converter serialized at the slower side's
// native link rate — it does not enjoy either fabric's fat-tree
// scaling, which is exactly why crossing a platform seam hurts.
func (a Assignment) ConvertBps(h int) float64 {
	if !a.Boundary(h) {
		return 0
	}
	mbps := a.levels[h].DefaultLinkMbps()
	if below := a.levels[h+1].DefaultLinkMbps(); below < mbps {
		mbps = below
	}
	return mbps * 1e6 / 8
}

// ConvertTime returns the extra seconds one pair exchange of exchBytes
// at level h spends in the boundary adapter: zero when adjacent levels
// share a platform, exchBytes over the adapter bandwidth otherwise
// (strictly monotone in the crossed bytes).
func (a Assignment) ConvertTime(h int, exchBytes float64) float64 {
	bps := a.ConvertBps(h)
	if bps == 0 || exchBytes <= 0 {
		return 0
	}
	return exchBytes / bps
}

// ConvertLinkBytes returns the extra link bytes the boundary adapter
// moves when all 2^h pairs at level h exchange exchBytes each: one
// adapter pass per pair, charged on level h's energy model. Zero when
// level h has no boundary.
func (a Assignment) ConvertLinkBytes(h int, exchBytes float64) float64 {
	if !a.Boundary(h) || exchBytes <= 0 {
		return 0
	}
	pairs := float64(int64(1) << uint(h))
	return pairs * exchBytes
}

// NewTopology builds the assignment's interconnect. A uniform
// assignment builds its platform's one fabric (name/link zero-values
// resolve to the platform's native defaults): the composite would build
// a fabric per level and add a zero adapter charge to every transfer
// for the same prices. A mixed assignment builds each level's fabric
// from that level's platform — name and linkMbps, when set, apply to
// every level and each level's platform must support them; when unset,
// each level uses its platform's native topology and link rate — and
// wraps them in a composite that answers level h with level h's fabric
// plus the boundary adapter charge.
func (a Assignment) NewTopology(name string, linkMbps float64) (noc.Topology, error) {
	depth := len(a.levels)
	if a.IsUniform() {
		tname := name
		if tname == "" {
			tname = a.node.Topologies()[0]
		}
		link := linkMbps
		if link == 0 {
			link = a.node.DefaultLinkMbps()
		}
		return a.node.NewTopology(tname, depth, link)
	}
	per := make([]noc.Topology, depth)
	for h, p := range a.levels {
		tname := name
		if tname == "" {
			tname = p.Topologies()[0]
		}
		link := linkMbps
		if link == 0 {
			link = p.DefaultLinkMbps()
		}
		topo, err := p.NewTopology(tname, depth, link)
		if err != nil {
			return nil, fmt.Errorf("%w (level %d)", err, h)
		}
		per[h] = topo
	}
	return &heteroTopology{assign: a, per: per}, nil
}

// heteroTopology is the composite fabric of a mixed assignment: level h
// transfers ride level h's platform fabric (built at full hierarchy
// depth so fat-tree scaling laws see the real array size) and pay the
// boundary adapter wherever the platform changes between adjacent
// levels.
type heteroTopology struct {
	assign Assignment
	per    []noc.Topology
}

// Name implements noc.Topology.
func (t *heteroTopology) Name() string { return "hetero(" + t.assign.String() + ")" }

// Levels implements noc.Topology.
func (t *heteroTopology) Levels() int { return len(t.per) }

// TransferTime implements noc.Topology: the level's own fabric time
// plus the boundary adapter's conversion time.
func (t *heteroTopology) TransferTime(level int, exchBytes float64) (float64, error) {
	if level < 0 || level >= len(t.per) {
		return 0, fmt.Errorf("%w: level %d outside hierarchy of depth %d", ErrPlatform, level, len(t.per))
	}
	dt, err := t.per[level].TransferTime(level, exchBytes)
	if err != nil {
		return 0, err
	}
	return dt + t.assign.ConvertTime(level, exchBytes), nil
}

// LinkBytes implements noc.Topology: the level's own link bytes plus
// one adapter pass per pair at a platform boundary.
func (t *heteroTopology) LinkBytes(level int, exchBytes float64) (float64, error) {
	if level < 0 || level >= len(t.per) {
		return 0, fmt.Errorf("%w: level %d outside hierarchy of depth %d", ErrPlatform, level, len(t.per))
	}
	lb, err := t.per[level].LinkBytes(level, exchBytes)
	if err != nil {
		return 0, err
	}
	return lb + t.assign.ConvertLinkBytes(level, exchBytes), nil
}
