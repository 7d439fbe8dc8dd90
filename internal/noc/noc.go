// Package noc models the interconnect of the HyPar accelerator array
// (paper §5, Figure 4c-d): the H-tree that matches the hierarchical
// partition's binary communication pattern, and the 4×4 torus the paper
// compares against (§6.5.1), plus an ideal infinite-bandwidth fabric for
// ablations.
//
// HyPar's hierarchical partition makes all communication happen between
// the two halves of some subarray: at level h (0 = top) there are 2^h
// group pairs, all exchanging the same volume concurrently. A Topology
// therefore only needs to answer: how long does it take every pair at
// level h to move an exchange of V bytes (both directions summed, the
// paper's counting convention)?
package noc

import (
	"errors"
	"fmt"
	"math"
)

// ErrConfig reports an invalid topology configuration.
var ErrConfig = errors.New("noc: invalid config")

// Topology abstracts the accelerator interconnect. Links are modeled
// half duplex: a pair exchange of V bytes (the paper's both-direction
// count, e.g. 56 KB for the §3.1 fc example) occupies the pair's
// connection for V/bandwidth seconds.
type Topology interface {
	// Name identifies the topology in reports.
	Name() string
	// Levels returns the hierarchy depth H the fabric was built for.
	Levels() int
	// TransferTime returns the seconds for all group pairs at hierarchy
	// level h (0 = the top-level split) to concurrently move an
	// exchange of exchBytes (both directions summed) per pair.
	TransferTime(level int, exchBytes float64) (float64, error)
	// LinkBytes returns the total bytes crossing physical links when
	// all pairs at level h move exchBytes each (including multi-hop
	// forwarding) — the quantity link energy is charged on.
	LinkBytes(level int, exchBytes float64) (float64, error)
}

// maxDepth bounds the hierarchy depth of the built-in fabrics (2^20
// accelerators).
const maxDepth = 20

// checkLevel validates a level index against a depth.
func checkLevel(level, depth int) error {
	if level < 0 || level >= depth {
		return fmt.Errorf("%w: level %d outside hierarchy of depth %d", ErrConfig, level, depth)
	}
	return nil
}

// HTree is the paper's preferred fabric: physically a fat tree with a
// switch at each parent node. The bandwidth between groups at a higher
// hierarchy level doubles relative to the level below (while the number
// of connections halves), so the per-pair bandwidth at level h of an
// H-level tree is LinkMBs · 2^(H-1-h).
type HTree struct {
	levels  int
	linkBps float64 // leaf link bandwidth, bytes/s

	// pairBw[h] and pairs[h] are level h's per-pair bandwidth (bytes/s)
	// and group-pair count, computed once at construction: every
	// simulated transfer looks them up.
	pairBw [maxDepth]float64
	pairs  [maxDepth]float64
}

// NewHTree builds an H-tree for 2^levels accelerators with the given
// leaf-link bandwidth in megabits per second (paper: 1600 Mb/s).
func NewHTree(levels int, linkMbps float64) (*HTree, error) {
	if levels < 0 || levels > maxDepth {
		return nil, fmt.Errorf("%w: H-tree depth %d", ErrConfig, levels)
	}
	if linkMbps <= 0 {
		return nil, fmt.Errorf("%w: link bandwidth %g Mb/s", ErrConfig, linkMbps)
	}
	t := &HTree{levels: levels, linkBps: linkMbps * 1e6 / 8}
	for h := 0; h < levels; h++ {
		t.pairBw[h] = t.linkBps * math.Pow(2, float64(levels-1-h))
		t.pairs[h] = math.Pow(2, float64(h))
	}
	return t, nil
}

// Name implements Topology.
func (t *HTree) Name() string { return "htree" }

// Levels implements Topology.
func (t *HTree) Levels() int { return t.levels }

// PairBandwidth returns the bytes/s available to one group pair at the
// given level.
func (t *HTree) PairBandwidth(level int) (float64, error) {
	if err := checkLevel(level, t.levels); err != nil {
		return 0, err
	}
	return t.pairBw[level], nil
}

// TransferTime implements Topology. Every pair at a level owns a
// dedicated tree edge, so pairs do not contend with each other.
func (t *HTree) TransferTime(level int, exchBytes float64) (float64, error) {
	bw, err := t.PairBandwidth(level)
	if err != nil {
		return 0, err
	}
	if exchBytes <= 0 {
		return 0, nil
	}
	return exchBytes / bw, nil
}

// LinkBytes implements Topology: each of the 2^level pairs moves
// exchBytes over exactly one (fat) edge.
func (t *HTree) LinkBytes(level int, exchBytes float64) (float64, error) {
	if err := checkLevel(level, t.levels); err != nil {
		return 0, err
	}
	return t.pairs[level] * exchBytes, nil
}

// Torus is the 4×4 (more generally 2^ceil(H/2) × 2^floor(H/2)) torus of
// Figure 4d. Groups of the hierarchical partition map onto contiguous
// blocks of the grid; a pair exchange at level h crosses the torus cut
// separating the two blocks, sharing cut links with the other pairs at
// that level and paying store-and-forward hops. It performs worse than
// the H-tree because the binary-tree traffic pattern does not match the
// mesh (paper §6.5.1).
type Torus struct {
	levels  int
	rows    int
	cols    int
	linkBps float64
}

// NewTorus builds a torus for 2^levels accelerators with the given
// per-link bandwidth in megabits per second. The grid is the most
// square power-of-two factorization of 2^levels (4×4 for 16).
func NewTorus(levels int, linkMbps float64) (*Torus, error) {
	if levels < 0 || levels > maxDepth {
		return nil, fmt.Errorf("%w: torus depth %d", ErrConfig, levels)
	}
	if linkMbps <= 0 {
		return nil, fmt.Errorf("%w: link bandwidth %g Mb/s", ErrConfig, linkMbps)
	}
	rows := 1 << uint((levels+1)/2)
	cols := 1 << uint(levels/2)
	return &Torus{levels: levels, rows: rows, cols: cols, linkBps: linkMbps * 1e6 / 8}, nil
}

// Name implements Topology.
func (t *Torus) Name() string { return "torus" }

// Levels implements Topology.
func (t *Torus) Levels() int { return t.levels }

// geometry returns, for a level, the number of torus links crossing the
// bipartition between the two blocks of one group pair, and the average
// hop distance between communicating partners.
//
// Splits alternate along the grid's longer axis (the binary partition
// of Figure 3 laid out as contiguous blocks). Cutting an r×c block
// horizontally crosses c links (one per column); torus wraparound
// doubles the cut only when the block spans the full torus extent in
// the cut direction.
func (t *Torus) geometry(level int) (cut float64, hops float64) {
	// Block dimensions at this level: start with the whole grid and
	// halve alternating axes `level` times.
	r, c := t.rows, t.cols
	for i := 0; i < level; i++ {
		if r >= c {
			r /= 2
		} else {
			c /= 2
		}
	}
	// Now split the r×c block into two halves along its longer side.
	if r >= c {
		// Horizontal cut: c links cross; wraparound helps only when
		// the block spans the full torus height.
		cut = float64(c)
		if r == t.rows && t.rows > 2 {
			cut *= 2
		}
		hops = math.Max(1, float64(r)/2)
	} else {
		cut = float64(r)
		if c == t.cols && t.cols > 2 {
			cut *= 2
		}
		hops = math.Max(1, float64(c)/2)
	}
	return cut, hops
}

// TransferTime implements Topology. The pairs at a level share the mesh:
// each pair's exchange crosses its own block cut, and multi-hop
// forwarding occupies `hops` link-transmissions per byte, so the
// sustained pair bandwidth is linkBps · cut / hops.
func (t *Torus) TransferTime(level int, exchBytes float64) (float64, error) {
	if err := checkLevel(level, t.levels); err != nil {
		return 0, err
	}
	if exchBytes <= 0 {
		return 0, nil
	}
	cut, hops := t.geometry(level)
	bw := t.linkBps * cut / hops
	return exchBytes / bw, nil
}

// LinkBytes implements Topology: every byte occupies `hops` links.
func (t *Torus) LinkBytes(level int, exchBytes float64) (float64, error) {
	if err := checkLevel(level, t.levels); err != nil {
		return 0, err
	}
	_, hops := t.geometry(level)
	pairs := math.Pow(2, float64(level))
	return pairs * exchBytes * hops, nil
}

// Ideal is an infinite-bandwidth, zero-latency fabric used by ablation
// benchmarks to isolate compute from communication.
type Ideal struct{ levels int }

// NewIdeal builds an ideal fabric for 2^levels accelerators.
func NewIdeal(levels int) *Ideal { return &Ideal{levels: levels} }

// Name implements Topology.
func (t *Ideal) Name() string { return "ideal" }

// Levels implements Topology.
func (t *Ideal) Levels() int { return t.levels }

// TransferTime implements Topology.
func (t *Ideal) TransferTime(level int, exchBytes float64) (float64, error) {
	if err := checkLevel(level, t.levels); err != nil {
		return 0, err
	}
	return 0, nil
}

// LinkBytes implements Topology.
func (t *Ideal) LinkBytes(level int, exchBytes float64) (float64, error) {
	if err := checkLevel(level, t.levels); err != nil {
		return 0, err
	}
	return exchBytes * math.Pow(2, float64(level)), nil
}
