package noc

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestHTreeConstruction(t *testing.T) {
	if _, err := NewHTree(-1, 1600); !errors.Is(err, ErrConfig) {
		t.Errorf("negative depth accepted: %v", err)
	}
	if _, err := NewHTree(4, 0); !errors.Is(err, ErrConfig) {
		t.Errorf("zero bandwidth accepted: %v", err)
	}
	if _, err := NewHTree(25, 1600); !errors.Is(err, ErrConfig) {
		t.Errorf("absurd depth accepted: %v", err)
	}
	h, err := NewHTree(4, 1600)
	if err != nil {
		t.Fatalf("NewHTree: %v", err)
	}
	if h.Name() != "htree" || h.Levels() != 4 {
		t.Errorf("name=%q levels=%d", h.Name(), h.Levels())
	}
}

// TestHTreeBandwidthDoubling: paper §6.5.1 — "the bandwidth between
// groups in a higher hierarchy are doubled compared to that of a lower
// hierarchy". Leaf pairs (level H-1) get one 1600 Mb/s = 200 MB/s link.
func TestHTreeBandwidthDoubling(t *testing.T) {
	h, err := NewHTree(4, 1600)
	if err != nil {
		t.Fatalf("NewHTree: %v", err)
	}
	leaf, err := h.PairBandwidth(3)
	if err != nil {
		t.Fatalf("PairBandwidth: %v", err)
	}
	if math.Abs(leaf-200e6) > 1 {
		t.Errorf("leaf bandwidth = %g B/s, want 200e6", leaf)
	}
	for level := 2; level >= 0; level-- {
		hi, _ := h.PairBandwidth(level)
		lo, _ := h.PairBandwidth(level + 1)
		if math.Abs(hi-2*lo) > 1 {
			t.Errorf("level %d bandwidth %g != 2× level %d bandwidth %g", level, hi, level+1, lo)
		}
	}
	if _, err := h.PairBandwidth(4); !errors.Is(err, ErrConfig) {
		t.Errorf("out-of-range level accepted: %v", err)
	}
}

func TestHTreeTransferTime(t *testing.T) {
	h, _ := NewHTree(4, 1600)
	// 200 MB over the 200 MB/s leaf link takes one second.
	got, err := h.TransferTime(3, 200e6)
	if err != nil {
		t.Fatalf("TransferTime: %v", err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("leaf transfer = %g s, want 1", got)
	}
	if z, _ := h.TransferTime(0, 0); z != 0 {
		t.Errorf("zero-byte transfer = %g", z)
	}
	if _, err := h.TransferTime(9, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("bad level accepted: %v", err)
	}
}

func TestHTreeLinkBytes(t *testing.T) {
	h, _ := NewHTree(4, 1600)
	// Level 2 has 4 pairs, each moving its exchange over one fat edge.
	got, err := h.LinkBytes(2, 100)
	if err != nil {
		t.Fatalf("LinkBytes: %v", err)
	}
	if got != 400 {
		t.Errorf("LinkBytes(level 2, 100) = %g, want 400", got)
	}
	if _, err := h.LinkBytes(-1, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("bad level accepted: %v", err)
	}
}

func TestTorusConstruction(t *testing.T) {
	if _, err := NewTorus(-2, 1600); !errors.Is(err, ErrConfig) {
		t.Errorf("negative depth accepted: %v", err)
	}
	if _, err := NewTorus(4, -5); !errors.Is(err, ErrConfig) {
		t.Errorf("negative bandwidth accepted: %v", err)
	}
	tor, err := NewTorus(4, 1600)
	if err != nil {
		t.Fatalf("NewTorus: %v", err)
	}
	if tor.rows != 4 || tor.cols != 4 {
		t.Errorf("16-accelerator torus = %d×%d, want 4×4", tor.rows, tor.cols)
	}
	if tor.Name() != "torus" || tor.Levels() != 4 {
		t.Errorf("name=%q levels=%d", tor.Name(), tor.Levels())
	}
	tor6, err := NewTorus(6, 1600)
	if err != nil {
		t.Fatalf("NewTorus(6): %v", err)
	}
	if tor6.rows*tor6.cols != 64 {
		t.Errorf("64-accelerator torus = %d×%d", tor6.rows, tor6.cols)
	}
}

// TestTorusSlowerThanHTree: paper Figure 12 — with HyPar's binary
// partition pattern, the H-tree outperforms the torus at every level.
func TestTorusSlowerThanHTree(t *testing.T) {
	h, _ := NewHTree(4, 1600)
	tor, _ := NewTorus(4, 1600)
	const vol = 1e9
	for level := 0; level < 4; level++ {
		ht, err := h.TransferTime(level, vol)
		if err != nil {
			t.Fatalf("htree level %d: %v", level, err)
		}
		tt, err := tor.TransferTime(level, vol)
		if err != nil {
			t.Fatalf("torus level %d: %v", level, err)
		}
		if tt < ht {
			t.Errorf("level %d: torus %g s faster than htree %g s", level, tt, ht)
		}
	}
}

func TestTorusErrors(t *testing.T) {
	tor, _ := NewTorus(4, 1600)
	if _, err := tor.TransferTime(4, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("bad level accepted: %v", err)
	}
	if _, err := tor.LinkBytes(-1, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("bad level accepted: %v", err)
	}
	if z, err := tor.TransferTime(0, 0); err != nil || z != 0 {
		t.Errorf("zero transfer: %g, %v", z, err)
	}
}

// TestTorusLinkBytesIncludeForwarding: multi-hop routes occupy more
// link-bytes than the H-tree's single fat edge.
func TestTorusLinkBytesIncludeForwarding(t *testing.T) {
	h, _ := NewHTree(4, 1600)
	tor, _ := NewTorus(4, 1600)
	hb, _ := h.LinkBytes(0, 1e6)
	tb, err := tor.LinkBytes(0, 1e6)
	if err != nil {
		t.Fatalf("LinkBytes: %v", err)
	}
	if tb < hb {
		t.Errorf("torus link bytes %g < htree %g", tb, hb)
	}
}

func TestIdeal(t *testing.T) {
	id := NewIdeal(4)
	if id.Name() != "ideal" || id.Levels() != 4 {
		t.Errorf("name=%q levels=%d", id.Name(), id.Levels())
	}
	tt, err := id.TransferTime(2, 1e12)
	if err != nil || tt != 0 {
		t.Errorf("ideal transfer = %g, %v", tt, err)
	}
	if _, err := id.TransferTime(8, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("bad level accepted: %v", err)
	}
	lb, err := id.LinkBytes(1, 100)
	if err != nil || lb != 200 {
		t.Errorf("ideal LinkBytes = %g, %v; want 200", lb, err)
	}
	if _, err := id.LinkBytes(9, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("bad level accepted: %v", err)
	}
}

// Property: transfer time scales linearly with volume on every topology
// and level.
func TestTransferLinearityProperty(t *testing.T) {
	h, _ := NewHTree(4, 1600)
	tor, _ := NewTorus(4, 1600)
	topos := []Topology{h, tor}
	prop := func(ti, level uint8, vol uint32) bool {
		tp := topos[int(ti)%len(topos)]
		lv := int(level) % 4
		v := float64(vol%1e9) + 1
		t1, err1 := tp.TransferTime(lv, v)
		t2, err2 := tp.TransferTime(lv, 2*v)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(t2-2*t1) < 1e-9*math.Max(1, t2)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestHTreeConstantsBitIdentical pins the per-level constants NewHTree
// computes once to the per-call expressions they replaced, bit for
// bit, at every depth the H-tree accepts.
func TestHTreeConstantsBitIdentical(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	exch := []float64{0, 1, 3.5, 56e3, 12345.678, 1e9}
	for levels := 1; levels <= 20; levels++ {
		for _, mbps := range []float64{1600, 1600 + 1.0/1024, 33000, 0.7} {
			h, err := NewHTree(levels, mbps)
			if err != nil {
				t.Fatal(err)
			}
			linkBps := mbps * 1e6 / 8
			for level := 0; level < levels; level++ {
				wantBw := linkBps * math.Pow(2, float64(levels-1-level))
				if bw, err := h.PairBandwidth(level); err != nil || !same(bw, wantBw) {
					t.Fatalf("H=%d %g Mb/s level %d: PairBandwidth %v (%v), want %v", levels, mbps, level, bw, err, wantBw)
				}
				for _, x := range exch {
					wantT := 0.0
					if x > 0 {
						wantT = x / wantBw
					}
					if got, err := h.TransferTime(level, x); err != nil || !same(got, wantT) {
						t.Fatalf("H=%d level %d %g B: TransferTime %v (%v), want %v", levels, level, x, got, err, wantT)
					}
					wantL := math.Pow(2, float64(level)) * x
					if got, err := h.LinkBytes(level, x); err != nil || !same(got, wantL) {
						t.Fatalf("H=%d level %d %g B: LinkBytes %v (%v), want %v", levels, level, x, got, err, wantL)
					}
				}
			}
			for _, bad := range []int{-1, levels} {
				if _, err := h.PairBandwidth(bad); !errors.Is(err, ErrConfig) {
					t.Errorf("H=%d: level %d accepted: %v", levels, bad, err)
				}
				if _, err := h.LinkBytes(bad, 1); !errors.Is(err, ErrConfig) {
					t.Errorf("H=%d: LinkBytes level %d accepted: %v", levels, bad, err)
				}
			}
		}
	}
}
