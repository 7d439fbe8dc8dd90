package hypar_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"testing"

	hypar "repro"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/runner"
)

// TestIdentityDigests pins the library's outputs bit for bit. It walks a
// deterministic case set — every zoo and branched network plus seeded
// random chains and DAGs; levels 1–5 × every platform × every topology;
// overlap, fp16 and int8; mixed per-level platform arrays; degraded
// arrays with and without them; beam and brute-force search; inference
// plans; Session.Explore sweeps; and error cases — and hashes every
// plan field and every Stats field as raw IEEE-754 bits (error cases
// hash their text). One digest is pinned per (entry point, config
// family) group, so a failure names the group that moved.
//
// The goldens round to three decimals; this test is what catches a
// change below that. Policy: a change that means to move outputs
// updates the digests below and says in CHANGES.md which groups moved
// and why, exactly as it would for a golden. A failure prints every
// group's current digest, ready to paste.
//
// The Go spec lets an implementation fuse x*y+z into one rounding, and
// some targets do (GOAMD64=v3 and above, arm64, ppc64, s390x). The
// digests are therefore pinned only for linux/amd64 at the default
// GOAMD64=v1; elsewhere the test skips and the goldens remain the
// portable contract.
func TestIdentityDigests(t *testing.T) {
	if !pinnedTarget {
		t.Skip("identity digests are pinned for linux/amd64 GOAMD64=v1 only; this target may fuse multiply-adds")
	}
	want := map[string]string{
		"plan/single":    "5e0cbe0cd2080d80",
		"run/single":     "a467afcabeea2204",
		"run/variants":   "52403e26f9a76aff",
		"plan/mixed":     "626fd12e516c0189",
		"run/mixed":      "b4bac462f2037cf0",
		"run/degraded":   "71c01df564431aa2",
		"inference":      "d9e538ee93ca4e08",
		"brute":          "8e488af72bf6ff1e",
		"beam":           "8f07f4c2d8daf1b8",
		"explore/single": "9f6f7fe1270fd02f",
		"explore/mixed":  "efc75034357bb26b",
		"errors":         "50aab6f84cf8c132",
	}
	checkDigests(t, identityDigests(t), want)
}

// checkDigests compares every computed group digest with its pinned
// value and, on any mismatch, logs all of them ready to paste.
func checkDigests(t *testing.T, got, want map[string]string) {
	t.Helper()
	var names []string
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("digest group %s moved: got %s, want %s", name, got[name], want[name])
			failed = true
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("digest group %s was not computed", name)
			failed = true
		}
	}
	if failed {
		for _, name := range names {
			t.Logf("%q: %q,", name, got[name])
		}
	}
}

// identityDigests computes every group's digest.
func identityDigests(t *testing.T) map[string]string {
	t.Helper()
	groups := map[string]*digest{}
	g := func(name string) *digest {
		d, ok := groups[name]
		if !ok {
			d = newDigest()
			groups[name] = d
		}
		return d
	}
	models := identityModels(t)
	platforms := []string{"hmc", "gpu-hbm", "tpu-systolic"}
	topologies := []string{"", "htree", "torus", "ideal"}

	// Single-platform arrays: every depth, platform and fabric. Plans
	// do not depend on the fabric, so they are hashed once per depth.
	for _, m := range models {
		for levels := 1; levels <= 5; levels++ {
			for _, p := range platforms {
				for _, topo := range topologies {
					c := hypar.Config{Batch: 64, Levels: levels, Platform: p, Topology: topo}
					if topo == "" {
						g("plan/single").plans(m, c)
					}
					g("run/single").runs(m, c)
				}
			}
		}
	}

	// Precision and overlap variants, on every platform's native fabric.
	for _, m := range models {
		for _, p := range platforms {
			for _, mut := range []func(*hypar.Config){
				func(c *hypar.Config) { c.OverlapGradComm = true },
				func(c *hypar.Config) { c.Precision = "fp16" },
				func(c *hypar.Config) { c.Precision = "int8" },
				func(c *hypar.Config) { c.Batch = 256; c.LinkMbps = 25600 },
			} {
				c := hypar.Config{Batch: 64, Levels: 4, Platform: p}
				mut(&c)
				g("run/variants").runs(m, c)
			}
		}
	}

	// Mixed per-level platform arrays.
	mixed := []hypar.Config{
		{Batch: 64, Levels: 4, Platforms: "gpu-hbm,hmc,hmc,hmc"},
		{Batch: 64, Levels: 3, Platforms: "hmc,gpu-hbm,tpu-systolic"},
		{Batch: 128, Levels: 5, Platforms: "tpu-systolic,tpu-systolic,hmc,gpu-hbm,hmc", Topology: "torus"},
	}
	for _, m := range models {
		for _, c := range mixed {
			g("plan/mixed").plans(m, c)
			g("run/mixed").runs(m, c)
		}
	}

	// Degraded arrays, with and without per-level platforms: aligned
	// snaps (power-of-two survivors) and the grouped replan.
	degraded := []hypar.Config{
		{Batch: 64, Levels: 4, Faults: hypar.Faults{Level: 0, Groups: 1}},
		{Batch: 64, Levels: 4, Faults: hypar.Faults{Level: 1, Groups: 1}},
		{Batch: 64, Levels: 4, Platform: "gpu-hbm", Faults: hypar.Faults{Level: 2, Groups: 3}},
		{Batch: 64, Levels: 4, Platforms: "gpu-hbm,hmc,hmc,hmc", Faults: hypar.Faults{Level: 1, Groups: 1}},
		{Batch: 64, Levels: 3, Platforms: "hmc,gpu-hbm,tpu-systolic", Faults: hypar.Faults{Level: 0, Groups: 1}},
	}
	for _, m := range models {
		for _, c := range degraded {
			g("run/degraded").plans(m, c)
			g("run/degraded").runs(m, c)
		}
	}

	// Inference plans on single, mixed and degraded arrays.
	for _, m := range models {
		for levels := 1; levels <= 5; levels++ {
			for _, p := range platforms {
				c := hypar.Config{Batch: 64, Levels: levels, Platform: p}
				g("inference").inference(m, c)
			}
		}
		for _, c := range append(append([]hypar.Config{}, mixed...), degraded...) {
			g("inference").inference(m, c)
		}
	}

	// Brute force: the exhaustive reference on three small networks.
	small := []*hypar.Model{mustModel(t, "SFC"), mustModel(t, "Lenet-c"), randomDAG(3, 4)}
	for _, m := range small {
		for levels := 1; levels <= 3; levels++ {
			for _, p := range platforms {
				c := hypar.Config{Batch: 32, Levels: levels, Platform: p, SearchMethod: "brute"}
				g("brute").plans(m, c)
			}
		}
		c := hypar.Config{Batch: 32, Levels: 3, Platforms: "hmc,gpu-hbm,tpu-systolic", SearchMethod: "brute"}
		g("brute").plans(m, c)
	}

	// Beam search on the branched networks, random DAGs and wide forks.
	var branched []*hypar.Model
	for _, m := range models {
		if m.IsGraph() {
			branched = append(branched, m)
		}
	}
	branched = append(branched, wideFork(6), wideFork(18))
	for _, m := range branched {
		for _, width := range []int{0, 2, 8} {
			for _, levels := range []int{2, 4} {
				c := hypar.Config{Batch: 32, Levels: levels, SearchMethod: "beam", BeamWidth: width}
				g("beam").plans(m, c)
				g("beam").runs(m, c)
			}
		}
		c := hypar.Config{Batch: 32, Levels: 4, Platforms: "gpu-hbm,hmc,hmc,hmc", SearchMethod: "beam"}
		g("beam").plans(m, c)
	}

	// Session.Explore sweeps: Figure 9 and small free sets, kept apart
	// by whether the array mixes platforms.
	g("explore/single").fig9(hypar.DefaultConfig())
	g("explore/single").fig9(hypar.Config{Batch: 256, Levels: 4, Platform: "gpu-hbm"})
	for _, name := range []string{"VGG-A", "Incep-2", "SRES-8"} {
		m := mustModel(t, name)
		free := []partition.FreeVar{{Level: 0, Layer: 0}, {Level: 0, Layer: 1}, {Level: 1, Layer: len(m.Layers) - 1}}
		for levels := 2; levels <= 5; levels++ {
			for _, p := range platforms {
				g("explore/single").explore(m, hypar.Config{Batch: 64, Levels: levels, Platform: p}, free)
			}
		}
		g("explore/single").explore(m, degraded[1], free[:2])
	}
	for _, c := range []hypar.Config{
		{Batch: 256, Levels: 4, Platforms: "gpu-hbm,hmc,hmc,hmc"},
		{Batch: 256, Levels: 4, Platforms: "hmc,gpu-hbm,gpu-hbm,gpu-hbm"},
		{Batch: 256, Levels: 4, Platforms: "tpu-systolic,hmc,hmc,hmc"},
	} {
		g("explore/mixed").fig9(c)
	}
	for _, name := range []string{"VGG-A", "Incep-2"} {
		m := mustModel(t, name)
		free := []partition.FreeVar{{Level: 0, Layer: 0}, {Level: 1, Layer: 1}, {Level: 2, Layer: 2}}
		for _, c := range mixed {
			g("explore/mixed").explore(m, c, free)
		}
		g("explore/mixed").explore(m, degraded[3], free[:2])
	}

	// Error cases: their text reaches hypard's clients.
	e := g("errors")
	lenet := mustModel(t, "Lenet-c")
	for _, c := range []hypar.Config{
		{Batch: 0, Levels: 4},
		{Batch: 64, Levels: -1},
		{Batch: 64, Levels: 4, Platform: "quantum"},
		{Batch: 64, Levels: 4, Topology: "ring"},
		{Batch: 64, Levels: 4, SearchMethod: "annealing"},
		{Batch: 64, Levels: 4, Platforms: "gpu-hbm,hmc"},
		{Batch: 64, Levels: 4, Platforms: "gpu-hbm,quantum,hmc,hmc"},
		{Batch: 64, Levels: 4, Faults: hypar.Faults{Level: 0, Groups: 2}},
		{Batch: 64, Levels: 4, Precision: "fp8"},
	} {
		e.plans(lenet, c)
		e.runs(lenet, c)
		e.inference(lenet, c)
	}
	wide := wideFork(18)
	for _, c := range []hypar.Config{
		{Batch: 32, Levels: 2},
		{Batch: 32, Levels: 2, Platforms: "gpu-hbm,hmc"},
		{Batch: 32, Levels: 2, SearchMethod: "brute"},
	} {
		e.plans(wide, c)
		e.inference(wide, c)
	}
	e.plans(mustModel(t, "VGG-A"), hypar.Config{Batch: 32, Levels: 4, SearchMethod: "brute"})
	_, err := hypar.NewPlan(lenet, hypar.Strategy(9), hypar.DefaultConfig())
	e.err(err)
	e.explore(lenet, hypar.DefaultConfig(), []partition.FreeVar{{Level: 4, Layer: 0}})
	e.explore(lenet, hypar.DefaultConfig(), []partition.FreeVar{{Level: 0, Layer: 9}})
	e.explore(lenet, degraded[0], []partition.FreeVar{{Level: 3, Layer: 0}})
	e.explore(lenet, hypar.DefaultConfig(), []partition.FreeVar{{Level: 0, Layer: 0}, {Level: 0, Layer: 0}})

	out := make(map[string]string, len(groups))
	for name, d := range groups {
		out[name] = d.sum()
	}
	return out
}

// identityModels returns the networks every group walks: the ten zoo
// networks, the two branched ones, and seeded random chains and DAGs.
func identityModels(t *testing.T) []*hypar.Model {
	t.Helper()
	models := append(hypar.Zoo(), hypar.BranchedZoo()...)
	return append(models, randomChain(1, 3), randomChain(2, 5), randomDAG(1, 4), randomDAG(2, 6),
		tieChain(64, 256), tieChain(96, 64))
}

// tieChain builds an fc chain whose first layer ties Algorithm 1's
// recurrences at batch 64, so the plans pin the dynamic program's
// tie-breaks. An input of 64 makes the first layer's dp and mp costs
// equal (a wide second layer then ends in mp); an input of 96 makes
// its dp cost exactly mp's plus the mp→dp conversion.
func tieChain(in, mid int) *hypar.Model {
	return &nn.Model{Name: fmt.Sprintf("tie-%d-%d", in, mid), Input: nn.Input{H: 1, W: 1, C: in}, Layers: []nn.Layer{
		{Name: "f0", Type: nn.FC, Cout: mid, Act: nn.ReLU},
		{Name: "f1", Type: nn.FC, Cout: 64, Act: nn.ReLU},
		{Name: "f2", Type: nn.FC, Cout: 10, Act: nn.Softmax},
	}}
}

func mustModel(t *testing.T, name string) *hypar.Model {
	t.Helper()
	m, err := hypar.ModelByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomChain builds a seeded conv chain with an fc head.
func randomChain(seed int64, convs int) *hypar.Model {
	rng := rand.New(rand.NewSource(seed))
	m := &nn.Model{Name: fmt.Sprintf("chain-%d", seed), Input: nn.Input{H: 32, W: 32, C: 3}}
	side := 32
	for i := 0; i < convs; i++ {
		k := 1 + 2*rng.Intn(3)
		l := nn.Layer{Name: fmt.Sprintf("c%d", i), Type: nn.Conv, K: k, Pad: k / 2, Cout: 4 + rng.Intn(29), Act: nn.ReLU}
		if side >= 4 && rng.Intn(2) == 0 {
			l.Pool = 2
			side /= 2
		}
		m.Layers = append(m.Layers, l)
	}
	m.Layers = append(m.Layers,
		nn.Layer{Name: "f0", Type: nn.FC, Cout: 8 + rng.Intn(57), Act: nn.ReLU},
		nn.Layer{Name: "f1", Type: nn.FC, Cout: 10, Act: nn.Softmax})
	return m
}

// randomDAG builds a seeded branched network: shape-preserving conv
// layers that each consume one or two earlier conv layers (channel
// concat), and an fc sink joining every layer nothing else consumes.
func randomDAG(seed int64, convs int) *hypar.Model {
	rng := rand.New(rand.NewSource(seed))
	m := &nn.Model{Name: fmt.Sprintf("dag-%d", seed), Input: nn.Input{H: 16, W: 16, C: 3}}
	consumed := make([]bool, convs)
	for i := 0; i < convs; i++ {
		k := 1 + 2*rng.Intn(2)
		l := nn.Layer{Name: fmt.Sprintf("c%d", i), Type: nn.Conv, K: k, Pad: k / 2, Cout: 4 + rng.Intn(13), Act: nn.ReLU}
		if i > 0 {
			a := rng.Intn(i)
			l.Inputs = []string{fmt.Sprintf("c%d", a)}
			consumed[a] = true
			if b := rng.Intn(i); b != a && rng.Intn(2) == 0 {
				l.Inputs = append(l.Inputs, fmt.Sprintf("c%d", b))
				consumed[b] = true
			}
		}
		m.Layers = append(m.Layers, l)
	}
	var open []string
	for i, c := range consumed {
		if !c {
			open = append(open, fmt.Sprintf("c%d", i))
		}
	}
	m.Layers = append(m.Layers, nn.Layer{Name: "sink", Type: nn.FC, Cout: 10, Inputs: open, Act: nn.Softmax})
	return m
}

// digest accumulates one group's outputs as raw bits.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) f(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) i(v int) { d.u64(uint64(int64(v))) }

func (d *digest) s(v string) {
	d.i(len(v))
	d.h.Write([]byte(v))
}

func (d *digest) b(v bool) {
	if v {
		d.i(1)
	} else {
		d.i(0)
	}
}

func (d *digest) fs(vs []float64) {
	d.i(len(vs))
	for _, v := range vs {
		d.f(v)
	}
}

// err hashes an outcome's error text (or its absence) and reports
// whether there was an error.
func (d *digest) err(err error) bool {
	if err == nil {
		d.s("ok")
		return false
	}
	d.s("error: " + err.Error())
	return true
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// plan hashes every exported field of a plan.
func (d *digest) plan(p *hypar.Plan) {
	d.s(p.Model)
	d.i(p.Batch)
	d.i(len(p.Levels))
	for _, a := range p.Levels {
		d.s(a.String())
	}
	d.i(len(p.Edges))
	for _, e := range p.Edges {
		d.i(e.Src)
		d.i(e.Dst)
	}
	d.i(len(p.Details))
	for _, dt := range p.Details {
		d.fs(dt.IntraFwd)
		d.fs(dt.IntraGrad)
		d.fs(dt.InterF)
		d.fs(dt.InterE)
	}
	d.f(p.TotalElems)
}

// stats hashes every field of a simulated step.
func (d *digest) stats(s *hypar.Stats) {
	d.f(s.StepSeconds)
	d.f(s.ComputeSeconds)
	d.fs(s.CommSeconds)
	d.f(s.EnergyCompute)
	d.f(s.EnergySRAM)
	d.f(s.EnergyDRAM)
	d.f(s.EnergyLink)
	d.f(s.CommBytes)
	d.f(s.DRAMBytes)
	d.f(s.PeakMemoryBytes)
	d.b(s.FitsMemory)
	d.i(s.Tasks)
	d.i(len(s.Trace))
}

// plans hashes NewPlan's outcome under every strategy.
func (d *digest) plans(m *hypar.Model, c hypar.Config) {
	for _, s := range hypar.Strategies {
		p, err := hypar.NewPlan(m, s, c)
		if !d.err(err) {
			d.plan(p)
		}
	}
}

// runs hashes Run's outcome under every strategy.
func (d *digest) runs(m *hypar.Model, c hypar.Config) {
	for _, s := range hypar.Strategies {
		r, err := hypar.Run(m, s, c)
		if !d.err(err) {
			d.i(r.DegradedGroups)
			d.plan(r.Plan)
			d.stats(r.Stats)
		}
	}
}

func (d *digest) inference(m *hypar.Model, c hypar.Config) {
	p, err := hypar.NewInferencePlan(m, c)
	if !d.err(err) {
		d.plan(p)
	}
}

func (d *digest) explore(m *hypar.Model, c hypar.Config, free []partition.FreeVar) {
	ex, err := experiments.NewSessionWithPool(c, runner.Serial()).Explore(m, free, nil)
	if !d.err(err) {
		d.exploration(ex)
	}
}

func (d *digest) fig9(c hypar.Config) {
	_, ex, err := experiments.NewSessionWithPool(c, runner.Serial()).Fig9()
	if !d.err(err) {
		d.exploration(ex)
	}
}

func (d *digest) exploration(ex *experiments.Exploration) {
	d.i(len(ex.Points))
	for _, p := range ex.Points {
		d.point(p)
	}
	d.point(ex.Peak)
	d.point(ex.HyPar)
}

func (d *digest) point(p experiments.ExplorePoint) {
	d.i(p.Code)
	d.f(p.Gain)
	d.b(p.IsHyPar)
	keys := make([]string, 0, len(p.Labels))
	for k := range p.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.s(k)
		d.s(p.Labels[k])
	}
}
