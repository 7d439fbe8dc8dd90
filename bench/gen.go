package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	hypar "repro"
)

// prng is a splitmix64 stream. Every generated body draws from its own
// stream keyed by (seed, salt, index), so body i is a pure function of
// the seed and i whichever client asks for it, and in whatever order.
type prng struct{ s uint64 }

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newPRNG(seed int64, salt uint64, i int) prng {
	return prng{s: mix64(mix64(uint64(seed)^salt<<40) + uint64(i))}
}

func (r *prng) next() uint64 {
	r.s = mix64(r.s)
	return r.s
}

func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *prng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Stream salts keep the draws of different decisions independent.
const (
	saltBody uint64 = iota + 1
	saltEndpoint
	saltZipf
	saltExplore
)

// warmBase is the first index of the warm-up range. Measured windows use
// indices below it, so warm-up bodies never repeat a measured one.
const warmBase = 1 << 20

// request is the hypard POST envelope. Field order is fixed, so a
// request renders to the same bytes every time.
type request struct {
	Zoo      string          `json:"zoo,omitempty"`
	Model    json.RawMessage `json:"model,omitempty"`
	Strategy string          `json:"strategy,omitempty"`
	Config   *override       `json:"config,omitempty"`
	Free     []freeVar       `json:"free,omitempty"`
}

// override is the partial config a request layers on the daemon's base.
type override struct {
	Batch        int               `json:"batch,omitempty"`
	Levels       int               `json:"levels,omitempty"`
	Platform     string            `json:"platform,omitempty"`
	Platforms    map[string]string `json:"platforms,omitempty"`
	LinkMbps     float64           `json:"linkMbps,omitempty"`
	Faults       *faultSpec        `json:"faults,omitempty"`
	SearchMethod string            `json:"searchMethod,omitempty"`
}

type faultSpec struct {
	Level  int `json:"level"`
	Groups int `json:"groups"`
}

type freeVar struct {
	Level int `json:"level"`
	Layer int `json:"layer"`
}

// item is one generated request: the endpoint it goes to and its body.
type item struct {
	endpoint string
	req      request
}

func (it item) path() string { return "/v1/" + it.endpoint }

func (it item) body() []byte {
	b, err := json.Marshal(it.req)
	if err != nil {
		panic(err) // every field is a plain value; Marshal cannot fail
	}
	return b
}

var (
	zooNames = []string{"SFC", "SCONV", "Lenet-c", "Cifar-c", "AlexNet",
		"VGG-A", "VGG-B", "VGG-C", "VGG-D", "VGG-E", "SRES-8", "Incep-2"}
	strategyNames = []string{"hypar", "dp", "mp", "trick"}
	platformNames = []string{"hmc", "gpu-hbm", "tpu-systolic"}
	// nativeMbps is each platform's default link rate. Cold bodies add
	// i/1024 to it: the ranges of the three platforms do not overlap
	// (TestDistinctBodies checks this), so the link rate alone makes every
	// index a distinct request.
	nativeMbps = func() map[string]float64 {
		rates := map[string]float64{}
		for _, name := range platformNames {
			p, err := hypar.PlatformFor(hypar.Config{Platform: name})
			if err != nil {
				panic(err)
			}
			rates[name] = p.DefaultLinkMbps()
		}
		return rates
	}()
)

// coldItem is the i-th body of the distinct-request generator that
// evaluate-cold, evaluate-hot and mixed-zipf all draw from. The endpoint
// only decides which fields the envelope may carry (compare and degrade
// take no strategy, degrade needs faults); every other field is drawn
// the same way for any endpoint.
func coldItem(seed int64, i int, endpoint string) item {
	r := newPRNG(seed, saltBody, i)
	var req request
	branched := false
	if r.float() < 0.85 {
		req.Zoo = zooNames[r.intn(len(zooNames))]
		branched = req.Zoo == "SRES-8" || req.Zoo == "Incep-2"
	} else {
		req.Model, branched = inlineModel(&r, i)
	}
	strategy := strategyNames[r.intn(len(strategyNames))]
	o := &override{
		Batch:    32 + r.intn(993),
		Levels:   2 + r.intn(4),
		Platform: platformNames[r.intn(len(platformNames))],
	}
	o.LinkMbps = nativeMbps[o.Platform] + float64(i)/1024
	if r.float() < 0.15 {
		o.Platforms = map[string]string{}
		named := 1 + r.intn(o.Levels-1)
		for h := 0; h < named; h++ {
			o.Platforms[fmt.Sprint(h)] = platformNames[r.intn(len(platformNames))]
		}
	}
	if branched && r.float() < 0.10 {
		o.SearchMethod = "beam"
	}
	// Both fault specs leave a power-of-two survivor set (half the
	// array), valid at every depth the generator draws.
	fault := &faultSpec{Level: 0, Groups: 1}
	if r.intn(2) == 1 {
		fault = &faultSpec{Level: 1, Groups: 2}
	}
	switch endpoint {
	case "evaluate", "plan":
		req.Strategy = strategy
	case "degrade":
		o.Faults = fault
	}
	req.Config = o
	return item{endpoint: endpoint, req: req}
}

// layerSpec and modelSpec are the inline model wire form (nn.DecodeModel).
type layerSpec struct {
	Name   string   `json:"name"`
	Type   string   `json:"type"`
	Inputs []string `json:"inputs,omitempty"`
	Join   string   `json:"join,omitempty"`
	K      int      `json:"k,omitempty"`
	Pad    int      `json:"pad,omitempty"`
	Cout   int      `json:"cout"`
	Pool   int      `json:"pool,omitempty"`
}

type modelSpec struct {
	Name  string `json:"name"`
	Input struct {
		H int `json:"h"`
		W int `json:"w"`
		C int `json:"c"`
	} `json:"input"`
	Layers []layerSpec `json:"layers"`
}

// inlineModel draws a small network: half are conv chains, half a
// fork-join block whose two branches rejoin by add or concat. Both end
// in an fc classifier.
func inlineModel(r *prng, i int) (json.RawMessage, bool) {
	var m modelSpec
	m.Name = fmt.Sprintf("gen-%d", i)
	size := 16 << r.intn(3)
	m.Input.H, m.Input.W, m.Input.C = size, size, 1+2*r.intn(2)
	conv := func(name string, k, cout int, inputs ...string) layerSpec {
		return layerSpec{Name: name, Type: "conv", Inputs: inputs, K: k, Pad: k / 2, Cout: cout}
	}
	branched := r.intn(2) == 1
	if branched {
		stem := conv("stem", 3, 8<<r.intn(3))
		stem.Pool = 2
		width := 8 << r.intn(3)
		join := conv("join", 3, 16<<r.intn(3), "b1", "b2")
		if r.intn(2) == 1 {
			join.Join = "add"
		}
		m.Layers = append(m.Layers, stem,
			conv("b1", 1, width, "stem"), conv("b2", 3, width, "stem"), join)
	} else {
		convs := 2 + r.intn(4)
		for c := 0; c < convs; c++ {
			l := conv(fmt.Sprintf("conv%d", c), 3+2*r.intn(2), 8<<r.intn(4))
			if size >= 8 && r.intn(2) == 1 {
				l.Pool = 2
				size /= 2
			}
			m.Layers = append(m.Layers, l)
		}
	}
	hidden := r.intn(3)
	for f := 0; f < hidden; f++ {
		m.Layers = append(m.Layers, layerSpec{Name: fmt.Sprintf("fc%d", f), Type: "fc", Cout: 64 << r.intn(4)})
	}
	m.Layers = append(m.Layers, layerSpec{Name: "out", Type: "fc", Cout: 10})
	b, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return b, branched
}

// pickEndpoint draws an endpoint for body i from cumulative shares.
func pickEndpoint(seed int64, i int, names []string, cum []float64) string {
	r := newPRNG(seed, saltEndpoint, i)
	u := r.float()
	for k, c := range cum {
		if u < c {
			return names[k]
		}
	}
	return names[len(names)-1]
}

// hotSet is the number of distinct evaluate-hot bodies.
const hotSet = 256

func hotItem(seed int64, k int) item {
	ep := pickEndpoint(seed, k, []string{"evaluate", "plan", "compare"}, []float64{0.60, 0.80, 1})
	return coldItem(seed, k, ep)
}

// zipfKeys is the number of distinct mixed-zipf bodies; zipfS the skew.
const (
	zipfKeys = 16384
	zipfS    = 1.1
)

// zipfCDF is the cumulative Zipf(s) distribution over ranks 0..N-1.
var zipfCDF = func() []float64 {
	cdf := make([]float64, zipfKeys)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -zipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}()

// zipfRank is the rank request i of the mixed-zipf stream asks for.
func zipfRank(seed int64, i int) int {
	r := newPRNG(seed, saltZipf, i)
	u := r.float()
	k := sort.SearchFloat64s(zipfCDF, u)
	if k >= zipfKeys {
		k = zipfKeys - 1
	}
	return k
}

func zipfItem(seed int64, rank int) item {
	ep := pickEndpoint(seed, rank, []string{"evaluate", "plan", "compare", "degrade"}, []float64{0.55, 0.75, 0.90, 1})
	return coldItem(seed, rank, ep)
}

// Explore sweeps run over four paper networks at 16 (batch, link)
// configurations: 16 distinct configs stay inside hypard's 32-entry
// session cache.
var (
	exploreModels  = []string{"Lenet-c", "Cifar-c", "AlexNet", "VGG-A"}
	exploreLayers  = layerCounts(exploreModels)
	exploreBatches = []int{64, 128, 256, 512}
	exploreLinks   = []float64{800, 1600, 3200, 6400}
)

// exploreFree is the number of free variables per sweep (2^8 points).
const exploreFree = 8

// layerCounts is the number of layers of each named zoo network.
func layerCounts(names []string) []int {
	out := make([]int, len(names))
	for k, name := range names {
		m, err := hypar.ModelByName(name)
		if err != nil {
			panic(err)
		}
		out[k] = len(m.Layers)
	}
	return out
}

// exploreItem is the i-th explore-sweep body. Index i fixes the model
// (i mod 4) and the config ((i/4) mod 16); i/64 ranks a distinct 8-subset
// of the model's (level, layer) variables, offset by the seed. Lenet-c,
// the smallest at 4 layers, has C(16,8) = 12870 subsets, so the first
// 823,680 indices are pairwise distinct.
func exploreItem(seed int64, i int) item {
	r := newPRNG(seed, saltExplore, 0)
	mi := (i + int(r.next()%4)) % len(exploreModels)
	layers := exploreLayers[mi]
	combo := (i / len(exploreModels)) % (len(exploreBatches) * len(exploreLinks))
	vars := baseConfig().Levels * layers // explore bodies keep the daemon's depth
	total := binom(vars, exploreFree)
	rank := (i/64 + int(r.next()%uint64(total))) % total
	subset := unrankSubset(rank, vars, exploreFree)
	free := make([]freeVar, len(subset))
	for k, v := range subset {
		free[k] = freeVar{Level: v / layers, Layer: v % layers}
	}
	return item{endpoint: "explore", req: request{
		Zoo: exploreModels[mi],
		Config: &override{
			Batch:    exploreBatches[combo%len(exploreBatches)],
			LinkMbps: exploreLinks[combo/len(exploreBatches)],
		},
		Free: free,
	}}
}

func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for j := 1; j <= k; j++ {
		r = r * (n - k + j) / j
	}
	return r
}

// unrankSubset returns the rank-th k-subset of {0..n-1} in
// lexicographic order.
func unrankSubset(rank, n, k int) []int {
	out := make([]int, 0, k)
	for v := 0; len(out) < k; v++ {
		// Subsets that start with v at this position.
		c := binom(n-v-1, k-len(out)-1)
		if rank < c {
			out = append(out, v)
		} else {
			rank -= c
		}
	}
	return out
}
