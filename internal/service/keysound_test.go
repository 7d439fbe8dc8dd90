package service

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/runner"
)

// TestRequestKeySoundness generates /v1/evaluate and /v1/compare
// requests and spells each several ways. Spellings docs/API.md calls
// equivalent — field order, whitespace, and explicit defaults (precision
// fp32, platform hmc, the platform's native topology and link rate, an
// all-equal platforms spec, strategy hypar and its aliases, the base
// batch and depth, and an inline model's default layer fields and
// wiring) — must share one request key and, with both cache tiers off,
// compute byte-equal responses. Each single semantic change (batch,
// levels, platform, strategy, an off-native link rate, one inline
// layer's cout) must change the key.
func TestRequestKeySoundness(t *testing.T) {
	srv, err := New(Options{CacheEntries: -1, RawCacheBytes: -1, Pool: runner.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	serve := func(q *keyReq, body string) (string, int, string) {
		t.Helper()
		p, err := srv.parseBody([]byte(body), q.endpoint == "evaluate", false)
		if err != nil {
			t.Fatalf("%s body %s: %v", q.endpoint, body, err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/"+q.endpoint, strings.NewReader(body)))
		return p.key(q.endpoint), rec.Code, rec.Body.String()
	}
	r := rand.New(rand.NewSource(2501))
	bodies, changes := 0, 0
	for i := 0; i < 80; i++ {
		q := genKeyReq(r)
		base := q.render(nil, keySpelling{})
		key, code, resp := serve(q, base)
		bodies++
		if code != 200 {
			t.Fatalf("%s %s: status %d: %s", q.endpoint, base, code, resp)
		}
		for _, sp := range q.spellings() {
			body := q.render(r, sp)
			k, c, b := serve(q, body)
			bodies++
			if k != key {
				t.Errorf("%s: %s and %s mean the same request but key differently", q.endpoint, base, body)
			}
			if c != code || b != resp {
				t.Errorf("%s: %s and %s share a key but answer differently:\n%d %s\n%d %s", q.endpoint, base, body, code, resp, c, b)
			}
		}
		for name, c := range q.changes() {
			body := c.render(nil, keySpelling{})
			p, err := srv.parseBody([]byte(body), q.endpoint == "evaluate", false)
			if err != nil {
				t.Fatalf("%s change %s: %s: %v", q.endpoint, name, body, err)
			}
			changes++
			if p.key(q.endpoint) == key {
				t.Errorf("%s: changing %s (%s to %s) kept the key", q.endpoint, name, base, body)
			}
		}
	}
	t.Logf("%d bodies served in equivalent spellings, %d single semantic changes keyed", bodies, changes)
}

// keyReq is one generated request; zero fields are omitted from the
// body, so the daemon's base config (the paper's hmc array, batch 256,
// 4 levels) fills them.
type keyReq struct {
	endpoint  string // "evaluate" or "compare"
	zoo       string // a zoo network, or "" for the inline model
	layers    []keyLayer
	strategy  string // evaluate only
	batch     int
	levels    int
	platform  string
	linkMbps  float64 // always off the platform's native rate
	precision string  // never the fp32 default
}

// keyLayer is one inline-model layer.
type keyLayer struct {
	name, typ       string
	k, pad, pool    int
	cout            int
	inputs          []string // nil: the previous layer
	joinedByDefault bool     // several inputs under the default concat join
}

// keySpelling selects which equivalent spellings a render uses.
type keySpelling struct {
	precision, platform, fabric, platforms, strategy, alias, base, modelDefaults bool
}

var (
	keyZoo        = []string{"SFC", "SCONV", "Lenet-c", "Cifar-c", "AlexNet", "VGG-A", "SRES-8", "Incep-2"}
	keyStrategies = []string{"hypar", "dp", "mp", "trick"}
	keyAliases    = map[string]string{"dp": "dataparallel", "mp": "modelparallel", "trick": "oneweirdtrick", "hypar": "HyPar"}
	keyPlatforms  = []string{"hmc", "gpu-hbm", "tpu-systolic"}
	keyNative     = map[string]struct {
		topology string
		linkMbps float64
	}{"hmc": {"htree", 1600}, "gpu-hbm": {"torus", 200000}, "tpu-systolic": {"torus", 496000}}
)

// genKeyReq draws one request.
func genKeyReq(r *rand.Rand) *keyReq {
	q := &keyReq{endpoint: "evaluate"}
	if r.Intn(3) == 0 {
		q.endpoint = "compare"
	}
	if r.Intn(3) == 0 {
		q.layers = genKeyModel(r)
	} else {
		q.zoo = keyZoo[r.Intn(len(keyZoo))]
	}
	if q.endpoint == "evaluate" && r.Intn(2) == 0 {
		q.strategy = keyStrategies[r.Intn(len(keyStrategies))]
	}
	if r.Intn(2) == 0 {
		q.batch = 16 << r.Intn(5)
	}
	if r.Intn(2) == 0 {
		q.levels = 1 + r.Intn(4)
	}
	if r.Intn(3) > 0 {
		q.platform = keyPlatforms[r.Intn(len(keyPlatforms))]
	}
	if r.Intn(4) == 0 {
		q.linkMbps = 2 * keyNative[q.effPlatform()].linkMbps
	}
	if r.Intn(4) == 0 {
		q.precision = "fp16"
	}
	return q
}

// genKeyModel draws a small inline chain, or a fork/concat-join DAG.
func genKeyModel(r *rand.Rand) []keyLayer {
	conv := func(name string, inputs ...string) keyLayer {
		return keyLayer{name: name, typ: "conv", k: 3, pad: 1, cout: 4 + r.Intn(12), inputs: inputs}
	}
	var ls []keyLayer
	if r.Intn(2) == 0 {
		for i := range 1 + r.Intn(3) {
			ls = append(ls, conv(fmt.Sprintf("c%d", i)))
		}
		ls[0].pool = 2
	} else {
		ls = []keyLayer{conv("stem"), conv("b1", "stem"), conv("b2", "stem"), conv("join", "b1", "b2")}
		ls[3].joinedByDefault = true
	}
	for i := range 1 + r.Intn(2) {
		ls = append(ls, keyLayer{name: fmt.Sprintf("f%d", i), typ: "fc", cout: 8 + r.Intn(24)})
	}
	return ls
}

func (q *keyReq) effPlatform() string {
	if q.platform == "" {
		return "hmc"
	}
	return q.platform
}

func (q *keyReq) effLevels() int {
	if q.levels == 0 {
		return 4
	}
	return q.levels
}

// spellings returns every equivalent spelling on its own, then all at
// once.
func (q *keyReq) spellings() []keySpelling {
	sps := []keySpelling{{}, {platform: true}, {fabric: true}, {platforms: true}, {base: true},
		{precision: true, platform: true, fabric: true, base: true, strategy: true, alias: true, modelDefaults: true}}
	if q.precision == "" {
		sps = append(sps, keySpelling{precision: true})
	}
	if q.endpoint == "evaluate" {
		sps = append(sps, keySpelling{strategy: true}, keySpelling{strategy: true, alias: true})
	}
	if q.zoo == "" {
		sps = append(sps, keySpelling{modelDefaults: true})
	}
	return sps
}

// changes returns the request with each single semantic change.
func (q *keyReq) changes() map[string]*keyReq {
	out := map[string]*keyReq{}
	with := func(name string, f func(c *keyReq)) {
		c := *q
		c.layers = append([]keyLayer(nil), q.layers...)
		f(&c)
		out[name] = &c
	}
	with("batch", func(c *keyReq) { c.batch = 2 * max(c.batch, 256) })
	with("levels", func(c *keyReq) { c.levels = 1 + c.effLevels()%4 })
	with("platform", func(c *keyReq) {
		c.platform = keyPlatforms[(1+indexOf(keyPlatforms, c.effPlatform()))%len(keyPlatforms)]
	})
	with("linkMbps", func(c *keyReq) { c.linkMbps = 3*keyNative[c.effPlatform()].linkMbps + c.linkMbps })
	if q.endpoint == "evaluate" {
		with("strategy", func(c *keyReq) {
			cur := c.strategy
			if cur == "" {
				cur = "hypar"
			}
			c.strategy = keyStrategies[(1+indexOf(keyStrategies, cur))%len(keyStrategies)]
		})
	}
	if q.zoo == "" {
		with("cout", func(c *keyReq) { c.layers[len(c.layers)-1].cout++ })
	}
	return out
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// render writes the request's JSON body under sp. A nil r writes the
// fields in a fixed order without whitespace; otherwise every object's
// fields are shuffled and whitespace is scattered between tokens.
func (q *keyReq) render(r *rand.Rand, sp keySpelling) string {
	var req, cfg jsonObj
	if q.zoo != "" {
		req = append(req, jsonKV{"zoo", q.zoo})
	} else {
		req = append(req, jsonKV{"model", q.model(sp.modelDefaults)})
	}
	switch strat := q.strategy; {
	case q.endpoint != "evaluate":
	case strat != "" && sp.alias:
		req = append(req, jsonKV{"strategy", keyAliases[strat]})
	case strat != "":
		req = append(req, jsonKV{"strategy", strat})
	case sp.strategy && sp.alias:
		req = append(req, jsonKV{"strategy", keyAliases["hypar"]})
	case sp.strategy:
		req = append(req, jsonKV{"strategy", "hypar"})
	}
	if q.batch != 0 {
		cfg = append(cfg, jsonKV{"batch", q.batch})
	} else if sp.base {
		cfg = append(cfg, jsonKV{"batch", 256})
	}
	if q.levels != 0 {
		cfg = append(cfg, jsonKV{"levels", q.levels})
	} else if sp.base {
		cfg = append(cfg, jsonKV{"levels", 4})
	}
	plat := q.platform
	if plat == "" && sp.platform {
		plat = "hmc"
	}
	if sp.platforms {
		spec := jsonObj{}
		for h := range q.effLevels() {
			spec = append(spec, jsonKV{strconv.Itoa(h), q.effPlatform()})
		}
		cfg = append(cfg, jsonKV{"platforms", spec})
	} else if plat != "" {
		cfg = append(cfg, jsonKV{"platform", plat})
	}
	native := keyNative[q.effPlatform()]
	if sp.fabric {
		cfg = append(cfg, jsonKV{"topology", native.topology})
	}
	if q.linkMbps != 0 {
		cfg = append(cfg, jsonKV{"linkMbps", q.linkMbps})
	} else if sp.fabric {
		cfg = append(cfg, jsonKV{"linkMbps", native.linkMbps})
	}
	if q.precision != "" {
		cfg = append(cfg, jsonKV{"precision", q.precision})
	} else if sp.precision {
		cfg = append(cfg, jsonKV{"precision", "fp32"})
	}
	if len(cfg) > 0 {
		req = append(req, jsonKV{"config", cfg})
	}
	var b strings.Builder
	writeJSON(&b, r, req)
	return b.String()
}

// model renders the inline model, spelling out each layer's default
// stride, activation, wiring and join when defaults is set.
func (q *keyReq) model(defaults bool) jsonObj {
	layers := make([]any, len(q.layers))
	for i, l := range q.layers {
		o := jsonObj{{"name", l.name}, {"type", l.typ}, {"cout", l.cout}}
		if l.typ == "conv" {
			o = append(o, jsonKV{"k", l.k}, jsonKV{"pad", l.pad})
			if defaults {
				o = append(o, jsonKV{"stride", 1})
			}
		}
		if l.pool != 0 {
			o = append(o, jsonKV{"pool", l.pool})
		}
		inputs := l.inputs
		if inputs == nil && defaults {
			inputs = []string{"input"}
			if i > 0 {
				inputs = []string{q.layers[i-1].name}
			}
		}
		if inputs != nil {
			names := make([]any, len(inputs))
			for j, n := range inputs {
				names[j] = n
			}
			o = append(o, jsonKV{"inputs", names})
		}
		if defaults {
			o = append(o, jsonKV{"act", "relu"})
			if l.joinedByDefault {
				o = append(o, jsonKV{"join", "concat"})
			}
		}
		layers[i] = o
	}
	return jsonObj{{"name", "keynet"}, {"input", jsonObj{{"h", 16}, {"w", 16}, {"c", 3}}}, {"layers", layers}}
}

// jsonObj is a JSON object whose field order the renderer controls.
type jsonObj []jsonKV

type jsonKV struct {
	k string
	v any
}

// writeJSON renders v; a non-nil r shuffles object fields and scatters
// whitespace.
func writeJSON(b *strings.Builder, r *rand.Rand, v any) {
	ws := func() {
		if r != nil {
			b.WriteString([]string{"", " ", "\n", "\t ", "  "}[r.Intn(5)])
		}
	}
	switch v := v.(type) {
	case jsonObj:
		kvs := append(jsonObj(nil), v...)
		if r != nil {
			r.Shuffle(len(kvs), func(i, j int) { kvs[i], kvs[j] = kvs[j], kvs[i] })
		}
		b.WriteByte('{')
		for i, kv := range kvs {
			if i > 0 {
				b.WriteByte(',')
			}
			ws()
			b.WriteString(strconv.Quote(kv.k))
			ws()
			b.WriteByte(':')
			ws()
			writeJSON(b, r, kv.v)
			ws()
		}
		b.WriteByte('}')
	case []any:
		b.WriteByte('[')
		for i, e := range v {
			if i > 0 {
				b.WriteByte(',')
			}
			ws()
			writeJSON(b, r, e)
		}
		ws()
		b.WriteByte(']')
	case string:
		b.WriteString(strconv.Quote(v))
	case int:
		b.WriteString(strconv.Itoa(v))
	case float64:
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	default:
		panic(fmt.Sprintf("writeJSON: %T", v))
	}
}
