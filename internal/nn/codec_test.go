package nn

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// validModelJSON is the reference wire form used across codec tests.
const validModelJSON = `{
	"name": "tiny",
	"input": {"h": 8, "w": 8, "c": 3},
	"layers": [
		{"name": "conv1", "type": "conv", "k": 3, "pad": 1, "cout": 4, "pool": 2},
		{"name": "fc1", "type": "fc", "cout": 10, "act": "softmax"}
	]
}`

func TestDecodeModelValid(t *testing.T) {
	m, err := DecodeModel([]byte(validModelJSON))
	if err != nil {
		t.Fatalf("DecodeModel: %v", err)
	}
	if m.Name != "tiny" || len(m.Layers) != 2 {
		t.Fatalf("decoded %v", m)
	}
	if m.Layers[0].Type != Conv || m.Layers[0].K != 3 || m.Layers[0].Pool != 2 {
		t.Errorf("conv layer decoded as %+v", m.Layers[0])
	}
	if m.Layers[1].Type != FC || m.Layers[1].Act != Softmax {
		t.Errorf("fc layer decoded as %+v", m.Layers[1])
	}
	if _, err := m.Shapes(4); err != nil {
		t.Errorf("decoded model fails shape inference: %v", err)
	}
}

func TestDecodeModelRejects(t *testing.T) {
	cases := map[string]string{
		"empty":          ``,
		"not json":       `{"name": `,
		"unknown field":  `{"name":"x","input":{"h":8,"w":8,"c":3},"layers":[{"name":"fc","type":"fc","cout":10}],"extra":1}`,
		"unknown type":   `{"name":"x","input":{"h":8,"w":8,"c":3},"layers":[{"name":"l","type":"lstm","cout":10}]}`,
		"unknown act":    `{"name":"x","input":{"h":8,"w":8,"c":3},"layers":[{"name":"l","type":"fc","cout":10,"act":"gelu"}]}`,
		"no layers":      `{"name":"x","input":{"h":8,"w":8,"c":3},"layers":[]}`,
		"no name":        `{"input":{"h":8,"w":8,"c":3},"layers":[{"name":"l","type":"fc","cout":10}]}`,
		"bad input":      `{"name":"x","input":{"h":0,"w":8,"c":3},"layers":[{"name":"l","type":"fc","cout":10}]}`,
		"bad cout":       `{"name":"x","input":{"h":8,"w":8,"c":3},"layers":[{"name":"l","type":"fc","cout":0}]}`,
		"conv after fc":  `{"name":"x","input":{"h":8,"w":8,"c":3},"layers":[{"name":"a","type":"fc","cout":10},{"name":"b","type":"conv","k":3,"cout":4}]}`,
		"trailing bytes": `{"name":"x","input":{"h":8,"w":8,"c":3},"layers":[{"name":"l","type":"fc","cout":10}]} junk`,
		"wrong shape":    `["not","an","object"]`,
	}
	for name, in := range cases {
		if _, err := DecodeModel([]byte(in)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestDecodeModelSizeLimits(t *testing.T) {
	huge := make([]byte, MaxJSONBytes+1)
	if _, err := DecodeModel(huge); !errors.Is(err, ErrCodec) {
		t.Errorf("oversized payload: got %v", err)
	}
	var b strings.Builder
	b.WriteString(`{"name":"x","input":{"h":8,"w":8,"c":3},"layers":[`)
	for i := 0; i <= MaxJSONLayers; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`{"name":"l","type":"fc","cout":10}`)
	}
	b.WriteString(`]}`)
	if _, err := DecodeModel([]byte(b.String())); !errors.Is(err, ErrCodec) {
		t.Errorf("layer-count limit: got %v", err)
	}
}

// TestEncodeModelCanonical checks that semantically identical models
// serialize to identical bytes, and that the canonical form is a fixed
// point of decode→encode.
func TestEncodeModelCanonical(t *testing.T) {
	m, err := DecodeModel([]byte(validModelJSON))
	if err != nil {
		t.Fatal(err)
	}
	enc1, err := EncodeModel(m)
	if err != nil {
		t.Fatalf("EncodeModel: %v", err)
	}
	m2, err := DecodeModel(enc1)
	if err != nil {
		t.Fatalf("DecodeModel(canonical): %v", err)
	}
	enc2, err := EncodeModel(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Errorf("canonical form is not a fixed point:\n%s\n%s", enc1, enc2)
	}

	// Explicit defaults (stride 1, pool 1, relu) collapse to the same bytes.
	expl := Model{Name: m.Name, Input: m.Input, Layers: append([]Layer(nil), m.Layers...)}
	expl.Layers[0].Stride = 1
	encExpl, err := EncodeModel(&expl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, encExpl) {
		t.Errorf("explicit stride-1 changes canonical bytes:\n%s\n%s", enc1, encExpl)
	}
}

// TestEncodeModelZoo round-trips every zoo network through the codec.
func TestEncodeModelZoo(t *testing.T) {
	for _, m := range Zoo() {
		enc, err := EncodeModel(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Name, err)
		}
		rt, err := DecodeModel(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Name, err)
		}
		enc2, err := EncodeModel(rt)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", m.Name, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("%s: round trip changed canonical bytes", m.Name)
		}
		p1, err := m.Params(4)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := rt.Params(4)
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Errorf("%s: round trip changed parameter count: %d vs %d", m.Name, p1, p2)
		}
	}
}

func TestEncodeModelInvalid(t *testing.T) {
	if _, err := EncodeModel(&Model{Name: "bad"}); err == nil {
		t.Error("encoded invalid model")
	}
}
