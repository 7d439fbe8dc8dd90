package hypar_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	hypar "repro"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/service"
)

// TestMutatedModelAnswersFresh pins the contract written on
// hypar.Model: a model is plain data, and the next call sees a change
// made between calls. For AlexNet and the branched Incep-2 it uses a
// model on every surface, changes one exported field of its Model,
// Input or Layer in place, and requires each surface's next answer, or
// error, to equal a fresh copy's: Derive, Run, NewPlan, a reused
// Evaluator's Run and a reused Session's Explore. A served
// /v1/evaluate whose inline body is the changed model, on a server that
// answered the model before the change, must answer byte for byte as a
// cold server answers the fresh copy, and the fresh copy's Run field
// for field, bit for bit, or fail where it fails. Every exported field
// is changed, found by reflection, so a field added later fails the
// test until the memo's content check covers it.
func TestMutatedModelAnswersFresh(t *testing.T) {
	cfg := hypar.DefaultConfig()
	free := []partition.FreeVar{{Level: 0, Layer: 0}, {Level: 3, Layer: 1}}
	srv, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := service.New(service.Options{CacheEntries: -1, RawCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ev, sess := hypar.NewEvaluator(), experiments.NewSession(cfg)
	outcome := func(v any, err error) any {
		if err != nil {
			return err.Error()
		}
		return v
	}
	// ask returns what each library surface answers about m, through ev
	// and sess for the reused ones.
	ask := func(m *hypar.Model, ev *hypar.Evaluator, sess *experiments.Session) map[string]any {
		shapes, g, err := m.Derive(cfg.Batch)
		run, runErr := hypar.Run(m, hypar.HyPar, cfg)
		plan, planErr := hypar.NewPlan(m, hypar.HyPar, cfg)
		reused, reusedErr := ev.Run(m, hypar.HyPar, cfg)
		ex, exErr := sess.Explore(m, free, nil)
		return map[string]any{
			"Derive":          outcome([]any{shapes, g}, err),
			"Run":             outcome(run, runErr),
			"NewPlan":         outcome(plan, planErr),
			"Evaluator.Run":   outcome(reused, reusedErr),
			"Session.Explore": outcome(ex, exErr),
		}
	}
	for _, c := range []struct {
		model func() *hypar.Model
		layer int
	}{{nn.AlexNet, 6}, {nn.Incep2, 3}} {
		for i := range fieldChanges(t, c.model(), c.layer) {
			m := c.model()
			ask(m, ev, sess) // first use
			serveInline(t, srv, m)
			ch := fieldChanges(t, m, c.layer)[i]
			ch.apply()
			fresh := &hypar.Model{Name: m.Name, Input: m.Input, Layers: cloneLayers(m.Layers)}
			got, want := ask(m, ev, sess), ask(fresh, hypar.NewEvaluator(), experiments.NewSession(cfg))
			for surface, w := range want {
				if !reflect.DeepEqual(got[surface], w) {
					t.Errorf("%s %s: %s answers the model as it was before the change", m.Name, ch.field, surface)
				}
			}
			code, body := serveInline(t, srv, m)
			if coldCode, coldBody := serveInline(t, cold, fresh); code != coldCode || string(body) != string(coldBody) {
				t.Errorf("%s %s: served %d %s, a cold server %d %s", m.Name, ch.field, code, body, coldCode, coldBody)
			}
			res, ok := want["Run"].(*hypar.Result)
			if !ok {
				if code == http.StatusOK {
					t.Errorf("%s %s: served 200 where Run fails with %v", m.Name, ch.field, want["Run"])
				}
				continue
			}
			var served struct {
				Model string
				Plan  struct {
					TotalElems float64
					Layers     []struct{ Name, Assign string }
				}
				Stats hypar.Stats
			}
			if code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", m.Name, ch.field, code, body)
			}
			if err := json.Unmarshal(body, &served); err != nil {
				t.Fatal(err)
			}
			assigns := make([]struct{ Name, Assign string }, len(m.Layers))
			for l, layer := range m.Layers {
				assigns[l].Name, assigns[l].Assign = layer.Name, res.Plan.LayerString(l)
			}
			if served.Model != m.Name || served.Plan.TotalElems != res.Plan.TotalElems ||
				!reflect.DeepEqual(served.Plan.Layers, assigns) || !reflect.DeepEqual(served.Stats, *res.Stats) {
				t.Errorf("%s %s: served evaluation differs from the library's: %s", m.Name, ch.field, body)
			}
		}
	}
}

// serveInline posts m as the inline model of a /v1/evaluate body, returning
// status 0 when m does not encode (an invalid model, which the service
// would refuse).
func serveInline(t *testing.T, srv *service.Server, m *hypar.Model) (int, []byte) {
	t.Helper()
	js, err := nn.EncodeModel(m)
	if err != nil {
		return 0, nil
	}
	rec := httptest.NewRecorder()
	body := `{"model":` + string(js) + `,"strategy":"hypar"}`
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// change is one in-place edit of a model field.
type change struct {
	field string
	apply func()
}

// fieldChanges lists one in-place change to every exported field of
// m's Model, Input and Layer types, found by reflection: a layer field
// changes on m.Layers[layer] and Inputs on its first element (none when
// that layer has no Inputs); a string gains a suffix, and an int is
// multiplied by 4, or set to 1 from 0. A field of any other kind fails
// the test until a change is defined for it.
func fieldChanges(t *testing.T, m *hypar.Model, layer int) []change {
	t.Helper()
	var out []change
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				if f := v.Type().Field(i); f.IsExported() {
					walk(v.Field(i), path+"."+f.Name)
				}
			}
		case reflect.Slice:
			i := 0
			if v.Type().Elem().Kind() == reflect.Struct {
				i = layer
			}
			if i < v.Len() {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.String:
			out = append(out, change{path, func() { v.SetString(v.String() + "x") }})
		case reflect.Int:
			out = append(out, change{path, func() { v.SetInt(max(4*v.Int(), 1)) }})
		default:
			t.Fatalf("%s: no change defined for a %s field", path, v.Kind())
		}
	}
	walk(reflect.ValueOf(m).Elem(), "Model")
	return out
}

// cloneLayers copies layers with Inputs lists of their own.
func cloneLayers(layers []nn.Layer) []nn.Layer {
	cp := append([]nn.Layer(nil), layers...)
	for i := range cp {
		cp[i].Inputs = append([]string(nil), cp[i].Inputs...)
	}
	return cp
}
