package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"

	hypar "repro"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/partition"
)

// baseConfig is the config hypard runs at when started with default
// flags; request overrides layer onto it. It must match the -batch,
// -levels and -platform defaults in cmd/hypard, which are not exported.
func baseConfig() hypar.Config {
	return hypar.Config{Batch: 256, Levels: 4, Platform: "hmc"}
}

// resolved is a request turned back into library inputs.
type resolved struct {
	model    *hypar.Model
	strategy hypar.Strategy
	raw      hypar.Config // base plus override, before Canonical
	cfg      hypar.Config
	free     []partition.FreeVar
}

// resolve rebuilds the model, strategy and config a request names, the
// way hypard reads them.
func resolve(req request) (*resolved, error) {
	r := &resolved{strategy: hypar.HyPar, raw: baseConfig()}
	var err error
	if req.Zoo != "" {
		r.model, err = hypar.ModelByName(req.Zoo)
	} else {
		r.model, err = nn.DecodeModel(req.Model)
	}
	if err != nil {
		return nil, err
	}
	if req.Strategy != "" {
		if r.strategy, err = hypar.ParseStrategy(req.Strategy); err != nil {
			return nil, err
		}
	}
	if req.Config != nil {
		b, err := json.Marshal(req.Config)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &r.raw); err != nil {
			return nil, err
		}
	}
	r.cfg = r.raw.Canonical()
	for _, fv := range req.Free {
		r.free = append(r.free, partition.FreeVar{Level: fv.Level, Layer: fv.Layer})
	}
	return r, nil
}

// Reply shapes: only the fields the checks compare.
type (
	planReply struct {
		Layers []struct {
			Name   string `json:"name"`
			Assign string `json:"assign"`
		} `json:"layers"`
	}
	planResponseReply struct {
		Plan planReply `json:"plan"`
	}
	statsReply struct {
		StepSeconds float64 `json:"stepSeconds"`
		CommBytes   float64 `json:"commBytes"`
		EnergyTotal float64 `json:"energyTotal"`
	}
	evaluateReply struct {
		Plan  planReply  `json:"plan"`
		Stats statsReply `json:"stats"`
	}
	compareReply struct {
		Results map[string]evaluateReply `json:"results"`
	}
	degradeReply struct {
		Strategies map[string]struct {
			Healthy  float64 `json:"healthyStepSeconds"`
			Degraded float64 `json:"degradedStepSeconds"`
		} `json:"strategies"`
		DegradedPlan planReply `json:"degradedPlan"`
	}
	explorePoint struct {
		Type    string            `json:"type"`
		Code    int               `json:"code"`
		Labels  map[string]string `json:"labels"`
		Gain    float64           `json:"gain"`
		IsHyPar bool              `json:"isHyPar"`
	}
	exploreSummary struct {
		Type string       `json:"type"`
		Peak explorePoint `json:"peak"`
	}
)

// checkReply recomputes a request with the library and compares the
// numbers hypard returned: step time, total energy, communication bytes
// and every layer's assignment string must be exactly equal.
func checkReply(it item, reply []byte) error {
	r, err := resolve(it.req)
	if err != nil {
		return err
	}
	m, cfg := r.model, r.cfg
	switch it.endpoint {
	case "plan":
		var got planResponseReply
		if err := json.Unmarshal(reply, &got); err != nil {
			return err
		}
		want, err := hypar.NewPlan(m, r.strategy, cfg)
		if err != nil {
			return err
		}
		return samePlan(got.Plan, want, m)
	case "evaluate":
		var got evaluateReply
		if err := json.Unmarshal(reply, &got); err != nil {
			return err
		}
		want, err := hypar.NewEvaluator().RunCtx(context.Background(), m, r.strategy, cfg)
		if err != nil {
			return err
		}
		return sameResult(got, want, m)
	case "compare":
		var got compareReply
		if err := json.Unmarshal(reply, &got); err != nil {
			return err
		}
		want, err := hypar.Compare(m, cfg)
		if err != nil {
			return err
		}
		for st, res := range want.Results {
			if err := sameResult(got.Results[st.String()], res, m); err != nil {
				return fmt.Errorf("%v: %w", st, err)
			}
		}
		return nil
	case "degrade":
		var got degradeReply
		if err := json.Unmarshal(reply, &got); err != nil {
			return err
		}
		want, err := hypar.CompareDegraded(m, cfg)
		if err != nil {
			return err
		}
		for _, st := range hypar.Strategies {
			g := got.Strategies[st.String()]
			if h, d := want.Healthy.Results[st].Stats.StepSeconds, want.Degraded.Results[st].Stats.StepSeconds; g.Healthy != h || g.Degraded != d {
				return fmt.Errorf("%v: step seconds healthy %v degraded %v, library %v and %v", st, g.Healthy, g.Degraded, h, d)
			}
		}
		return samePlan(got.DegradedPlan, want.Degraded.Results[hypar.HyPar].Plan, m)
	case "explore":
		points, err := exploreReplyPoints(reply, len(r.free))
		if err != nil {
			return err
		}
		want, err := experiments.NewSession(cfg).Explore(m, r.free, nil)
		if err != nil {
			return err
		}
		for k, p := range points {
			w := want.Points[k]
			if p.Code != w.Code || p.Gain != w.Gain || p.IsHyPar != w.IsHyPar || !maps.Equal(p.Labels, w.Labels) {
				return fmt.Errorf("point %d: got code %d gain %v hypar %v, library code %d gain %v hypar %v",
					k, p.Code, p.Gain, p.IsHyPar, w.Code, w.Gain, w.IsHyPar)
			}
		}
		return nil
	}
	return fmt.Errorf("no check for endpoint %q", it.endpoint)
}

func sameResult(got evaluateReply, want *hypar.Result, m *hypar.Model) error {
	g, w := got.Stats, want.Stats
	if g.StepSeconds != w.StepSeconds || g.EnergyTotal != w.EnergyTotal() || g.CommBytes != w.CommBytes {
		return fmt.Errorf("stats step %v energy %v comm %v, library %v %v %v",
			g.StepSeconds, g.EnergyTotal, g.CommBytes, w.StepSeconds, w.EnergyTotal(), w.CommBytes)
	}
	return samePlan(got.Plan, want.Plan, m)
}

func samePlan(got planReply, want *hypar.Plan, m *hypar.Model) error {
	if len(got.Layers) != len(m.Layers) {
		return fmt.Errorf("%d layers in reply, model has %d", len(got.Layers), len(m.Layers))
	}
	for l, layer := range got.Layers {
		if layer.Name != m.Layers[l].Name || layer.Assign != want.LayerString(l) {
			return fmt.Errorf("layer %d %s=%s, library %s=%s", l, layer.Name, layer.Assign, m.Layers[l].Name, want.LayerString(l))
		}
	}
	return nil
}

// exploreReplyPoints checks an NDJSON sweep's shape — a header, one
// line per point in code order, a summary whose peak is the first
// highest-gain point — and returns the points.
func exploreReplyPoints(reply []byte, free int) ([]explorePoint, error) {
	lines := bytes.Split(bytes.TrimSuffix(reply, []byte("\n")), []byte("\n"))
	if want := 2 + 1<<free; len(lines) != want {
		return nil, fmt.Errorf("%d NDJSON lines, want %d", len(lines), want)
	}
	points := make([]explorePoint, len(lines)-2)
	var peak explorePoint
	for k := range points {
		p := &points[k]
		if err := json.Unmarshal(lines[k+1], p); err != nil {
			return nil, err
		}
		if p.Type != "point" || p.Code != k {
			return nil, fmt.Errorf("line %d: type %q code %d", k+1, p.Type, p.Code)
		}
		if p.Gain > peak.Gain {
			peak = *p
		}
	}
	var sum exploreSummary
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
		return nil, err
	}
	if sum.Type != "summary" || sum.Peak.Code != peak.Code || sum.Peak.Gain != peak.Gain {
		return nil, errors.New("summary peak is not the highest-gain point")
	}
	return points, nil
}
