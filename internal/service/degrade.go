package service

import (
	"context"
	"fmt"
	"net/http"

	hypar "repro"
	"repro/internal/runner"
)

// degradeStrategyJSON is one strategy's healthy-vs-degraded outcome
// inside /v1/degrade.
type degradeStrategyJSON struct {
	HealthyStepSeconds  float64 `json:"healthyStepSeconds"`
	DegradedStepSeconds float64 `json:"degradedStepSeconds"`
	// Slowdown is degraded/healthy step time: 1.0 means the fault cost
	// nothing, 2.0 means the degraded array trains at half speed.
	Slowdown float64 `json:"slowdown"`
}

// degradeResponse answers /v1/degrade.
type degradeResponse struct {
	Model          string       `json:"model"`
	Config         hypar.Config `json:"config"`
	Faults         hypar.Faults `json:"faults"`
	Accelerators   int          `json:"accelerators"`
	Survivors      int          `json:"survivors"`
	DegradedLevels int          `json:"degradedLevels"`
	// DegradedGroups is non-zero when HyPar's degraded evaluation ran as
	// group-level data parallelism across a non-power-of-two survivor
	// set (e.g. fault 1:1 leaves 3 intact groups): the surviving group
	// count the batch was split across. Zero means the aligned
	// sub-array plan won (or the survivor count was a power of two).
	DegradedGroups int `json:"degradedGroups,omitempty"`
	// UsedAccelerators is how many surviving accelerators HyPar's
	// replanned step actually engages: groups x group width under the
	// grouped candidate, the aligned sub-array size (2^degradedLevels)
	// otherwise.
	UsedAccelerators int                            `json:"usedAccelerators"`
	Strategies       map[string]degradeStrategyJSON `json:"strategies"`
	// DegradedPlan is HyPar's replanned partition over the surviving
	// sub-array — one group's partition when degradedGroups is set.
	DegradedPlan planJSON `json:"degradedPlan"`
}

// handleDegrade answers POST /v1/degrade: the common request envelope
// with a config that names a fault spec, evaluated twice — once healthy
// (faults cleared) and once degraded — for every strategy, reporting
// the per-strategy slowdown and HyPar's replanned partition over the
// surviving sub-array. The fault spec is required: without one there is
// nothing to degrade, and the request is rejected rather than silently
// collapsing into /v1/compare.
func (s *Server) handleDegrade(w http.ResponseWriter, r *http.Request) error {
	return s.serveBody(w, r, "degrade", false, func(p *parsed) error {
		if p.res.Config().Faults.IsZero() {
			return badRequest(fmt.Errorf(`%w: /v1/degrade needs a fault spec (config "faults", e.g. {"level":1,"groups":2}); use /v1/compare for healthy arrays`, ErrService))
		}
		return nil
	}, s.computeDegrade)
}

// degradeUnit is one (config, strategy) evaluation of the healthy ×
// degraded fan-out.
type degradeUnit struct {
	res      *hypar.Resolved
	strategy hypar.Strategy
}

// computeDegrade renders the /v1/degrade response for a resolved
// request.
func (s *Server) computeDegrade(ctx context.Context, p *parsed) (response, error) {
	healthy := p.res.Healthy()
	units := make([]degradeUnit, 0, 2*len(hypar.Strategies))
	for _, st := range hypar.Strategies {
		units = append(units, degradeUnit{res: healthy, strategy: st})
		units = append(units, degradeUnit{res: p.res, strategy: st})
	}
	results, err := runner.MapCtx(ctx, s.pool, units,
		func(_ int, u degradeUnit) (*hypar.Result, error) {
			res, err := s.runShared(ctx, p.model, u.strategy, u.res)
			if err != nil {
				side := "degraded"
				if u.res == healthy {
					side = "healthy"
				}
				return nil, computeErr(fmt.Errorf("%s strategy %v: %w", side, u.strategy, err))
			}
			return res, nil
		})
	if err != nil {
		return response{}, err
	}

	cfg := p.res.Config()
	resp := degradeResponse{
		Model:          p.model.Name,
		Config:         cfg,
		Faults:         cfg.Faults,
		Accelerators:   1 << uint(cfg.Levels),
		Survivors:      cfg.SurvivingAccelerators(),
		DegradedLevels: cfg.EffectiveLevels(),
		Strategies:     make(map[string]degradeStrategyJSON, len(hypar.Strategies)),
	}
	for i, st := range hypar.Strategies {
		h, d := results[2*i], results[2*i+1]
		entry := degradeStrategyJSON{
			HealthyStepSeconds:  h.Stats.StepSeconds,
			DegradedStepSeconds: d.Stats.StepSeconds,
		}
		if h.Stats.StepSeconds > 0 {
			entry.Slowdown = d.Stats.StepSeconds / h.Stats.StepSeconds
		}
		resp.Strategies[st.String()] = entry
		if st == hypar.HyPar {
			resp.DegradedGroups = d.DegradedGroups
			resp.UsedAccelerators = d.Plan.NumAccelerators()
			if d.DegradedGroups > 0 {
				resp.UsedAccelerators *= d.DegradedGroups
			}
			resp.DegradedPlan = planToJSON(d.Plan, p.model, p.res.DType())
		}
	}
	return jsonResponse(resp)
}
