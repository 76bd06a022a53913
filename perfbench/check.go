package main

// Output checks. They run outside the timed interval, and every
// response is checked against the spec of the op that produced it, so
// a cache that served another key's body fails.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"ooc"
	"ooc/internal/core"
	"ooc/internal/optimize"
	"ooc/internal/sim"
	"ooc/internal/specio"
	"ooc/internal/units"
)

// Tolerances of the checks. KVL and KCL residuals are at rounding
// level in a correct design; flows and areas survive the JSON round
// trip up to the last bit or two.
const (
	kvlTol     = 1e-9
	kclTol     = 1e-9 // relative to the largest module flow
	roundTrip  = 1e-12
	massTol    = 1e-9
	simTimeTol = 1e-9
)

// check reports why result r is not a correct answer to op o, or nil.
// A reply compared on arrival with its serve_warm key's checked body
// must have matched it byte for byte.
func check(o op, r result) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d, want %d: %s", r.status, http.StatusOK, bytes.TrimSpace(r.body))
	}
	if r.compared {
		if !r.same {
			return fmt.Errorf("body differs from the key's checked response")
		}
		return nil
	}
	raw, err := specBytes(o)
	if err != nil {
		return err
	}
	spec, err := specio.Parse(raw)
	if err != nil {
		return fmt.Errorf("op spec: %w", err)
	}
	res, err := core.Derive(spec)
	if err != nil {
		return fmt.Errorf("op spec: %w", err)
	}
	switch o.kind {
	case opDesign:
		return checkDesign(spec, res, r.body)
	case opValidate, opValidateBudget, opTransient:
		return checkValidate(o.kind, spec, res, r)
	default:
		return checkSearch(spec, r.body)
	}
}

// near reports |a-b| <= tol·max(|a|, |b|).
func near(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// checkDesign: the body must reload as a design of this spec whose
// module flows are the derived ones and whose KVL residual is at
// rounding level.
func checkDesign(spec core.Spec, res *core.Resolved, body []byte) error {
	d, err := ooc.LoadDesignJSON(body)
	if err != nil {
		return fmt.Errorf("design does not reload: %w", err)
	}
	if d.Name != spec.Name {
		return fmt.Errorf("design %q for spec %q", d.Name, spec.Name)
	}
	if len(d.Modules) != len(res.Modules) {
		return fmt.Errorf("design has %d modules, spec %d", len(d.Modules), len(res.Modules))
	}
	for i, m := range d.Modules {
		if !near(m.FlowRate.CubicMetresPerSecond(), res.Modules[i].FlowRate.CubicMetresPerSecond(), roundTrip) {
			return fmt.Errorf("module %s flow %g, derived %g", m.Name, m.FlowRate.CubicMetresPerSecond(), res.Modules[i].FlowRate.CubicMetresPerSecond())
		}
	}
	if kvl := d.KVLResidual(); !(kvl <= kvlTol) {
		return fmt.Errorf("KVL residual %g", kvl)
	}
	return nil
}

// validateBody is the part of a /v1/validate reply the checks read;
// the dynamic reply embeds the same fields.
type validateBody struct {
	Name    string `json:"name"`
	Model   string `json:"model"`
	Modules []struct {
		Name        string  `json:"name"`
		SpecFlowM3S float64 `json:"spec_flow_m3s"`
	} `json:"modules"`
	MaxFlowDeviation float64 `json:"max_flow_deviation"`
	MaxPerfDeviation float64 `json:"max_perf_deviation"`
	KCLResidualM3S   float64 `json:"kcl_residual_m3s"`
	ErrorBudget      float64 `json:"error_budget"`
	ModelSelected    string  `json:"model_selected"`
	MassBalanceError float64 `json:"mass_balance_error"`
	SimulatedTimeS   float64 `json:"simulated_time_s"`
	Steps            int     `json:"steps"`
}

// checkValidate: the report must be this spec's (name and derived
// module flows), with KCL at rounding level. A budgeted report must
// name its rung, and its deviations must lie within the budget of the
// exact model's; a transient report must balance species mass and
// cover the whole simulated second.
func checkValidate(kind opKind, spec core.Spec, res *core.Resolved, r result) error {
	var v validateBody
	if err := json.Unmarshal(r.body, &v); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if v.Name != spec.Name {
		return fmt.Errorf("report %q for spec %q", v.Name, spec.Name)
	}
	if len(v.Modules) != len(res.Modules) {
		return fmt.Errorf("report has %d modules, spec %d", len(v.Modules), len(res.Modules))
	}
	scale := 0.0
	for i, m := range v.Modules {
		want := res.Modules[i].FlowRate.CubicMetresPerSecond()
		if m.Name != res.Modules[i].Name || !near(m.SpecFlowM3S, want, roundTrip) {
			return fmt.Errorf("module %s spec flow %g, derived %s %g", m.Name, m.SpecFlowM3S, res.Modules[i].Name, want)
		}
		scale = math.Max(scale, want)
	}
	// A transient report's final state is mid-pulse, where the node
	// compliances still store flow: KCL holds only at steady state.
	if kind != opTransient && !(math.Abs(v.KCLResidualM3S) <= kclTol*scale) {
		return fmt.Errorf("KCL residual %g m³/s", v.KCLResidualM3S)
	}
	switch kind {
	case opValidate:
		if v.Model != sim.ModelExact.String() {
			return fmt.Errorf("model %q, want exact", v.Model)
		}
	case opValidateBudget:
		return checkBudget(spec, v, r.selected)
	case opTransient:
		if !(v.MassBalanceError < massTol) {
			return fmt.Errorf("mass balance error %g", v.MassBalanceError)
		}
		if v.Steps <= 0 || !near(v.SimulatedTimeS, 1, simTimeTol) {
			return fmt.Errorf("%d steps over %g s, want 1 s", v.Steps, v.SimulatedTimeS)
		}
	}
	return nil
}

// checkBudget compares a budgeted report with an exact validation of
// the same spec, run here off the clock.
func checkBudget(spec core.Spec, v validateBody, header string) error {
	if v.ModelSelected == "" || v.ModelSelected != header {
		return fmt.Errorf("model_selected %q, header %q", v.ModelSelected, header)
	}
	if !near(v.ErrorBudget, errorBudget, roundTrip) {
		return fmt.Errorf("error_budget %g, want %g", v.ErrorBudget, errorBudget)
	}
	d, err := core.GenerateContext(context.Background(), spec)
	if err != nil {
		return fmt.Errorf("reference design: %w", err)
	}
	ref, err := sim.ValidateContext(context.Background(), d, sim.DefaultOptions())
	if err != nil {
		return fmt.Errorf("reference validation: %w", err)
	}
	if df, dp := math.Abs(v.MaxFlowDeviation-ref.MaxFlowDeviation), math.Abs(v.MaxPerfDeviation-ref.MaxPerfDeviation); df > errorBudget || dp > errorBudget {
		return fmt.Errorf("%s deviations differ from exact by %g (flow) and %g (perfusion), budget %g", v.ModelSelected, df, dp, errorBudget)
	}
	return nil
}

// jobBodyStatus is the part of a terminal job status the checks read.
type jobBodyStatus struct {
	State string `json:"state"`
	Best  *struct {
		ChannelHeightUm float64  `json:"channel_height_um"`
		MinGapMm        float64  `json:"min_gap_mm"`
		Feasible        bool     `json:"feasible"`
		Score           *float64 `json:"score"`
	} `json:"best"`
	BestGeometry *struct {
		MaxFlowDeviation float64 `json:"max_flow_deviation"`
	} `json:"best_geometry"`
}

// checkSearch: the job must succeed with a feasible best whose score
// is the chip area of this spec at the winning geometry.
func checkSearch(spec core.Spec, body []byte) error {
	var st jobBodyStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("job status: %w", err)
	}
	if st.State != "succeeded" || st.Best == nil || !st.Best.Feasible || st.Best.Score == nil || st.BestGeometry == nil {
		return fmt.Errorf("job ended %q without a feasible best", st.State)
	}
	if limit := optimize.DefaultConstraints().MaxFlowDeviation; st.BestGeometry.MaxFlowDeviation > limit {
		return fmt.Errorf("best flow deviation %g over %g", st.BestGeometry.MaxFlowDeviation, limit)
	}
	// The default axes hold whole micrometres and half millimetres.
	// Snapping to them rebuilds the candidate's geometry bit for bit:
	// the µm round trip alone can move the height by an ulp, and the
	// designer's meander decisions are that sensitive.
	s := spec
	s.Geometry.ChannelHeight = units.Micrometres(math.Round(st.Best.ChannelHeightUm))
	s.Geometry.MinGap = units.Millimetres(math.Round(2*st.Best.MinGapMm) / 2)
	d, err := core.GenerateContext(context.Background(), s)
	if err != nil {
		return fmt.Errorf("best geometry: %w", err)
	}
	if area := d.Bounds.Width() * d.Bounds.Height(); !near(area, *st.Best.Score, roundTrip) {
		return fmt.Errorf("best score %g, chip area at that geometry %g", *st.Best.Score, area)
	}
	return nil
}
