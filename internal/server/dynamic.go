package server

// Dynamic-model plumbing for POST /v1/validate?model=dynamic: query
// parameters for the transient tier, the duration-vs-budget admission
// gate, and the time-series renderings.

import (
	"fmt"
	"net/url"
	"time"

	"ooc/internal/dyn"
	"ooc/internal/report"
	"ooc/internal/sim"
)

// dynStepCost is the per-step wall-clock estimate behind the admission
// gate. A step attempt factors two dense step matrices once each and
// solves against them three times; on the cheapest chip (male_simple, 15 nodes, an
// undosed constant-pump run) one Duration/MaxStep step costs ≈2.6 µs
// on a 2-vCPU Xeon host, and larger chips cost more (≈21 µs for the
// 35-node generic4). The constant is about half the cheapest figure,
// so it stays a lower bound on slower hosts: the gate rejects only
// requests that cannot possibly finish; anything it admits still runs
// under the deadline and surfaces a 504 if the estimate was optimistic.
const dynStepCost = 1300 * time.Nanosecond

// dynamicQueryKeys are the /v1/validate query parameters that only
// mean something under ?model=dynamic.
var dynamicQueryKeys = []string{"duration", "profile", "dose"}

// parseDynamicQuery overlays ?duration=, ?profile=, and ?dose= onto
// the default transient options and validates the result, so a bad
// value (NaN and ±Inf included) is a 400 before any cache lookup or
// solve. ?dose= enables species transport: the inlet is dosed at that
// concentration for the whole run and arrivals latch at 10% of the
// dose.
func parseDynamicQuery(q url.Values, o *sim.DynamicOptions) error {
	if raw := q.Get("duration"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			return fmt.Errorf("invalid duration %q (want a positive duration like 2s)", raw)
		}
		o.Duration = d
	}
	if raw := q.Get("profile"); raw != "" {
		p, err := dyn.ParseProfile(raw)
		if err != nil {
			return err
		}
		o.Profile = p
	}
	if raw := q.Get("dose"); raw != "" {
		var conc float64
		if _, err := fmt.Sscanf(raw, "%g", &conc); err != nil || conc <= 0 {
			return fmt.Errorf("invalid dose %q (want a positive concentration like 1.0)", raw)
		}
		o.Species = dyn.InletDose(conc, o.Duration.Seconds())
	}
	return o.Validate()
}

// rejectDynamicQuery reports the first transient-only parameter used
// with a steady-state model, so a typo'd model never silently ignores
// half the request.
func rejectDynamicQuery(q url.Values, model sim.Model) error {
	for _, k := range dynamicQueryKeys {
		if q.Get(k) != "" {
			return fmt.Errorf("?%s= is only valid with model=dynamic, not model=%s", k, model)
		}
	}
	return nil
}

// checkDynamicBudget rejects a transient request whose simulated span
// cannot fit the deadline budget: the integrator takes at least
// Duration/MaxStep steps, so a lower bound on the wall clock is known
// before any work happens. Failing fast here turns a doomed request
// into a 400 with advice instead of a 504 after the full budget burns.
func checkDynamicBudget(o sim.DynamicOptions, budget time.Duration) error {
	minSteps := int64(o.Duration / o.MaxStep)
	est := time.Duration(minSteps) * dynStepCost
	if est > budget {
		return fmt.Errorf("dynamic duration %s needs at least ~%s of wall clock (≥%d steps), over the %s deadline budget; shorten ?duration= or raise ?timeout=",
			o.Duration, est.Round(time.Millisecond), minSteps, budget)
	}
	return nil
}

// dynamicResult is the JSON form of a transient validation: the
// steady-style final-state report plus the sampled series and the
// stepper telemetry.
type dynamicResult struct {
	validateResult
	ModuleNames         []string    `json:"module_names"`
	TimesS              []float64   `json:"times_s"`
	PumpScale           []float64   `json:"pump_scale"`
	PumpPressureSeries  []float64   `json:"pump_pressure_series_pa"`
	ModuleFlowsM3S      [][]float64 `json:"module_flows_m3s"`
	ModuleConcs         [][]float64 `json:"module_concs,omitempty"`
	ArrivalTimesS       []float64   `json:"arrival_times_s,omitempty"`
	FinalConcentrations []float64   `json:"final_concentrations,omitempty"`
	Steps               int         `json:"steps"`
	RejectedSteps       int         `json:"rejected_steps"`
	CFLLimitedSteps     int         `json:"cfl_limited_steps"`
	MassBalanceError    float64     `json:"mass_balance_error,omitempty"`
	SimulatedTimeS      float64     `json:"simulated_time_s"`
}

// renderDynamic renders a transient report in the requested form:
// JSON by default, the human-readable table for Accept: text/plain,
// the full undecimated series as CSV for Accept: text/csv.
func renderDynamic(dr *sim.DynamicReport, rendering string) (response, error) {
	switch rendering {
	case "text":
		return response{
			status:      200,
			contentType: "text/plain; charset=utf-8",
			body:        []byte(report.FormatDynamic(dr)),
		}, nil
	case "csv":
		return response{
			status:      200,
			contentType: "text/csv; charset=utf-8",
			body:        []byte(report.DynamicCSV(dr)),
		}, nil
	}
	out := dynamicResult{
		validateResult:      makeValidateResult(dr.Report, sim.ModelDynamic),
		ModuleNames:         dr.ModuleNames,
		TimesS:              dr.Times,
		PumpScale:           dr.PumpScale,
		PumpPressureSeries:  dr.PumpPressure,
		ModuleFlowsM3S:      dr.ModuleFlows,
		ModuleConcs:         dr.ModuleConcs,
		ArrivalTimesS:       dr.ArrivalTimes,
		FinalConcentrations: dr.FinalConcentrations,
		Steps:               dr.Steps,
		RejectedSteps:       dr.RejectedSteps,
		CFLLimitedSteps:     dr.CFLLimitedSteps,
		MassBalanceError:    dr.MassBalanceError,
		SimulatedTimeS:      dr.SimulatedTime,
	}
	return jsonBody(200, out), nil
}
