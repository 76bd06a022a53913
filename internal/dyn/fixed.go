package dyn

import (
	"context"
	"fmt"
	"math"

	"ooc/internal/netlist"
	"ooc/internal/obs"
)

// Plan is a fixed flow field for RunFixed: the channel flows a design
// was planned for, with every source at its nominal flow.
type Plan struct {
	// Flows holds each channel's flow [m³/s] in netlist channel order.
	Flows []float64
	// Duration is the simulated time span [s].
	Duration float64
	// SampleEvery is the output cadence [s]: a sample is recorded at
	// the first step on or after each multiple of it, and at the end.
	SampleEvery float64
	// Bolus is an amount [mol] placed in the first cell of
	// BolusChannel at t = 0.
	Bolus        float64
	BolusChannel netlist.ChannelID
}

// Exposure summarizes one species probe over a RunFixed run. The
// channel metrics describe the probe channel's mean concentration; the
// tissue metrics describe its tissue compartment, or mirror the channel
// when it has none.
type Exposure struct {
	// Peak is the highest concentration [mol/m³] and PeakTime when it
	// was first reached [s].
	Peak, PeakTime float64
	// AUC is the area under the concentration–time curve [mol·s/m³].
	AUC float64
	// Final is the concentration at the end of the run.
	Final float64

	TissuePeak, TissueAUC, TissueFinal float64
}

// RunFixed advances only the species over the plan's fixed flow field,
// with no pressure state or solve. It shares the cell layout, the
// species step and the mass ledger with Run and steps uniformly at the
// species stability bound; sources need constant profiles. The result
// carries the species series, the ledger, FinalConcentrations and one
// Exposure per probe. Like Run, it consults ctx every step and returns
// the partial result with the context's error on cancellation.
func (s *System) RunFixed(ctx context.Context, plan Plan, probes []netlist.ChannelID) (*Result, error) {
	if err := s.checkPlan(plan, probes); err != nil {
		return nil, err
	}
	scratch := s.newScratch()
	st := &scratch
	copy(st.q, plan.Flows)
	bound := s.cflLimit(st.q)
	if math.IsInf(bound, 1) {
		return nil, fmt.Errorf("dyn: fixed-flow plan moves nothing")
	}
	steps := int(math.Ceil(plan.Duration / bound))
	dt := plan.Duration / float64(steps)

	nSamples := numSamples(plan.Duration, plan.SampleEvery) + 1
	res := &Result{
		Series: Series{
			Times:   make([]float64, 0, nSamples),
			Species: newProbeSeries(len(probes), nSamples),
		},
		FinalConcentrations: make([]float64, len(probes)),
		Exposures:           make([]Exposure, len(probes)),
		Injected:            plan.Bolus,
	}
	defer func() { obs.FromContext(ctx).Add("dyn.steps", int64(res.Steps)) }()

	conc := make([]float64, s.nCells)
	bc := int(plan.BolusChannel)
	conc[s.cellStart[bc]] = plan.Bolus / s.cellVol[bc]

	s.expose(res, probes, 0, 0, conc)
	nextSample := 0
	for k := 0; k < steps; k++ {
		t := float64(k) * dt
		if t >= float64(nextSample)*plan.SampleEvery-1e-12 {
			s.record(res, probes, t, conc)
			nextSample = int(t/plan.SampleEvery+1e-9) + 1
		}
		if err := ctx.Err(); err != nil {
			res.SimulatedTime = t
			return res, fmt.Errorf("dyn: cancelled at t=%.6g s after %d steps: %w", t, res.Steps, err)
		}
		s.advect(res, t, dt, conc, st)
		res.Steps++
		s.expose(res, probes, float64(k+1)*dt, dt, conc)
	}
	res.SimulatedTime = plan.Duration
	s.record(res, probes, plan.Duration, conc)
	s.closeLedger(res, conc, probes)
	return res, nil
}

// checkPlan rejects a plan RunFixed cannot honour.
func (s *System) checkPlan(plan Plan, probes []netlist.ChannelID) error {
	nc := len(s.chCond)
	if !s.species.Enabled {
		return fmt.Errorf("dyn: fixed-flow run needs species transport enabled")
	}
	for i, p := range s.profiles {
		if p.Kind != ProfileConstant {
			return fmt.Errorf("dyn: fixed-flow run needs constant pumps, source %q is %s", s.net.Source(i).Name, p)
		}
	}
	if len(plan.Flows) != nc {
		return fmt.Errorf("dyn: %d planned flows for %d channels", len(plan.Flows), nc)
	}
	if err := checkSpan(plan.Duration, plan.SampleEvery); err != nil {
		return err
	}
	if !nonNegative(plan.Bolus) {
		return fmt.Errorf("dyn: bolus must be non-negative and finite, got %g mol", plan.Bolus)
	}
	if plan.BolusChannel < 0 || int(plan.BolusChannel) >= nc {
		return fmt.Errorf("dyn: bolus channel %d out of range", plan.BolusChannel)
	}
	return s.checkProbes(Probes{Species: probes})
}

// record appends the sample time and every species probe's mean
// concentration.
func (s *System) record(res *Result, probes []netlist.ChannelID, t float64, conc []float64) {
	res.Series.Times = append(res.Series.Times, t)
	for i, id := range probes {
		res.Series.Species[i] = append(res.Series.Species[i], s.meanConc(int(id), conc))
	}
}

// expose folds the state at time t, reached by a step of length dt,
// into each probe's exposure: peaks, right-endpoint AUC sums and finals.
func (s *System) expose(res *Result, probes []netlist.ChannelID, t, dt float64, conc []float64) {
	for i, id := range probes {
		e := &res.Exposures[i]
		c := s.meanConc(int(id), conc)
		tc := c
		if s.kin != nil && s.tissue[id] >= 0 {
			tc = conc[s.tissue[id]]
		}
		if c > e.Peak {
			e.Peak, e.PeakTime = c, t
		}
		if tc > e.TissuePeak {
			e.TissuePeak = tc
		}
		e.AUC += c * dt
		e.TissueAUC += tc * dt
		e.Final, e.TissueFinal = c, tc
	}
}
