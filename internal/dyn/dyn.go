// Package dyn is the transient tier of the model ladder: it evolves a
// lumped channel network (internal/netlist) through time instead of
// solving its steady state.
//
// Physics: every node carries a hydraulic capacitance C_i (channel and
// tubing compliance lumped to the endpoints), so pressures obey
//
//	C_i · dp_i/dt = Σ inflow_i(p, t)
//
// with channel flows q_c = (p_from − p_to)/R_c and pump flows scaled by
// a per-source time profile (constant / ramp / pulsatile). Dissolved
// species ride on the resulting flow field: each channel is a short
// chain of well-mixed cells advected with first-order upwind
// differencing, which handles flow reversal and yields organ-to-organ
// transport delays. Per-channel Kinetics add dispersion, clearance,
// secretion and membrane-bound tissue; RunFixed runs the same species
// step over a fixed flow plan without the pressure solve.
//
// Numerics: pressures advance by backward (implicit) Euler with
// step-doubling error control (one full step vs two half steps; the
// halved result is committed). The pressure subsystem is linear but
// stiff — node time constants R·C span from microseconds at the short,
// wide module channels to milliseconds on the supply lines — so an
// explicit update would need ~10⁶ steps per simulated second and ring
// at the stability boundary; backward Euler damps the fast modes
// unconditionally and lets accuracy, not stability, set the step.
// The channel conductance matrix G is fixed for the whole run, so
// Compile stamps it once; each step attempt adds the C/dt diagonal to
// a per-run copy of G and factors C/dt + G and 2C/dt + G once each in
// per-run storage, both half steps sharing the second factorization,
// so a step allocates nothing.
// Species advection stays explicit first-order upwind and bounds the
// step by the CFL condition dt ≤ ½·min(V_cell/|q|), so cell
// concentrations can never go negative. The stepper is strictly serial
// — bit-identical output regardless of how many workers the
// surrounding evaluation uses — and it consults ctx every step, so
// cancellation returns a partial series promptly rather than
// truncating silently.
package dyn

import (
	"context"
	"fmt"
	"math"

	"ooc/internal/linalg"
	"ooc/internal/netlist"
	"ooc/internal/obs"
	"ooc/internal/units"
)

// Species configures dissolved-species transport. The zero value
// (Enabled false) disables transport entirely.
type Species struct {
	// Enabled switches species advection on.
	Enabled bool
	// DoseConcentration is the inlet concentration [mol/m³] during the
	// dosing window.
	DoseConcentration float64
	// DoseStart is when dosing begins [s].
	DoseStart float64
	// DoseDuration is how long dosing lasts [s].
	DoseDuration float64
	// ArrivalThreshold is the fraction of DoseConcentration at which a
	// probed channel counts as "reached" for arrival-time reporting,
	// in (0, 1).
	ArrivalThreshold float64
}

// InletDose is species transport dosed at the inlet at conc [mol/m³]
// from t = 0 for duration seconds, with arrivals latched at 10 % of
// the dose.
func InletDose(conc, duration float64) Species {
	return Species{Enabled: true, DoseConcentration: conc, DoseDuration: duration, ArrivalThreshold: 0.1}
}

// Validate checks the species parameters (only when Enabled). NaN and
// ±Inf are rejected everywhere. A zero dose is valid: the species then
// enters only through channel kinetics or a RunFixed bolus.
func (s Species) Validate() error {
	if !s.Enabled {
		return nil
	}
	if !nonNegative(s.DoseConcentration) {
		return fmt.Errorf("dyn: dose concentration must be non-negative and finite, got %g", s.DoseConcentration)
	}
	if !nonNegative(s.DoseStart) {
		return fmt.Errorf("dyn: dose start must be non-negative and finite, got %g s", s.DoseStart)
	}
	if !positive(s.DoseDuration) {
		return fmt.Errorf("dyn: dose duration must be positive and finite, got %g s", s.DoseDuration)
	}
	if !(s.ArrivalThreshold > 0 && s.ArrivalThreshold < 1) {
		return fmt.Errorf("dyn: arrival threshold %g outside (0, 1)", s.ArrivalThreshold)
	}
	return nil
}

// positive reports whether x is finite and above zero. A bare x <= 0
// rejection lets NaN and +Inf through.
func positive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// nonNegative reports whether x is finite and at least zero.
func nonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// maxSamples bounds the recorded series length so a pathological
// Duration/SampleEvery ratio cannot exhaust memory: the series is
// O(samples), never O(steps).
const maxSamples = 65536

// Config holds the stepper controls. All times are in seconds.
// Construct via DefaultConfig and override; Validate treats
// non-positive fields as errors, never as silent defaults.
type Config struct {
	// Duration is the simulated time span [s].
	Duration float64
	// MaxStep caps the adaptive step [s].
	MaxStep float64
	// SampleEvery is the output cadence [s]; the series holds
	// Duration/SampleEvery + 1 samples.
	SampleEvery float64
	// StepTol is the relative per-step pressure error the step-doubling
	// controller accepts.
	StepTol float64
}

// DefaultConfig returns the stepper defaults: a 10 s span sampled
// every 50 ms, steps capped at 10 ms, 1e-3 relative step tolerance.
func DefaultConfig() Config {
	return Config{Duration: 10, MaxStep: 0.01, SampleEvery: 0.05, StepTol: 1e-3}
}

// Validate rejects unset, non-positive or non-finite controls.
func (c Config) Validate() error {
	if !positive(c.MaxStep) {
		return fmt.Errorf("dyn: max step must be positive and finite, got %g s (start from DefaultConfig)", c.MaxStep)
	}
	if !positive(c.StepTol) {
		return fmt.Errorf("dyn: step tolerance must be positive and finite, got %g (start from DefaultConfig)", c.StepTol)
	}
	return checkSpan(c.Duration, c.SampleEvery)
}

// checkSpan rejects a simulated span or output cadence that is not
// positive and finite, or whose series would exceed maxSamples.
func checkSpan(duration, sampleEvery float64) error {
	if !positive(duration) {
		return fmt.Errorf("dyn: duration must be positive and finite, got %g s", duration)
	}
	if !positive(sampleEvery) {
		return fmt.Errorf("dyn: sample cadence must be positive and finite, got %g s", sampleEvery)
	}
	if n := numSamples(duration, sampleEvery); n > maxSamples {
		return fmt.Errorf("dyn: %g s at one sample per %g s needs %d samples, above the %d cap — coarsen SampleEvery", duration, sampleEvery, n, maxSamples)
	}
	return nil
}

// numSamples is the series length: one sample at t=0 plus one per
// whole cadence interval that fits in duration.
func numSamples(duration, sampleEvery float64) int {
	return int(math.Floor(duration/sampleEvery+1e-9)) + 1
}

// ChannelProps carries the per-channel data the transient tier needs
// beyond the netlist's resistance: the liquid volume (which sets
// advection residence time), how many well-mixed cells to split the
// channel into (more cells → sharper concentration fronts) and the
// species kinetics.
type ChannelProps struct {
	// Volume is the channel's liquid volume [m³].
	Volume float64
	// Cells is the number of well-mixed advection cells, ≥ 1.
	Cells int
	// Kinetics is inert at its zero value.
	Kinetics Kinetics
}

// Kinetics are a channel's species terms beyond advection. Both drivers
// apply them in the shared species step, explicitly at the pre-step
// state, and the step bound covers their rates. Compile rejects any
// term that could not act, so a kinetics setting is never a no-op.
type Kinetics struct {
	// Dispersion is the axial exchange conductance [m³/s] between
	// adjacent cells, D_eff·A/Δx; it needs at least two cells.
	Dispersion float64
	// Clearance is a first-order elimination rate [1/s] and Secretion a
	// zeroth-order source [mol/s]. They act on the tissue compartment
	// when there is one, else on the channel's single cell.
	Clearance float64
	Secretion float64
	// TissueVolume [m³], when positive, adds a tissue compartment
	// behind a membrane of conductance Membrane [m³/s] (permeability ×
	// area), exchanging Membrane·(c_cell − c_tissue) with the channel's
	// single cell. The two are set together.
	TissueVolume float64
	Membrane     float64
}

// check validates the kinetics of a channel split into cells cells.
func (k Kinetics) check(cells int) error {
	switch {
	case !(nonNegative(k.Dispersion) && nonNegative(k.Clearance) && nonNegative(k.Secretion) &&
		nonNegative(k.TissueVolume) && nonNegative(k.Membrane)):
		return fmt.Errorf("kinetic rates must be non-negative and finite, got %+v", k)
	case k.Dispersion > 0 && cells < 2:
		return fmt.Errorf("dispersion needs at least two cells, got %d", cells)
	case (k.Clearance > 0 || k.Secretion > 0 || k.TissueVolume > 0) && cells != 1:
		return fmt.Errorf("clearance, secretion and tissue need a single well-mixed cell, got %d", cells)
	case (k.TissueVolume > 0) != (k.Membrane > 0):
		return fmt.Errorf("a tissue compartment needs both a volume and a membrane, got %g m³ and %g m³/s", k.TissueVolume, k.Membrane)
	}
	return nil
}

// Probes selects what the time series records. Node and channel probes
// sample pressure and flow; species probes sample the volume-weighted
// mean concentration of a channel's cells and its arrival time.
type Probes struct {
	Nodes    []netlist.NodeID
	Channels []netlist.ChannelID
	Species  []netlist.ChannelID
}

// System is a compiled transient model: the netlist flattened into
// index-addressed slices so the stepper's hot loop is map-free and
// allocation-free. Build with Compile.
type System struct {
	net      *netlist.Network
	cap      []float64 // per-node hydraulic capacitance [m³/Pa]
	profiles []Profile // per-source, in netlist source order
	species  Species

	chFrom, chTo []int
	chCond       []float64      // 1/R per channel
	lap          *linalg.Matrix // channel conductance Laplacian G

	srcFrom, srcTo []int // netlist.External stays -1
	srcFlow        []float64

	cellStart []int     // per-channel offset into the cell array
	cellCount []int     // per-channel cell count
	cellVol   []float64 // per-channel volume of one cell
	nCells    int       // channel cells plus tissue compartments

	kin    []Kinetics // per channel; nil when every channel is inert
	tissue []int      // per channel: its tissue compartment's cell index, or -1
}

// Compile flattens a solved-topology network into a transient system.
// nodeCap gives each node's hydraulic capacitance [m³/Pa]; props gives
// each channel's volume and cell count; profiles gives each flow
// source's drive shape, indexed in netlist source order. The system is
// driven by flow sources only, so a network with a pressure source is
// an error.
func Compile(net *netlist.Network, nodeCap []float64, props []ChannelProps, profiles []Profile, sp Species) (*System, error) {
	nn, nc, ns := net.NumNodes(), net.NumChannels(), net.NumSources()
	if nn == 0 {
		return nil, fmt.Errorf("dyn: empty network")
	}
	if net.NumPressureSources() > 0 {
		return nil, fmt.Errorf("dyn: pressure source %q: the transient model drives flow sources only", net.PressureSource(0).Name)
	}
	if len(nodeCap) != nn {
		return nil, fmt.Errorf("dyn: %d node capacitances for %d nodes", len(nodeCap), nn)
	}
	for i, c := range nodeCap {
		if !positive(c) {
			return nil, fmt.Errorf("dyn: node %q needs positive capacitance, got %g", net.NodeName(netlist.NodeID(i)), c)
		}
	}
	if len(props) != nc {
		return nil, fmt.Errorf("dyn: %d channel property records for %d channels", len(props), nc)
	}
	if len(profiles) != ns {
		return nil, fmt.Errorf("dyn: %d pump profiles for %d sources", len(profiles), ns)
	}
	for i, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("dyn: source %q: %w", net.Source(i).Name, err)
		}
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	lap, err := linalg.NewMatrix(nn, nn)
	if err != nil {
		return nil, fmt.Errorf("dyn: assembling %d-node step system: %w", nn, err)
	}
	net.StampConductance(lap)

	s := &System{
		net:      net,
		cap:      append([]float64(nil), nodeCap...),
		profiles: append([]Profile(nil), profiles...),
		species:  sp,
		chFrom:   make([]int, nc),
		chTo:     make([]int, nc),
		chCond:   make([]float64, nc),
		lap:      lap,
		srcFrom:  make([]int, ns),
		srcTo:    make([]int, ns),
		srcFlow:  make([]float64, ns),
	}
	for i := 0; i < nc; i++ {
		ch := net.Channel(netlist.ChannelID(i))
		s.chFrom[i], s.chTo[i] = int(ch.From), int(ch.To)
		s.chCond[i] = 1 / float64(ch.Resistance)
	}
	for i := 0; i < ns; i++ {
		src := net.Source(i)
		s.srcFrom[i], s.srcTo[i] = int(src.From), int(src.To)
		s.srcFlow[i] = float64(src.Flow)
	}
	if sp.Enabled {
		s.cellStart = make([]int, nc)
		s.cellCount = make([]int, nc)
		s.cellVol = make([]float64, nc)
		for i := 0; i < nc; i++ {
			pr := props[i]
			name := net.Channel(netlist.ChannelID(i)).Name
			if pr.Volume <= 0 {
				return nil, fmt.Errorf("dyn: channel %q needs positive volume for species transport, got %g", name, pr.Volume)
			}
			if pr.Cells < 1 {
				return nil, fmt.Errorf("dyn: channel %q needs at least one advection cell, got %d", name, pr.Cells)
			}
			s.cellStart[i] = s.nCells
			s.cellCount[i] = pr.Cells
			s.cellVol[i] = pr.Volume / float64(pr.Cells)
			s.nCells += pr.Cells
		}
	}
	for i, pr := range props {
		if pr.Kinetics == (Kinetics{}) {
			continue
		}
		name := net.Channel(netlist.ChannelID(i)).Name
		if !sp.Enabled {
			return nil, fmt.Errorf("dyn: channel %q has kinetics but species transport is disabled", name)
		}
		if err := pr.Kinetics.check(pr.Cells); err != nil {
			return nil, fmt.Errorf("dyn: channel %q: %w", name, err)
		}
		if s.kin == nil {
			s.kin = make([]Kinetics, nc)
			s.tissue = make([]int, nc)
			for c := range s.tissue {
				s.tissue[c] = -1
			}
		}
		s.kin[i] = pr.Kinetics
		if pr.Kinetics.TissueVolume > 0 {
			s.tissue[i] = s.nCells
			s.nCells++
		}
	}
	return s, nil
}

// Series is the sampled time series. The outer index of each probe
// slice is the probe; the inner index is the sample. When a run is
// cancelled mid-integration the slices are truncated to the samples
// actually recorded.
type Series struct {
	Times     []float64 // [s]
	PumpScale []float64 // profile scale of source 0 (1 if no sources)
	Nodes     [][]float64
	Channels  [][]float64
	Species   [][]float64
}

// Result holds the full outcome of a transient run. FinalPressures and
// FinalFlows cover every node and channel (not just probes), so Result
// doubles as a steady-flow solution via its Flow/Pressure methods.
type Result struct {
	Series Series

	Steps           int
	RejectedSteps   int
	CFLLimitedSteps int

	FinalPressures      []float64 // per node [Pa]
	FinalFlows          []float64 // per channel [m³/s]
	FinalConcentrations []float64 // per species probe [mol/m³]
	// ArrivalTimes records, per species probe, when the channel's mean
	// concentration first reached the arrival threshold; −1 if never
	// (NaN would not survive JSON encoding).
	ArrivalTimes []float64

	// Species mass ledger [mol]: Injected = Extracted + Eliminated +
	// Remaining + Stored up to rounding. Injected counts dosing and
	// secretion (and a RunFixed bolus), Eliminated is clearance, and
	// Stored is the mass parked in compliant nodes while pressures
	// change (∫ q_imbalance·c_node dt).
	Injected, Extracted, Eliminated, Remaining, Stored float64
	// MassBalanceError is the ledger defect relative to Injected.
	MassBalanceError float64
	// Exposures summarizes each species probe's history step by step;
	// only RunFixed fills it.
	Exposures []Exposure

	// SimulatedTime is how far the run got [s] — equals the configured
	// duration unless cancelled.
	SimulatedTime float64
	// FinalKCLResidual is the largest net node inflow |Σq| at the final
	// state — in the transient model this is the capacitor current
	// C·dp/dt, which decays to zero as the run reaches steady state.
	FinalKCLResidual float64
}

// Flow returns the final-state flow through a channel.
func (r *Result) Flow(id netlist.ChannelID) units.FlowRate {
	return units.FlowRate(r.FinalFlows[id])
}

// Pressure returns the final-state pressure at a node.
func (r *Result) Pressure(id netlist.NodeID) units.Pressure {
	return units.Pressure(r.FinalPressures[id])
}

// MaxKCLResidual returns the final-state node imbalance, letting
// Result satisfy the same self-check interface as netlist.Solution.
func (r *Result) MaxKCLResidual() units.FlowRate {
	return units.FlowRate(r.FinalKCLResidual)
}

// atolPressure regularizes the relative step-error estimate so the
// controller is not hypersensitive while pressures are still near zero
// during start-up. One pascal is far below any operating pressure here.
const atolPressure = 1.0

// minStepFraction guards the controller against step-size underflow:
// a step below Duration·minStepFraction is accepted regardless of the
// error estimate (and would indicate a pathologically stiff system).
const minStepFraction = 1e-12

// Run integrates the system over cfg.Duration from rest (zero gauge
// pressure, zero concentration everywhere).
//
// Cancellation: ctx is consulted every step. On cancellation Run
// returns the partial Result recorded so far alongside the context's
// error — callers distinguish a truncated series by err != nil, never
// by guessing from the series length.
func (s *System) Run(ctx context.Context, cfg Config, probes Probes) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := s.checkProbes(probes); err != nil {
		return nil, err
	}

	nn, nc := len(s.cap), len(s.chCond)
	nSamples := numSamples(cfg.Duration, cfg.SampleEvery)
	res := &Result{
		Series: Series{
			Times:     make([]float64, 0, nSamples),
			PumpScale: make([]float64, 0, nSamples),
			Nodes:     newProbeSeries(len(probes.Nodes), nSamples),
			Channels:  newProbeSeries(len(probes.Channels), nSamples),
			Species:   newProbeSeries(len(probes.Species), nSamples),
		},
		FinalPressures:      make([]float64, nn),
		FinalFlows:          make([]float64, nc),
		FinalConcentrations: make([]float64, len(probes.Species)),
		ArrivalTimes:        make([]float64, len(probes.Species)),
	}
	for i := range res.ArrivalTimes {
		res.ArrivalTimes[i] = -1
	}

	col := obs.FromContext(ctx)
	defer func() {
		col.Add("dyn.steps", int64(res.Steps))
		col.Add("dyn.steps_rejected", int64(res.RejectedSteps))
		col.Add("dyn.steps_cfl_limited", int64(res.CFLLimitedSteps))
	}()

	// State and scratch buffers — everything the loop touches is
	// allocated here once.
	p := make([]float64, nn)
	conc := make([]float64, s.nCells)
	scratch := s.newScratch()
	scratch.a = s.lap.Clone()
	st := &scratch

	t := 0.0
	s.sample(res, probes, t, p, conc, st)
	nextSample := 1

	dtCtrl := cfg.MaxStep
	minStep := cfg.Duration * minStepFraction
	for t < cfg.Duration {
		if err := ctx.Err(); err != nil {
			s.finalize(res, t, p, st)
			return res, fmt.Errorf("dyn: cancelled at t=%.6g s after %d steps: %w", t, res.Steps, err)
		}

		// Candidate step: controller, cap, CFL, then clip to the next
		// sample boundary / end of run so samples land exactly.
		dt := dtCtrl
		if dt > cfg.MaxStep {
			dt = cfg.MaxStep
		}
		cflBound := math.Inf(1)
		if s.species.Enabled {
			s.flows(p, st.q)
			cflBound = s.cflLimit(st.q)
		}
		cflLimited := false
		if cflBound < dt {
			dt = cflBound
			cflLimited = true
		}
		boundary := cfg.Duration
		if nextSample < nSamples {
			boundary = float64(nextSample) * cfg.SampleEvery
		}
		clipped := false
		if t+dt >= boundary {
			dt = boundary - t
			clipped = true
			cflLimited = false
		}

		// Step-doubling error estimate on the pressure state: one full
		// backward-Euler step vs two half steps; commit the halved
		// result.
		if err := s.stepPair(t, dt, p, st); err != nil {
			s.finalize(res, t, p, st)
			return res, err
		}
		var errMax, pScale float64
		for i := 0; i < nn; i++ {
			if a := math.Abs(st.pHalf[i]); a > pScale {
				pScale = a
			}
			if e := math.Abs(st.pFull[i] - st.pHalf[i]); e > errMax {
				errMax = e
			}
		}
		relErr := errMax / (pScale + atolPressure)
		if relErr > cfg.StepTol && dt > minStep {
			res.RejectedSteps++
			dtCtrl = dt / 2
			continue
		}

		// Accepted. Advect species with the start-of-step flow field,
		// then commit the pressures.
		if s.species.Enabled {
			s.flows(p, st.q)
			s.advect(res, t, dt, conc, st)
		}
		copy(p, st.pHalf)
		if clipped {
			t = boundary
		} else {
			t += dt
		}
		res.Steps++
		if cflLimited {
			res.CFLLimitedSteps++
		}
		if !clipped && !cflLimited && relErr <= cfg.StepTol/2 {
			dtCtrl = dt * 1.5
			if dtCtrl > cfg.MaxStep {
				dtCtrl = cfg.MaxStep
			}
		}

		if s.species.Enabled {
			s.checkArrivals(res, probes, t, conc)
		}
		if nextSample < nSamples && t >= float64(nextSample)*cfg.SampleEvery-1e-12 {
			s.sample(res, probes, t, p, conc, st)
			nextSample++
		}
	}

	s.finalize(res, t, p, st)
	if s.species.Enabled {
		s.closeLedger(res, conc, probes.Species)
	}
	return res, nil
}

// closeLedger books the mass left in the cells, the ledger defect and
// each species probe's final concentration.
func (s *System) closeLedger(res *Result, conc []float64, probes []netlist.ChannelID) {
	res.Remaining = 0
	for c := range s.cellCount {
		for j := 0; j < s.cellCount[c]; j++ {
			res.Remaining += conc[s.cellStart[c]+j] * s.cellVol[c]
		}
		if s.kin != nil && s.tissue[c] >= 0 {
			res.Remaining += conc[s.tissue[c]] * s.kin[c].TissueVolume
		}
	}
	defect := math.Abs(res.Injected - res.Extracted - res.Remaining - res.Stored - res.Eliminated)
	if res.Injected > 0 {
		res.MassBalanceError = defect / res.Injected
	}
	for i, id := range probes {
		res.FinalConcentrations[i] = s.meanConc(int(id), conc)
	}
}

// stepScratch holds the per-run work buffers so the stepper loop
// allocates nothing.
type stepScratch struct {
	a  *linalg.Matrix // step matrix C/dt + G; factor rewrites the diagonal
	lu linalg.LU      // factors of a

	q        []float64 // channel flows
	rhs      []float64 // backward-Euler right-hand side
	inflow   []float64 // net volumetric inflow per node
	pFull    []float64 // one full backward-Euler step
	pHalf    []float64 // two half steps (committed)
	nodeIn   []float64 // volumetric inflow rate per node
	nodeMass []float64 // species mass inflow rate per node
	nodeConc []float64 // resolved node concentration
	dc       []float64 // kinetic concentration change per cell over a step
}

// newScratch allocates the per-run vectors; Run adds the step matrix.
func (s *System) newScratch() stepScratch {
	nn, nc := len(s.cap), len(s.chCond)
	st := stepScratch{
		q:        make([]float64, nc),
		rhs:      make([]float64, nn),
		inflow:   make([]float64, nn),
		pFull:    make([]float64, nn),
		pHalf:    make([]float64, nn),
		nodeIn:   make([]float64, nn),
		nodeMass: make([]float64, nn),
		nodeConc: make([]float64, nn),
	}
	if s.kin != nil {
		st.dc = make([]float64, s.nCells)
	}
	return st
}

func newProbeSeries(probes, samples int) [][]float64 {
	out := make([][]float64, probes)
	for i := range out {
		out[i] = make([]float64, 0, samples)
	}
	return out
}

func (s *System) checkProbes(pr Probes) error {
	nn, nc := len(s.cap), len(s.chCond)
	for _, id := range pr.Nodes {
		if id < 0 || int(id) >= nn {
			return fmt.Errorf("dyn: node probe %d out of range", id)
		}
	}
	for _, id := range pr.Channels {
		if id < 0 || int(id) >= nc {
			return fmt.Errorf("dyn: channel probe %d out of range", id)
		}
	}
	if len(pr.Species) > 0 && !s.species.Enabled {
		return fmt.Errorf("dyn: species probes set but species transport is disabled")
	}
	for _, id := range pr.Species {
		if id < 0 || int(id) >= nc {
			return fmt.Errorf("dyn: species probe %d out of range", id)
		}
	}
	return nil
}

// flows fills q with the channel flows for pressure state p.
func (s *System) flows(p []float64, q []float64) {
	for c := range q {
		q[c] = (p[s.chFrom[c]] - p[s.chTo[c]]) * s.chCond[c]
	}
}

// sourceFlow returns source i's flow at time t (nominal × profile).
func (s *System) sourceFlow(i int, t float64) float64 {
	return s.srcFlow[i] * s.profiles[i].Scale(t)
}

// netInflow computes each node's net volumetric inflow (channels plus
// sources at time t) into out, leaving the channel flows used in q.
// In the transient model this equals the capacitor current C·dp/dt.
func (s *System) netInflow(t float64, p, out, q []float64) {
	for i := range out {
		out[i] = 0
	}
	s.flows(p, q)
	for c, f := range q {
		out[s.chFrom[c]] -= f
		out[s.chTo[c]] += f
	}
	for i := range s.srcFlow {
		f := s.sourceFlow(i, t)
		if s.srcFrom[i] >= 0 {
			out[s.srcFrom[i]] -= f
		}
		if s.srcTo[i] >= 0 {
			out[s.srcTo[i]] += f
		}
	}
}

// stepPair runs one step-doubling attempt of length dt from time t:
// one full backward-Euler step from p into st.pFull and two half steps
// from p into st.pHalf. Each step matrix is factored once; both half
// steps solve against the same 2C/dt + G factors.
func (s *System) stepPair(t, dt float64, p []float64, st *stepScratch) error {
	if err := s.factor(t+dt, dt, st); err != nil {
		return err
	}
	if err := s.beStep(t+dt, dt, p, st.pFull, st); err != nil {
		return err
	}
	half := 0.5 * dt
	if err := s.factor(t+half, half, st); err != nil {
		return err
	}
	if err := s.beStep(t+half, half, p, st.pHalf, st); err != nil {
		return err
	}
	return s.beStep(t+dt, half, st.pHalf, st.pHalf, st)
}

// factor builds the backward-Euler step matrix C/dt + G for step
// length dt and factors it into st.lu. st.a starts as a copy of G and
// Refactor leaves its input untouched, so only the diagonal needs
// rewriting. The C/dt diagonal makes the matrix nonsingular without
// grounding a node: the pressure DC level is pinned by charge
// conservation instead. tNew only labels errors.
func (s *System) factor(tNew, dt float64, st *stepScratch) error {
	for i, c := range s.cap {
		st.a.Set(i, i, s.lap.At(i, i)+c/dt)
	}
	if err := st.lu.Refactor(st.a); err != nil {
		return fmt.Errorf("dyn: step solve at t=%.6g s: %w", tNew, err)
	}
	return nil
}

// beStep advances one backward-Euler step of length dt landing at time
// tNew against the factors factor left in st.lu: it solves
// (C/dt + G)·p' = C/dt·p + b(tNew), where b is the source injections.
// pIn and pOut may alias.
func (s *System) beStep(tNew, dt float64, pIn, pOut []float64, st *stepScratch) error {
	for i, c := range s.cap {
		st.rhs[i] = (c / dt) * pIn[i]
	}
	for i := range s.srcFlow {
		f := s.sourceFlow(i, tNew)
		if s.srcFrom[i] >= 0 {
			st.rhs[s.srcFrom[i]] -= f
		}
		if s.srcTo[i] >= 0 {
			st.rhs[s.srcTo[i]] += f
		}
	}
	if err := st.lu.SolveTo(pOut, st.rhs); err != nil {
		return fmt.Errorf("dyn: step solve at t=%.6g s: %w", tNew, err)
	}
	return nil
}

// cflLimit returns the species stability bound ½·min(V/r) over every
// cell, where r [m³/s] is the rate at which the cell's content leaves
// it: |q| for advection, plus twice the dispersion conductance, the
// membrane conductance and clearance·V under kinetics. It keeps the
// explicit update from driving any concentration negative.
func (s *System) cflLimit(q []float64) float64 {
	limit := math.Inf(1)
	for c, f := range q {
		a := math.Abs(f)
		if s.kin != nil {
			k := s.kin[c]
			a += 2*k.Dispersion + k.Membrane
			if s.tissue[c] >= 0 {
				if b := 0.5 * k.TissueVolume / (k.Membrane + k.Clearance*k.TissueVolume); b < limit {
					limit = b
				}
			} else {
				a += k.Clearance * s.cellVol[c]
			}
		}
		if a > 0 {
			if b := 0.5 * s.cellVol[c] / a; b < limit {
				limit = b
			}
		}
	}
	return limit
}

// doseConc is the concentration carried by external inflow at time t.
func (s *System) doseConc(t float64) float64 {
	if t >= s.species.DoseStart && t < s.species.DoseStart+s.species.DoseDuration {
		return s.species.DoseConcentration
	}
	return 0
}

// advect advances the species cells by one step of length dt using the
// start-of-step flow field in st.q, and updates the mass ledger.
//
// Node concentrations resolve in two passes because junctions have
// zero volume: pass 1 mixes channel outflows and external (dosed)
// source inflows; pass 2 adds node-to-node source transfers (e.g. a
// recirculation pump) using the pass-1 concentrations, so a single
// step never chains a species through more than one such pump — which
// matches the physical transit time through tubing.
func (s *System) advect(res *Result, t, dt float64, conc []float64, st *stepScratch) {
	cDose := s.doseConc(t)
	for i := range st.nodeIn {
		st.nodeIn[i] = 0
		st.nodeMass[i] = 0
	}

	// Pass 1: channel outflows into their downstream node, plus
	// external source inflows carrying the dose concentration.
	for c, f := range st.q {
		if f > 0 {
			last := s.cellStart[c] + s.cellCount[c] - 1
			st.nodeIn[s.chTo[c]] += f
			st.nodeMass[s.chTo[c]] += f * conc[last]
		} else if f < 0 {
			first := s.cellStart[c]
			st.nodeIn[s.chFrom[c]] += -f
			st.nodeMass[s.chFrom[c]] += -f * conc[first]
		}
	}
	for i := range s.srcFlow {
		f := s.sourceFlow(i, t)
		from, to := s.srcFrom[i], s.srcTo[i]
		if f < 0 {
			from, to = to, from
			f = -f
		}
		if from < 0 && to >= 0 {
			st.nodeIn[to] += f
			st.nodeMass[to] += f * cDose
			res.Injected += dt * f * cDose
		}
	}
	for i := range st.nodeConc {
		if st.nodeIn[i] > 0 {
			st.nodeConc[i] = st.nodeMass[i] / st.nodeIn[i]
		} else {
			st.nodeConc[i] = 0
		}
	}

	// Pass 2: node-to-node sources move liquid at the upstream node's
	// pass-1 concentration; node-to-external sources extract at the
	// final node concentration. Re-resolve nodes that gained inflow.
	for i := range s.srcFlow {
		f := s.sourceFlow(i, t)
		from, to := s.srcFrom[i], s.srcTo[i]
		if f < 0 {
			from, to = to, from
			f = -f
		}
		if from >= 0 && to >= 0 {
			st.nodeIn[to] += f
			st.nodeMass[to] += f * st.nodeConc[from]
		}
	}
	for i := range st.nodeConc {
		if st.nodeIn[i] > 0 {
			st.nodeConc[i] = st.nodeMass[i] / st.nodeIn[i]
		}
	}
	for i := range s.srcFlow {
		f := s.sourceFlow(i, t)
		from, to := s.srcFrom[i], s.srcTo[i]
		if f < 0 {
			from, to = to, from
			f = -f
		}
		if from >= 0 && to < 0 {
			res.Extracted += dt * f * st.nodeConc[from]
		}
	}

	// Compliance storage: a node whose pressure is changing takes in
	// more liquid than it passes on, parking species mass with it.
	// Without this term the ledger would leak during every transient.
	// The imbalance must come from the same flow field the advection
	// uses (st.q plus sources at t), or the ledger would not close.
	s.imbalance(t, st)
	for i := range st.nodeConc {
		res.Stored += dt * st.inflow[i] * st.nodeConc[i]
	}
	if s.kin != nil {
		s.kinetics(res, dt, conc, st.dc)
	}

	// Upwind cell update. Iteration order keeps the upstream neighbour
	// at its pre-step value: descending for forward flow, ascending
	// for reversed flow. The kinetic change, evaluated at the pre-step
	// state, lands after the channel's advection. The CFL bound
	// guarantees the explicit update cannot overshoot into negative
	// concentrations; clamp rounding dust anyway.
	for c, f := range st.q {
		start, n, vol := s.cellStart[c], s.cellCount[c], s.cellVol[c]
		if f > 0 {
			r := dt * f / vol
			for j := n - 1; j >= 0; j-- {
				up := st.nodeConc[s.chFrom[c]]
				if j > 0 {
					up = conc[start+j-1]
				}
				conc[start+j] += r * (up - conc[start+j])
			}
		} else if f < 0 {
			r := dt * -f / vol
			for j := 0; j < n; j++ {
				up := st.nodeConc[s.chTo[c]]
				if j < n-1 {
					up = conc[start+j+1]
				}
				conc[start+j] += r * (up - conc[start+j])
			}
		}
		if s.kin != nil {
			for j := start; j < start+n; j++ {
				conc[j] += st.dc[j]
			}
			if ti := s.tissue[c]; ti >= 0 {
				conc[ti] = math.Max(conc[ti]+st.dc[ti], 0)
			}
		}
		for j := 0; j < n; j++ {
			if conc[start+j] < 0 {
				conc[start+j] = 0
			}
		}
	}
}

// kinetics writes into dc each cell's concentration change over dt from
// dispersion, membrane exchange, clearance and secretion, all evaluated
// at the pre-step state, and books secreted and eliminated mass.
func (s *System) kinetics(res *Result, dt float64, conc, dc []float64) {
	for i := range dc {
		dc[i] = 0
	}
	for c, k := range s.kin {
		start, vol := s.cellStart[c], s.cellVol[c]
		if k.Dispersion > 0 {
			for j := start; j+1 < start+s.cellCount[c]; j++ {
				moved := dt * k.Dispersion * (conc[j] - conc[j+1]) / vol
				dc[j] -= moved
				dc[j+1] += moved
			}
		}
		site, siteVol := start, vol
		if ti := s.tissue[c]; ti >= 0 {
			moved := dt * k.Membrane * (conc[start] - conc[ti])
			dc[start] -= moved / vol
			dc[ti] += moved / k.TissueVolume
			site, siteVol = ti, k.TissueVolume
		}
		if k.Clearance > 0 {
			cleared := dt * k.Clearance * conc[site]
			dc[site] -= cleared
			res.Eliminated += cleared * siteVol
		}
		if k.Secretion > 0 {
			dc[site] += dt * k.Secretion / siteVol
			res.Injected += dt * k.Secretion
		}
	}
}

// imbalance computes each node's net inflow into st.inflow from the
// advection flow field already in st.q plus the sources at time t —
// deliberately NOT recomputing flows, so the species ledger and the
// advection pass see the identical field.
func (s *System) imbalance(t float64, st *stepScratch) {
	for i := range st.inflow {
		st.inflow[i] = 0
	}
	for c, f := range st.q {
		st.inflow[s.chFrom[c]] -= f
		st.inflow[s.chTo[c]] += f
	}
	for i := range s.srcFlow {
		f := s.sourceFlow(i, t)
		if s.srcFrom[i] >= 0 {
			st.inflow[s.srcFrom[i]] -= f
		}
		if s.srcTo[i] >= 0 {
			st.inflow[s.srcTo[i]] += f
		}
	}
}

// meanConc returns the volume-weighted mean concentration of channel
// c's cells (cells share one volume, so it is the plain mean).
func (s *System) meanConc(c int, conc []float64) float64 {
	var sum float64
	for j := 0; j < s.cellCount[c]; j++ {
		sum += conc[s.cellStart[c]+j]
	}
	return sum / float64(s.cellCount[c])
}

// checkArrivals latches the first time each species probe's mean
// concentration crosses the arrival threshold.
func (s *System) checkArrivals(res *Result, probes Probes, t float64, conc []float64) {
	threshold := s.species.ArrivalThreshold * s.species.DoseConcentration
	for i, id := range probes.Species {
		if res.ArrivalTimes[i] < 0 && s.meanConc(int(id), conc) >= threshold {
			res.ArrivalTimes[i] = t
		}
	}
}

// sample appends one record to every probe series.
func (s *System) sample(res *Result, probes Probes, t float64, p, conc []float64, st *stepScratch) {
	s.record(res, probes.Species, t, conc)
	scale := 1.0
	if len(s.profiles) > 0 {
		scale = s.profiles[0].Scale(t)
	}
	res.Series.PumpScale = append(res.Series.PumpScale, scale)
	for i, id := range probes.Nodes {
		res.Series.Nodes[i] = append(res.Series.Nodes[i], p[id])
	}
	if len(probes.Channels) > 0 {
		s.flows(p, st.q)
		for i, id := range probes.Channels {
			res.Series.Channels[i] = append(res.Series.Channels[i], st.q[id])
		}
	}
}

// finalize copies the terminal state and its KCL residual into res.
func (s *System) finalize(res *Result, t float64, p []float64, st *stepScratch) {
	res.SimulatedTime = t
	copy(res.FinalPressures, p)
	s.flows(p, res.FinalFlows)
	s.netInflow(t, p, st.inflow, st.q)
	var mx float64
	for _, d := range st.inflow {
		if a := math.Abs(d); a > mx {
			mx = a
		}
	}
	res.FinalKCLResidual = mx
}
