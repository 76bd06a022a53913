package sim

import (
	"context"
	"fmt"
	"time"

	"ooc/internal/core"
	"ooc/internal/dyn"
	"ooc/internal/netlist"
)

// defaultCompliance is the lumped hydraulic compliance coefficient
// [1/Pa] relating a node's capacitance to the channel volume attached
// to it: C_i = Compliance · Σ V_attached/2. The default models soft
// PDMS walls plus connection tubing — stiff enough that the network
// settles within tens of milliseconds, soft enough that start-up
// transients and pulsatile damping are visible at the default output
// cadence.
const defaultCompliance = 5e-6

// defaultAdvectionCells is how many well-mixed cells a connection or
// tap channel is split into for species transport; organ modules are a
// single well-mixed basin.
const defaultAdvectionCells = 4

// DynamicOptions configures the transient tier (ModelDynamic).
// Construct via DefaultDynamicOptions and override; Validate treats
// unset (non-positive) fields as errors, never as silent defaults.
type DynamicOptions struct {
	// Duration is the simulated time span.
	Duration time.Duration
	// MaxStep caps the adaptive integrator step.
	MaxStep time.Duration
	// SampleEvery is the output cadence; the recorded series holds
	// Duration/SampleEvery + 1 samples regardless of step count.
	SampleEvery time.Duration
	// StepTol is the relative per-step pressure error accepted by the
	// step-doubling controller.
	StepTol float64
	// Compliance is the node-capacitance coefficient [1/Pa]; see
	// defaultCompliance.
	Compliance float64
	// Profile is the drive shape shared by all three design pumps —
	// scaling them together keeps the network balanced at all times.
	Profile dyn.Profile
	// Species configures dissolved-species transport (disabled by
	// default).
	Species dyn.Species
}

// DefaultDynamicOptions returns the transient-tier defaults: a 10 s
// span sampled every 50 ms, 10 ms step cap, 1e-3 step tolerance, soft
// PDMS compliance, constant pumps, species transport off.
func DefaultDynamicOptions() DynamicOptions {
	return DynamicOptions{
		Duration:    10 * time.Second,
		MaxStep:     10 * time.Millisecond,
		SampleEvery: 50 * time.Millisecond,
		StepTol:     1e-3,
		Compliance:  defaultCompliance,
		Profile:     dyn.Profile{Kind: dyn.ProfileConstant},
	}
}

// config converts the durations into the stepper's float-second form.
func (o DynamicOptions) config() dyn.Config {
	return dyn.Config{
		Duration:    o.Duration.Seconds(),
		MaxStep:     o.MaxStep.Seconds(),
		SampleEvery: o.SampleEvery.Seconds(),
		StepTol:     o.StepTol,
	}
}

// Validate rejects unset or out-of-range dynamic options.
func (o DynamicOptions) Validate() error {
	if o.Duration <= 0 {
		return fmt.Errorf("sim: dynamic duration must be positive, got %v (start from DefaultDynamicOptions)", o.Duration)
	}
	if o.MaxStep <= 0 {
		return fmt.Errorf("sim: dynamic max step must be positive, got %v (start from DefaultDynamicOptions)", o.MaxStep)
	}
	if o.SampleEvery <= 0 {
		return fmt.Errorf("sim: dynamic sample cadence must be positive, got %v (start from DefaultDynamicOptions)", o.SampleEvery)
	}
	if o.StepTol <= 0 {
		return fmt.Errorf("sim: dynamic step tolerance must be positive, got %g (start from DefaultDynamicOptions)", o.StepTol)
	}
	if o.Compliance <= 0 {
		return fmt.Errorf("sim: dynamic compliance must be positive, got %g (start from DefaultDynamicOptions)", o.Compliance)
	}
	if err := o.config().Validate(); err != nil {
		return err
	}
	if err := o.Profile.Validate(); err != nil {
		return err
	}
	return o.Species.Validate()
}

// CacheKey renders the options canonically for response-cache keying:
// two option sets collide exactly when they produce the same run.
func (o DynamicOptions) CacheKey() string {
	sp := "off"
	if o.Species.Enabled {
		sp = fmt.Sprintf("dose=%g@%g+%g,thr=%g",
			o.Species.DoseConcentration, o.Species.DoseStart, o.Species.DoseDuration, o.Species.ArrivalThreshold)
	}
	return fmt.Sprintf("dur=%s,step=%s,sample=%s,tol=%g,cmp=%g,prof=%s,species=%s",
		o.Duration, o.MaxStep, o.SampleEvery, o.StepTol, o.Compliance, o.Profile, sp)
}

// DynamicReport is the transient-tier outcome: the familiar
// steady-style Report built from the final state, plus the sampled
// time series and the stepper's telemetry.
type DynamicReport struct {
	// Report holds the final-state module deviations — comparable with
	// a ModelExact report once the run has settled.
	Report *Report

	// ModuleNames indexes the per-module series below.
	ModuleNames []string
	// Times are the sample instants [s].
	Times []float64
	// PumpScale is the pump profile scale at each sample.
	PumpScale []float64
	// PumpPressure is the inlet−outlet pressure difference [Pa] at each
	// sample.
	PumpPressure []float64
	// ModuleFlows[m][k] is module m's channel flow [m³/s] at sample k.
	ModuleFlows [][]float64
	// ModuleConcs[m][k] is module m's mean species concentration
	// [mol/m³] at sample k; nil when species transport is disabled.
	ModuleConcs [][]float64
	// ArrivalTimes[m] is when species first reached module m [s], −1 if
	// never; nil when species transport is disabled.
	ArrivalTimes []float64
	// FinalConcentrations[m] is module m's concentration at the end of
	// the run; nil when species transport is disabled.
	FinalConcentrations []float64

	// Stepper telemetry (also counted in the obs collector as
	// dyn.steps, dyn.steps_rejected, dyn.steps_cfl_limited).
	Steps           int
	RejectedSteps   int
	CFLLimitedSteps int
	// MassBalanceError is the species ledger defect relative to the
	// injected mass; zero when species transport is disabled.
	MassBalanceError float64
	// SimulatedTime is how far the integration got [s].
	SimulatedTime float64
}

// ValidateDynamic is ValidateDynamicContext without cancellation.
func ValidateDynamic(d *core.Design, opt Options) (*DynamicReport, error) {
	return ValidateDynamicContext(context.Background(), d, opt)
}

// ValidateDynamicContext runs the transient tier: it compiles the
// design's network with exact duct resistances, attaches the three
// design pumps with opt.Dynamic.Profile as their shared drive shape,
// and integrates pressures, flows, and (optionally) species transport
// over opt.Dynamic.Duration.
//
// Cancellation aborts the integration with an error wrapping the
// context's cause — a truncated run is always reported as an error,
// never returned as a silently short series.
func ValidateDynamicContext(ctx context.Context, d *core.Design, opt Options) (*DynamicReport, error) {
	dopt := opt.Dynamic
	if err := dopt.Validate(); err != nil {
		return nil, err
	}
	opt.Model = ModelDynamic
	m, err := compileDynamic(ctx, d, opt, nil, 0)
	if err != nil {
		return nil, err
	}

	// Probes: pump pressure needs the inlet and outlet ports; the
	// module channels carry the flows and concentrations the report
	// renders, in module-index order.
	inlet, ok := m.b.nodes["inlet"]
	if !ok {
		return nil, fmt.Errorf("sim: design has no inlet node")
	}
	outlet, ok := m.b.nodes["outlet"]
	if !ok {
		return nil, fmt.Errorf("sim: design has no outlet node")
	}
	moduleNames := make([]string, len(d.Modules))
	for i := range d.Modules {
		moduleNames[i] = d.Modules[i].Name
	}
	probes := dyn.Probes{
		Nodes:    []netlist.NodeID{inlet, outlet},
		Channels: m.modules,
	}
	if dopt.Species.Enabled {
		probes.Species = m.modules
	}

	res, err := m.sys.Run(ctx, dopt.config(), probes)
	if err != nil {
		return nil, fmt.Errorf("sim: dynamic validation aborted: %w", err)
	}

	rep, err := buildReport(d, m.b, res, res.MaxKCLResidual())
	if err != nil {
		return nil, err
	}

	dr := &DynamicReport{
		Report:           rep,
		ModuleNames:      moduleNames,
		Times:            res.Series.Times,
		PumpScale:        res.Series.PumpScale,
		PumpPressure:     make([]float64, len(res.Series.Times)),
		ModuleFlows:      res.Series.Channels,
		Steps:            res.Steps,
		RejectedSteps:    res.RejectedSteps,
		CFLLimitedSteps:  res.CFLLimitedSteps,
		MassBalanceError: res.MassBalanceError,
		SimulatedTime:    res.SimulatedTime,
	}
	for k := range dr.PumpPressure {
		dr.PumpPressure[k] = res.Series.Nodes[0][k] - res.Series.Nodes[1][k]
	}
	if dopt.Species.Enabled {
		dr.ModuleConcs = res.Series.Species
		dr.ArrivalTimes = res.ArrivalTimes
		dr.FinalConcentrations = res.FinalConcentrations
	}
	return dr, nil
}

// dynamicModel is a design compiled for the transient tier.
type dynamicModel struct {
	sys     *dyn.System
	b       *builtNetwork
	modules []netlist.ChannelID // each module's channel, in module order
	volume  float64             // liquid volume of all cells and tissue [m³]
}

// compileDynamic builds the design's network with exact duct
// resistances, attaches the three design pumps driven by
// opt.Dynamic.Profile and compiles it with opt.Dynamic.Species.
// Channel volumes set the node capacitances (compliance × half the
// attached volume) and the advection residence times. A module channel
// is one well-mixed cell that includes its organ basin, unless kin
// gives the module a membrane: then the basin is a tissue compartment
// behind it. Other channels resolve the front with a few cells and,
// for a positive diffusivity [m²/s], exchange at the Taylor–Aris
// effective diffusivity for shallow channels, D + v²h²/(210·D).
func compileDynamic(ctx context.Context, d *core.Design, opt Options, kin map[string]ModuleKinetics, diffusivity float64) (dynamicModel, error) {
	b, err := buildNetwork(ctx, d, opt)
	if err != nil {
		return dynamicModel{}, err
	}
	if err := attachPumps(b, d); err != nil {
		return dynamicModel{}, err
	}
	m := dynamicModel{b: b, modules: make([]netlist.ChannelID, len(d.Modules))}
	for i := range m.modules {
		m.modules[i] = -1
	}
	caps := make([]float64, b.net.NumNodes())
	props := make([]dyn.ChannelProps, len(d.Channels))
	for i := range d.Channels {
		c := &d.Channels[i]
		area := float64(c.Cross.Area())
		vol := area * float64(c.Length)
		pr := dyn.ChannelProps{Cells: defaultAdvectionCells}
		if c.Kind == core.ModuleChannel && c.Index >= 0 && c.Index < len(d.Modules) {
			mod := &d.Modules[c.Index]
			k := kin[mod.Name]
			pr.Cells = 1
			pr.Kinetics = dyn.Kinetics{Clearance: k.Clearance, Secretion: k.Secretion}
			if k.MembranePermeability > 0 {
				pr.Kinetics.TissueVolume = float64(mod.Volume)
				pr.Kinetics.Membrane = k.MembranePermeability * float64(mod.MembraneArea)
			} else {
				vol += float64(mod.Volume)
			}
			if m.modules[c.Index] < 0 {
				m.modules[c.Index] = b.chanIDs[i]
			}
		} else if diffusivity > 0 {
			v := float64(c.DesignFlow) / area
			h := float64(c.Cross.Height)
			deff := diffusivity + v*v*h*h/(210*diffusivity)
			pr.Kinetics.Dispersion = deff * area / (float64(c.Length) / float64(pr.Cells))
		}
		pr.Volume = vol
		props[i] = pr
		m.volume += vol + pr.Kinetics.TissueVolume
		half := opt.Dynamic.Compliance * vol / 2
		caps[b.node(c.From)] += half
		caps[b.node(c.To)] += half
	}
	for i, id := range m.modules {
		if id < 0 {
			return dynamicModel{}, fmt.Errorf("sim: module channel %d missing", i)
		}
	}

	profiles := make([]dyn.Profile, b.net.NumSources())
	for i := range profiles {
		profiles[i] = opt.Dynamic.Profile
	}
	m.sys, err = dyn.Compile(b.net, caps, props, profiles, opt.Dynamic.Species)
	return m, err
}
