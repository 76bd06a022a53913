package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"ooc/internal/core"
	"ooc/internal/dyn"
)

// Compound transport: how a drug, nutrient or cytokine injected into
// the circulating fluid distributes between the organ modules over
// time — the inter-organ communication the chip exists for (Sec. II-A),
// and the reason perfusion factors matter.

// ModuleKinetics describes a compound's interaction with one organ
// module.
type ModuleKinetics struct {
	// Clearance is the first-order elimination rate constant [1/s]
	// inside the tissue (metabolism, uptake, binding).
	Clearance float64
	// Secretion is a zeroth-order source [mol/s] released by the
	// tissue (cytokine production).
	Secretion float64
	// MembranePermeability [m/s], when positive, resolves the
	// endothelialized membrane (Fig. 1a): the module splits into the
	// channel compartment and the tissue compartment, exchanging at
	// P·A_membrane·(c_channel − c_tissue). Clearance and secretion
	// then act on the tissue side — the physiological arrangement.
	// Zero keeps the single well-mixed compartment of channel and
	// basin.
	MembranePermeability float64
}

// TransportConfig sets up a compound-transport simulation.
type TransportConfig struct {
	// InletConcentration is the compound concentration [mol/m³] in the
	// fresh medium the inlet pump supplies. Use zero with a Bolus for
	// pulse experiments.
	InletConcentration float64
	// Bolus is an initial amount [mol] placed into the first
	// connection channel (the recirculation inlet) at t = 0.
	Bolus float64
	// Kinetics maps module names to their kinetics; missing modules
	// are inert, and a name no module carries is an error.
	Kinetics map[string]ModuleKinetics
	// Duration is the simulated time span [s]. Required.
	Duration float64
	// SampleEvery records a concentration sample at the first step on
	// or after each multiple of this time [s]; zero selects
	// Duration/200.
	SampleEvery float64
	// MolecularDiffusivity [m²/s], when positive, adds axial dispersion
	// along every non-module channel using the Taylor–Aris effective
	// diffusivity for shallow channels, D_eff = D + v²h²/(210·D): shear
	// across the channel height spreads an advected plug far faster
	// than molecular diffusion alone. Typical small molecules:
	// ~5e-10 m²/s; cytokines: ~1e-10 m²/s.
	MolecularDiffusivity float64
}

// Validate rejects NaN, ±Inf or negative amounts, rates, diffusivity
// and sample cadence, and a duration that is not finite and positive.
func (c TransportConfig) Validate() error {
	if !(c.Duration > 0 && c.Duration <= math.MaxFloat64) {
		return fmt.Errorf("sim: transport duration must be positive and finite, got %g s", c.Duration)
	}
	check := func(what string, v float64) error {
		if v >= 0 && v <= math.MaxFloat64 {
			return nil
		}
		return fmt.Errorf("sim: transport %s must be non-negative and finite, got %g", what, v)
	}
	errs := []error{check("inlet concentration", c.InletConcentration), check("bolus", c.Bolus),
		check("sample cadence", c.SampleEvery), check("molecular diffusivity", c.MolecularDiffusivity)}
	for _, name := range kineticsNames(c.Kinetics) {
		k := c.Kinetics[name]
		errs = append(errs, check(name+" clearance", k.Clearance), check(name+" secretion", k.Secretion),
			check(name+" membrane permeability", k.MembranePermeability))
	}
	return errors.Join(errs...)
}

// kineticsNames returns the module names of a kinetics map, sorted.
func kineticsNames(kin map[string]ModuleKinetics) []string {
	names := make([]string, 0, len(kin))
	for name := range kin {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ModuleExposure aggregates a module's concentration history. When
// the membrane is resolved (MembranePermeability > 0) the channel-side
// metrics describe the circulating fluid and the Tissue* metrics the
// tissue compartment behind the membrane; otherwise the Tissue*
// fields mirror the channel values.
type ModuleExposure struct {
	Name string
	// Peak is the maximum channel concentration [mol/m³] and PeakTime
	// when it occurred [s].
	Peak     float64
	PeakTime float64
	// AUC is the area under the channel concentration–time curve
	// [mol·s/m³].
	AUC float64
	// Final is the channel concentration at the end of the run.
	Final float64
	// TissuePeak, TissueAUC and TissueFinal describe the tissue
	// compartment.
	TissuePeak  float64
	TissueAUC   float64
	TissueFinal float64
	// Samples holds (time, channel concentration) pairs at the
	// configured sampling interval.
	Samples []Sample
}

// Sample is one point of a concentration history.
type Sample struct {
	Time          float64
	Concentration float64
}

// TransportResult is the outcome of a transport simulation.
type TransportResult struct {
	Modules []ModuleExposure
	// OutletAUC integrates the concentration leaving through the
	// outlet pump — the compound recovered from the chip.
	OutletAUC float64
	// MassBalanceError is |injected − (remaining + eliminated +
	// extracted)| relative to the injected amount; a solver self-check.
	MassBalanceError float64
	// Steps is the number of integration steps taken.
	Steps int
	// CirculatingVolume is the total fluid volume of the network [m³].
	CirculatingVolume float64
}

// SimulateTransport runs a compound-transport simulation on the design
// over its design flow plan: every channel carries its DesignFlow and
// the pumps recirculate between the outlet junction and the first
// connection channel exactly as on the chip. The step is the species
// stability bound, fixed for the run. Cancellation is checked every
// step and returns an error wrapping the context's cause.
func SimulateTransport(ctx context.Context, d *core.Design, cfg TransportConfig) (*TransportResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opt := Options{Model: ModelDynamic, Dynamic: DefaultDynamicOptions()}
	opt.Dynamic.Species = dyn.InletDose(cfg.InletConcentration, cfg.Duration)
	m, err := compileDynamic(ctx, d, opt, cfg.Kinetics, cfg.MolecularDiffusivity)
	if err != nil {
		return nil, err
	}
	for _, name := range kineticsNames(cfg.Kinetics) {
		if !slices.ContainsFunc(d.Modules, func(m core.PlacedModule) bool { return m.Name == name }) {
			return nil, fmt.Errorf("sim: transport kinetics for unknown module %q", name)
		}
	}

	plan := dyn.Plan{
		Flows:       make([]float64, len(d.Channels)),
		Duration:    cfg.Duration,
		SampleEvery: cfg.SampleEvery,
		Bolus:       cfg.Bolus,
	}
	if plan.SampleEvery == 0 {
		plan.SampleEvery = cfg.Duration / 200
	}
	for i := range d.Channels {
		plan.Flows[m.b.chanIDs[i]] = float64(d.Channels[i].DesignFlow)
	}
	if i := slices.IndexFunc(d.Channels, func(c core.Channel) bool {
		return c.Kind == core.ConnectionChannel && c.Index == 0
	}); i >= 0 {
		plan.BolusChannel = m.b.chanIDs[i]
	} else if cfg.Bolus > 0 {
		return nil, fmt.Errorf("sim: design has no first connection channel to take the bolus")
	}
	res, err := m.sys.RunFixed(ctx, plan, m.modules)
	if err != nil {
		return nil, fmt.Errorf("sim: transport aborted: %w", err)
	}

	out := &TransportResult{
		Modules:           make([]ModuleExposure, len(d.Modules)),
		MassBalanceError:  res.MassBalanceError,
		Steps:             res.Steps,
		CirculatingVolume: m.volume,
	}
	// The outlet pump draws a constant flow, so the mass it extracted
	// over that flow is the time integral of the outlet concentration.
	if q := float64(d.Pumps.Outlet); q > 0 {
		out.OutletAUC = res.Extracted / q
	}
	for i := range d.Modules {
		e := res.Exposures[i]
		me := ModuleExposure{
			Name: d.Modules[i].Name, Peak: e.Peak, PeakTime: e.PeakTime, AUC: e.AUC, Final: e.Final,
			TissuePeak: e.TissuePeak, TissueAUC: e.TissueAUC, TissueFinal: e.TissueFinal,
			Samples: make([]Sample, len(res.Series.Times)),
		}
		for k, t := range res.Series.Times {
			me.Samples[k] = Sample{Time: t, Concentration: res.Series.Species[i][k]}
		}
		out.Modules[i] = me
	}
	return out, nil
}
