package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"ooc/internal/dyn"
)

func simulateTransport(t *testing.T, cfg TransportConfig) *TransportResult {
	t.Helper()
	res, err := SimulateTransport(context.Background(), fig4Design(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func exposureOf(t *testing.T, res *TransportResult, name string) ModuleExposure {
	t.Helper()
	for _, m := range res.Modules {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("module %s missing", name)
	return ModuleExposure{}
}

func TestContinuousInfusionReachesInletConcentration(t *testing.T) {
	// With a constant inlet concentration, no clearance and enough
	// time, every compartment approaches the inlet concentration.
	res := simulateTransport(t, TransportConfig{
		InletConcentration: 1.0,
		Duration:           60, // many volume turnovers (turnover ≈ 1 s)
	})
	for _, m := range res.Modules {
		if math.Abs(m.Final-1.0) > 0.02 {
			t.Fatalf("module %s final concentration %.3f, want ≈1.0", m.Name, m.Final)
		}
	}
	if res.MassBalanceError > 1e-6 {
		t.Fatalf("mass balance error %g", res.MassBalanceError)
	}
}

func TestMassBalanceBolus(t *testing.T) {
	res := simulateTransport(t, TransportConfig{
		Bolus:    1e-9, // mol
		Duration: 60,
	})
	if res.MassBalanceError > 1e-6 {
		t.Fatalf("mass balance error %g", res.MassBalanceError)
	}
	// All modules must have been exposed.
	for _, m := range res.Modules {
		if m.Peak <= 0 {
			t.Fatalf("module %s never saw the bolus", m.Name)
		}
		if m.AUC <= 0 {
			t.Fatalf("module %s has zero AUC", m.Name)
		}
	}
	// Eventually the bolus washes out through the outlet.
	if res.OutletAUC <= 0 {
		t.Fatal("no compound recovered at the outlet")
	}
}

// TestPerfusionOrdersExposure: for a cytokine continuously secreted by
// the liver, a downstream module's steady concentration scales with
// its perfusion factor (its module inflow is perf·Q of cytokine-laden
// connection fluid plus fresh supply) — the physiological property the
// perfusion factors encode (Eq. 4). Brain (perf 0.268, directly
// downstream of the liver) must see far more than the lung
// (perf 0.040, fed from the recirculated drain fraction).
func TestPerfusionOrdersExposure(t *testing.T) {
	res := simulateTransport(t, TransportConfig{
		Duration: 60,
		Kinetics: map[string]ModuleKinetics{"liver": {Secretion: 1e-12}},
	})
	brain, lung := exposureOf(t, res, "brain"), exposureOf(t, res, "lung")
	if brain.Final <= lung.Final {
		t.Fatalf("brain steady exposure %g should exceed lung %g (perfusion ordering)", brain.Final, lung.Final)
	}
	if lung.Final <= 0 {
		t.Fatal("lung should still receive recirculated cytokine")
	}
}

// TestClearanceReducesDownstreamExposure: hepatic clearance lowers
// everyone's steady-state exposure vs. the inert case.
func TestClearanceReducesDownstreamExposure(t *testing.T) {
	inert := simulateTransport(t, TransportConfig{InletConcentration: 1, Duration: 60})
	cleared := simulateTransport(t, TransportConfig{
		InletConcentration: 1,
		Duration:           60,
		Kinetics: map[string]ModuleKinetics{
			"liver": {Clearance: 0.5}, // strong hepatic extraction
		},
	})
	for i := range inert.Modules {
		if cleared.Modules[i].Name == "lung" {
			continue // upstream of the liver; nearly unaffected
		}
		if cleared.Modules[i].Final >= inert.Modules[i].Final {
			t.Fatalf("module %s: clearance did not reduce exposure (%.3f vs %.3f)",
				cleared.Modules[i].Name, cleared.Modules[i].Final, inert.Modules[i].Final)
		}
	}
	if cleared.MassBalanceError > 1e-6 {
		t.Fatalf("mass balance with clearance: %g", cleared.MassBalanceError)
	}
}

// TestSecretionPropagates: a cytokine secreted by the liver reaches
// the other modules through the circulating fluid — the inter-organ
// communication the chip exists to provide.
func TestSecretionPropagates(t *testing.T) {
	res := simulateTransport(t, TransportConfig{
		Duration: 60,
		Kinetics: map[string]ModuleKinetics{
			"liver": {Secretion: 1e-12},
		},
	})
	for _, m := range res.Modules {
		if m.Final <= 0 {
			t.Fatalf("module %s never received the secreted cytokine", m.Name)
		}
	}
	if res.MassBalanceError > 1e-6 {
		t.Fatalf("mass balance with secretion: %g", res.MassBalanceError)
	}
}

func TestCirculatingVolumePlausible(t *testing.T) {
	res := simulateTransport(t, TransportConfig{InletConcentration: 1, Duration: 1})
	// The network volume must be microlitre-scale (chip channels).
	vol := res.CirculatingVolume
	if vol < 1e-10 || vol > 1e-6 {
		t.Fatalf("circulating volume %g m³ implausible", vol)
	}
}

// TestConfigValidation: a config the engine cannot run is an error
// before any work — including NaN and ±Inf, which pass a bare `< 0`
// check.
func TestConfigValidation(t *testing.T) {
	d := fig4Design(t)
	ctx := context.Background()
	if _, err := SimulateTransport(ctx, nil, TransportConfig{Duration: 1}); err == nil {
		t.Error("nil design accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string]TransportConfig{
		"zero duration":                {},
		"NaN duration":                 {Duration: nan},
		"infinite duration":            {Duration: inf},
		"negative bolus":               {Duration: 1, Bolus: -1},
		"NaN bolus":                    {Duration: 1, Bolus: nan},
		"infinite bolus":               {Duration: 1, Bolus: inf},
		"negative inlet concentration": {Duration: 1, InletConcentration: -1},
		"NaN inlet concentration":      {Duration: 1, InletConcentration: nan},
		"infinite inlet concentration": {Duration: 1, InletConcentration: inf},
		"negative sample cadence":      {Duration: 1, SampleEvery: -1},
		"NaN diffusivity":              {Duration: 1, MolecularDiffusivity: nan},
		"negative diffusivity":         {Duration: 1, MolecularDiffusivity: -1},
		"negative clearance":           {Duration: 1, Kinetics: map[string]ModuleKinetics{"liver": {Clearance: -1}}},
		"NaN clearance":                {Duration: 1, Kinetics: map[string]ModuleKinetics{"liver": {Clearance: nan}}},
		"infinite secretion":           {Duration: 1, Kinetics: map[string]ModuleKinetics{"liver": {Secretion: inf}}},
		"NaN permeability":             {Duration: 1, Kinetics: map[string]ModuleKinetics{"liver": {MembranePermeability: nan}}},
		"negative permeability":        {Duration: 1, Kinetics: map[string]ModuleKinetics{"liver": {MembranePermeability: -1}}},
		"unknown module":               {Duration: 1, Kinetics: map[string]ModuleKinetics{"spleen": {Clearance: 1}}},
	}
	for name, cfg := range bad {
		if _, err := SimulateTransport(ctx, d, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSamplesRecorded(t *testing.T) {
	res := simulateTransport(t, TransportConfig{InletConcentration: 1, Duration: 10, SampleEvery: 1})
	for _, m := range res.Modules {
		if len(m.Samples) < 5 {
			t.Fatalf("module %s: only %d samples", m.Name, len(m.Samples))
		}
		for i := 1; i < len(m.Samples); i++ {
			if m.Samples[i].Time <= m.Samples[i-1].Time {
				t.Fatal("samples not time-ordered")
			}
		}
	}
}

// TestWashout: after a bolus with no further input, concentrations
// decay towards zero (monotone washout through the outlet).
func TestWashout(t *testing.T) {
	res := simulateTransport(t, TransportConfig{Bolus: 1e-9, Duration: 120})
	for _, m := range res.Modules {
		if m.Final > m.Peak*0.2 {
			t.Fatalf("module %s retained %.1f%% of peak after washout",
				m.Name, 100*m.Final/m.Peak)
		}
	}
}

// TestMembraneResolvedModule: with a finite membrane permeability the
// tissue lags the channel and, for small P·A, sees a lower peak — the
// drug-absorption behaviour the membrane exists to model.
func TestMembraneResolvedModule(t *testing.T) {
	res := simulateTransport(t, TransportConfig{
		Bolus:    1e-9,
		Duration: 60,
		Kinetics: map[string]ModuleKinetics{
			"liver": {MembranePermeability: 1e-6}, // slow membrane
		},
	})
	liver := exposureOf(t, res, "liver")
	if liver.TissuePeak <= 0 {
		t.Fatal("tissue never exposed through the membrane")
	}
	if liver.TissuePeak >= liver.Peak {
		t.Fatalf("slow membrane: tissue peak %g should lag channel peak %g",
			liver.TissuePeak, liver.Peak)
	}
	if res.MassBalanceError > 1e-6 {
		t.Fatalf("mass balance with membrane: %g", res.MassBalanceError)
	}
}

// TestMembranePermeabilityOrdersTissueExposure: a more permeable
// membrane admits more compound into the tissue.
func TestMembranePermeabilityOrdersTissueExposure(t *testing.T) {
	run := func(p float64) float64 {
		res := simulateTransport(t, TransportConfig{
			Bolus:    1e-9,
			Duration: 30,
			Kinetics: map[string]ModuleKinetics{"brain": {MembranePermeability: p}},
		})
		return exposureOf(t, res, "brain").TissueAUC
	}
	tight := run(1e-7) // blood-brain-barrier-like
	leaky := run(1e-5)
	if leaky <= tight {
		t.Fatalf("leaky membrane AUC %g should exceed tight %g", leaky, tight)
	}
}

// TestMembraneEquilibration: at high permeability and long times the
// tissue equilibrates with the channel.
func TestMembraneEquilibration(t *testing.T) {
	res := simulateTransport(t, TransportConfig{
		InletConcentration: 1,
		Duration:           60,
		Kinetics:           map[string]ModuleKinetics{"liver": {MembranePermeability: 1e-4}},
	})
	liver := exposureOf(t, res, "liver")
	if math.Abs(liver.TissueFinal-liver.Final) > 0.05*liver.Final {
		t.Fatalf("tissue %.3f and channel %.3f should equilibrate", liver.TissueFinal, liver.Final)
	}
}

// TestTissueClearanceBehindMembrane: with the membrane resolved,
// clearance acts on the tissue side and is membrane-limited — lowering
// permeability lowers the elimination rate seen by the system.
func TestTissueClearanceBehindMembrane(t *testing.T) {
	run := func(p float64) float64 {
		res := simulateTransport(t, TransportConfig{
			InletConcentration: 1,
			Duration:           60,
			Kinetics: map[string]ModuleKinetics{
				"liver": {MembranePermeability: p, Clearance: 1},
			},
		})
		// Downstream exposure reflects how much the liver removed.
		return exposureOf(t, res, "brain").Final
	}
	limited := run(1e-7)
	open := run(1e-4)
	if open >= limited {
		t.Fatalf("membrane-limited clearance: brain exposure %g (tight) should exceed %g (open)",
			limited, open)
	}
}

// TestDispersionSpreadsBolus: Taylor–Aris dispersion lowers and widens
// the downstream peak while conserving mass.
func TestDispersionSpreadsBolus(t *testing.T) {
	sharp := simulateTransport(t, TransportConfig{Bolus: 1e-9, Duration: 30})
	spread := simulateTransport(t, TransportConfig{
		Bolus:                1e-9,
		Duration:             30,
		MolecularDiffusivity: 5e-10, // small molecule
	})
	if spread.MassBalanceError > 1e-6 {
		t.Fatalf("mass balance with dispersion: %g", spread.MassBalanceError)
	}
	// The brain is farthest downstream via connections; its peak must
	// be reduced by dispersion.
	sharpBrain, spreadBrain := exposureOf(t, sharp, "brain"), exposureOf(t, spread, "brain")
	if spreadBrain.Peak >= sharpBrain.Peak {
		t.Fatalf("dispersion should lower the downstream peak: %g vs %g",
			spreadBrain.Peak, sharpBrain.Peak)
	}
}

// TestPulsatilePerfusion: a heartbeat-like 1 Hz pump modulation,
// s(t) = 1 + 0.5·sin(2πt), keeps the same time-averaged transport: a
// dosed run conserves mass and ends within 10 % of the constant-pump
// concentrations.
func TestPulsatilePerfusion(t *testing.T) {
	d := fig4Design(t)
	run := func(profile string) *DynamicReport {
		t.Helper()
		opt := dynOptions()
		opt.Dynamic.Duration = 10 * time.Second
		p, err := dyn.ParseProfile(profile)
		if err != nil {
			t.Fatal(err)
		}
		opt.Dynamic.Profile = p
		opt.Dynamic.Species = dyn.InletDose(1, 10)
		dr, err := ValidateDynamic(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		return dr
	}
	steady, pulsed := run("constant"), run("pulse:0.5@1s")
	if pulsed.MassBalanceError > 1e-6 {
		t.Fatalf("mass balance with pulsation: %g", pulsed.MassBalanceError)
	}
	for m, s := range steady.FinalConcentrations {
		if p := pulsed.FinalConcentrations[m]; math.Abs(p-s) > 0.1*s {
			t.Fatalf("module %s: pulsation changed steady exposure: %g vs %g", steady.ModuleNames[m], p, s)
		}
	}
}

// TestTransportDeterministic: rerunning a simulation reproduces every
// result bit for bit.
func TestTransportDeterministic(t *testing.T) {
	cfg := TransportConfig{
		Bolus: 1e-9, InletConcentration: 0.5, Duration: 5, MolecularDiffusivity: 5e-10,
		Kinetics: map[string]ModuleKinetics{
			"liver": {Clearance: 0.2, MembranePermeability: 1e-5},
			"brain": {Secretion: 1e-12},
		},
	}
	if a, b := simulateTransport(t, cfg), simulateTransport(t, cfg); !reflect.DeepEqual(a, b) {
		t.Error("two identical transport runs differ")
	}
}

// TestTransportCancellation: a cancelled context aborts the run with
// an error wrapping the context's cause.
func TestTransportCancellation(t *testing.T) {
	_, err := SimulateTransport(cancelledCtx(t), fig4Design(t), TransportConfig{Bolus: 1e-9, Duration: 10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
