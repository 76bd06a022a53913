package dyn

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"ooc/internal/netlist"
)

// fixedChain compiles a 4-node chain (three channels of volume 0.5 and
// four cells, flow 3) with dosing at conc and the given kinetics on
// the middle channel, which then has one cell.
func fixedChain(t *testing.T, conc float64, k Kinetics) *System {
	t.Helper()
	const nodes, q = 4, 3.0
	props := uniformProps(nodes-1, 0.5, 4)
	props[1].Kinetics = k
	if k.Clearance > 0 || k.Secretion > 0 || k.TissueVolume > 0 {
		props[1].Cells = 1
	}
	sys, err := Compile(chain(t, nodes, 2, q), uniform(nodes, 0.01), props, constProfiles(2), InletDose(conc, 100))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return sys
}

func runFixed(t *testing.T, sys *System, plan Plan) *Result {
	t.Helper()
	if plan.Flows == nil {
		plan.Flows = uniform(3, 3)
	}
	if plan.SampleEvery == 0 {
		plan.SampleEvery = 0.1
	}
	res, err := sys.RunFixed(context.Background(), plan, []netlist.ChannelID{0, 1, 2})
	if err != nil {
		t.Fatalf("RunFixed: %v", err)
	}
	return res
}

// TestRunFixedDosing: over the fixed flows a dosed chain saturates in
// downstream order, the ledger closes and the series lands on the
// sample cadence.
func TestRunFixedDosing(t *testing.T) {
	res := runFixed(t, fixedChain(t, 2, Kinetics{}), Plan{Duration: 5})
	for i, c := range res.FinalConcentrations {
		if relErr(c, 2) > 1e-6 {
			t.Errorf("channel %d final %g, want the dose 2", i, c)
		}
	}
	for i := 1; i < len(res.Exposures); i++ {
		if res.Exposures[i].AUC >= res.Exposures[i-1].AUC {
			t.Errorf("channel %d AUC %g not below upstream %g", i, res.Exposures[i].AUC, res.Exposures[i-1].AUC)
		}
	}
	if res.MassBalanceError > 1e-12 {
		t.Errorf("mass balance error %g", res.MassBalanceError)
	}
	if n := len(res.Series.Times); n != 51 || relErr(res.Series.Times[n-1], 5) > 1e-12 {
		t.Errorf("%d samples ending at %g s, want 51 ending at 5 s", n, res.Series.Times[n-1])
	}
	// The step is half the smallest cell time constant, 0.125/3 s.
	if want := int(math.Ceil(5 / (0.5 * 0.125 / 3))); res.Steps != want {
		t.Errorf("%d steps, want %d", res.Steps, want)
	}
}

// TestKineticsAct: clearance, secretion, a tissue compartment and
// dispersion each change the outcome of both drivers, and the ledger
// still closes.
func TestKineticsAct(t *testing.T) {
	cases := map[string]Kinetics{
		"clearance":  {Clearance: 2},
		"secretion":  {Secretion: 0.5},
		"membrane":   {TissueVolume: 1, Membrane: 0.2, Clearance: 1},
		"dispersion": {Dispersion: 5},
	}
	fixedInert := runFixed(t, fixedChain(t, 1, Kinetics{}), Plan{Duration: 2})
	cfg := DefaultConfig()
	cfg.Duration = 2
	probes := Probes{Species: []netlist.ChannelID{0, 1, 2}}
	runInert, err := fixedChain(t, 1, Kinetics{}).Run(context.Background(), cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	for name, k := range cases {
		t.Run(name, func(t *testing.T) {
			fixed := runFixed(t, fixedChain(t, 1, k), Plan{Duration: 2})
			run, err := fixedChain(t, 1, k).Run(context.Background(), cfg, probes)
			if err != nil {
				t.Fatal(err)
			}
			if relErr(fixed.Exposures[2].AUC, fixedInert.Exposures[2].AUC) < 1e-9 {
				t.Errorf("RunFixed: %s left the downstream AUC unchanged", name)
			}
			if reflect.DeepEqual(run.Series.Species, runInert.Series.Species) {
				t.Errorf("Run: %s left the concentration series unchanged", name)
			}
			if fixed.MassBalanceError > 1e-9 || run.MassBalanceError > 1e-9 {
				t.Errorf("mass balance error: RunFixed %g, Run %g", fixed.MassBalanceError, run.MassBalanceError)
			}
			if name == "clearance" && (fixed.Eliminated <= 0 || run.Eliminated <= 0) {
				t.Errorf("clearance eliminated nothing: RunFixed %g, Run %g", fixed.Eliminated, run.Eliminated)
			}
			if name == "membrane" && fixed.Exposures[1].TissuePeak >= fixed.Exposures[1].Peak {
				t.Errorf("tissue peak %g should lag the channel's %g", fixed.Exposures[1].TissuePeak, fixed.Exposures[1].Peak)
			}
		})
	}
}

// TestKineticsTightenStepBound: dispersion and membrane exchange enter
// the stability bound.
func TestKineticsTightenStepBound(t *testing.T) {
	q := uniform(3, 3)
	inert := fixedChain(t, 1, Kinetics{}).cflLimit(q)
	for name, k := range map[string]Kinetics{
		"dispersion": {Dispersion: 3},
		"membrane":   {TissueVolume: 0.01, Membrane: 1},
	} {
		if b := fixedChain(t, 1, k).cflLimit(q); b >= inert {
			t.Errorf("%s: bound %g not below the advection bound %g", name, b, inert)
		}
	}
}

func TestKineticsCompileErrors(t *testing.T) {
	net := chain(t, 3, 2, 3)
	sp := InletDose(1, 1)
	cases := map[string]struct {
		cells int
		k     Kinetics
		sp    Species
	}{
		"species disabled":        {1, Kinetics{Clearance: 1}, Species{}},
		"dispersion on one cell":  {1, Kinetics{Dispersion: 1}, sp},
		"clearance on 4 cells":    {4, Kinetics{Clearance: 1}, sp},
		"tissue without membrane": {1, Kinetics{TissueVolume: 1}, sp},
		"membrane without tissue": {1, Kinetics{Membrane: 1}, sp},
		"negative secretion":      {1, Kinetics{Secretion: -1}, sp},
		"NaN clearance":           {1, Kinetics{Clearance: math.NaN()}, sp},
	}
	for name, tc := range cases {
		props := uniformProps(2, 0.5, 4)
		props[0].Cells = tc.cells
		props[0].Kinetics = tc.k
		if _, err := Compile(net, uniform(3, 0.01), props, constProfiles(2), tc.sp); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRunFixedRejects(t *testing.T) {
	sys := fixedChain(t, 1, Kinetics{})
	ok := Plan{Flows: uniform(3, 3), Duration: 1, SampleEvery: 0.1}
	bad := map[string]func(*Plan){
		"flow count":    func(p *Plan) { p.Flows = uniform(2, 3) },
		"no flow":       func(p *Plan) { p.Flows = uniform(3, 0) },
		"zero duration": func(p *Plan) { p.Duration = 0 },
		"NaN cadence":   func(p *Plan) { p.SampleEvery = math.NaN() },
		"sample cap":    func(p *Plan) { p.Duration, p.SampleEvery = 1e6, 1e-3 },
		"NaN bolus":     func(p *Plan) { p.Bolus = math.NaN() },
		"bolus channel": func(p *Plan) { p.BolusChannel = 3 },
	}
	for name, mutate := range bad {
		p := ok
		mutate(&p)
		if _, err := sys.RunFixed(context.Background(), p, nil); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	pulse := Profile{Kind: ProfilePulse, Amplitude: 0.5, Period: 1}
	pulsed, err := Compile(chain(t, 4, 2, 3), uniform(4, 0.01), uniformProps(3, 0.5, 4), []Profile{pulse, pulse}, InletDose(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pulsed.RunFixed(context.Background(), ok, nil); err == nil {
		t.Error("pulsed pumps accepted by the fixed-flow driver")
	}
}

// TestRunFixedBolusAndCancellation: a bolus is booked as injected mass
// and washes through; a cancelled context stops the run at once with
// the partial result.
func TestRunFixedBolusAndCancellation(t *testing.T) {
	sys := fixedChain(t, 0, Kinetics{})
	res := runFixed(t, sys, Plan{Duration: 5, Bolus: 1e-3, BolusChannel: 0})
	if relErr(res.Injected, 1e-3) > 0 || res.Extracted <= 0.99e-3 || res.MassBalanceError > 1e-12 {
		t.Errorf("bolus ledger: injected %g extracted %g error %g", res.Injected, res.Extracted, res.MassBalanceError)
	}
	if e := res.Exposures[2]; e.Peak <= 0 || e.PeakTime <= res.Exposures[0].PeakTime {
		t.Errorf("downstream peak %g at %g s should follow the upstream one at %g s", e.Peak, e.PeakTime, res.Exposures[0].PeakTime)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	part, err := sys.RunFixed(ctx, Plan{Flows: uniform(3, 3), Duration: 5, SampleEvery: 0.1}, nil)
	if !errors.Is(err, context.Canceled) || part == nil || part.Steps != 0 {
		t.Errorf("cancelled run: err %v, result %+v", err, part)
	}
}
