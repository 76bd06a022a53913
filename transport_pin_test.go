package ooc_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ooc"
	"ooc/internal/usecases"
)

// testdata/transport_pinned.json is the record of the compound-transport
// engine that preceded the transient tier's species kernel, written
// with encoding/json at full precision. It is never regenerated: the
// current engine must stay within the tolerances of checkPinned.

// pinnedRun is one scenario's scalar outcome: every exposure metric per
// module plus the run-level self-checks. Samples and Steps are left out
// on purpose — they describe the integrator, not the physics.
type pinnedRun struct {
	Chip              string         `json:"chip"`
	Scenario          string         `json:"scenario"`
	Modules           []pinnedModule `json:"modules"`
	OutletAUC         float64        `json:"outlet_auc"`
	MassBalanceError  float64        `json:"mass_balance_error"`
	CirculatingVolume float64        `json:"circulating_volume"`
}

type pinnedModule struct {
	Name        string  `json:"name"`
	Peak        float64 `json:"peak"`
	PeakTime    float64 `json:"peak_time"`
	AUC         float64 `json:"auc"`
	Final       float64 `json:"final"`
	TissuePeak  float64 `json:"tissue_peak"`
	TissueAUC   float64 `json:"tissue_auc"`
	TissueFinal float64 `json:"tissue_final"`
}

// pinnedChips are the Fig. 4 chip and the drug_transport example's
// chip (GI tract, liver, brain in typical medium).
func pinnedChips(t *testing.T) map[string]*ooc.Design {
	t.Helper()
	example := ooc.Spec{
		Name:         "gi_liver_brain",
		Reference:    ooc.StandardMale(),
		OrganismMass: ooc.Kilograms(1e-6),
		Modules: []ooc.ModuleSpec{
			{Organ: ooc.GITract, Kind: ooc.Layered},
			{Organ: ooc.Liver, Kind: ooc.Layered},
			{Organ: ooc.Brain, Kind: ooc.Layered},
		},
		Fluid:       ooc.MediumTypical,
		ShearStress: ooc.PascalsShear(1.5),
	}
	out := make(map[string]*ooc.Design)
	for name, spec := range map[string]ooc.Spec{"fig4": usecases.Fig4Instance().Spec, "drug_transport": example} {
		d, err := ooc.Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = d
	}
	return out
}

// pinnedScenario is one transport configuration of the pinned record.
// Bolus runs end in the washout tail, where Final is dominated by the
// integration step and is not compared.
type pinnedScenario struct {
	name  string
	bolus bool
	cfg   ooc.TransportConfig
}

func pinnedScenarios() []pinnedScenario {
	return []pinnedScenario{
		{"bolus", true, ooc.TransportConfig{Bolus: 1e-9, Duration: 10}},
		{"bolus_liver_clearance", true, ooc.TransportConfig{Bolus: 1e-9, Duration: 120,
			Kinetics: map[string]ooc.ModuleKinetics{"liver": {Clearance: 0.2}}}},
		{"liver_secretion", false, ooc.TransportConfig{Duration: 120,
			Kinetics: map[string]ooc.ModuleKinetics{"liver": {Secretion: 1e-12}}}},
		{"infusion", false, ooc.TransportConfig{InletConcentration: 1, Duration: 60}},
		{"bolus_liver_membrane", true, ooc.TransportConfig{Bolus: 1e-9, Duration: 60,
			Kinetics: map[string]ooc.ModuleKinetics{"liver": {MembranePermeability: 1e-6}}}},
		{"infusion_liver_membrane_clearance", false, ooc.TransportConfig{InletConcentration: 1, Duration: 60,
			Kinetics: map[string]ooc.ModuleKinetics{"liver": {MembranePermeability: 1e-5, Clearance: 1}}}},
		{"bolus_dispersion", true, ooc.TransportConfig{Bolus: 1e-9, Duration: 10, MolecularDiffusivity: 5e-10}},
	}
}

func pin(chip, scenario string, r *ooc.TransportResult) pinnedRun {
	p := pinnedRun{
		Chip:              chip,
		Scenario:          scenario,
		OutletAUC:         r.OutletAUC,
		MassBalanceError:  r.MassBalanceError,
		CirculatingVolume: r.CirculatingVolume,
	}
	for _, m := range r.Modules {
		p.Modules = append(p.Modules, pinnedModule{
			Name: m.Name, Peak: m.Peak, PeakTime: m.PeakTime, AUC: m.AUC, Final: m.Final,
			TissuePeak: m.TissuePeak, TissueAUC: m.TissueAUC, TissueFinal: m.TissueFinal,
		})
	}
	return p
}

// TestTransportPinned runs every pinned scenario on both chips and
// compares the scalars with the recorded reference.
func TestTransportPinned(t *testing.T) {
	chips := pinnedChips(t)
	var got []pinnedRun
	for _, chip := range []string{"fig4", "drug_transport"} {
		for _, sc := range pinnedScenarios() {
			r, err := ooc.SimulateTransport(chips[chip], sc.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", chip, sc.name, err)
			}
			got = append(got, pin(chip, sc.name, r))
		}
	}
	path := filepath.Join("testdata", "transport_pinned.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []pinnedRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d pinned runs, %d computed", len(want), len(got))
	}
	scenarios := pinnedScenarios()
	for i := range want {
		checkPinned(t, scenarios[i%len(scenarios)], want[i], got[i])
	}
}

// checkPinned compares one run with its record. The step is half the
// smallest cell time constant where the recorded engine took a fifth,
// so first-order upwind smears a bolus less: peaks move by a few
// percent, integrals barely. On bolus runs Final and the mirrored
// TissueFinal sit in the washout tail, 1e-11 to 1e-7 of the peak,
// where the step size dominates; they are not compared there, nor is
// PeakTime on runs that only saturate.
func checkPinned(t *testing.T, sc pinnedScenario, want, got pinnedRun) {
	t.Helper()
	id := want.Chip + "/" + want.Scenario
	if got.Chip != want.Chip || got.Scenario != want.Scenario || len(got.Modules) != len(want.Modules) {
		t.Fatalf("%s: run layout changed: got %s/%s with %d modules", id, got.Chip, got.Scenario, len(got.Modules))
	}
	rel := func(what string, w, g, tol float64) {
		t.Helper()
		if d := math.Abs(g - w); d > tol*math.Max(math.Abs(w), math.Abs(g)) {
			t.Errorf("%s %s = %.17g, pinned %.17g (relative %.3g > %g)", id, what, g, w, d/math.Max(math.Abs(w), math.Abs(g)), tol)
		}
	}
	membrane := func(name string) bool { return sc.cfg.Kinetics[name].MembranePermeability > 0 }
	for j, w := range want.Modules {
		g := got.Modules[j]
		rel(w.Name+" Peak", w.Peak, g.Peak, 0.05)
		rel(w.Name+" TissuePeak", w.TissuePeak, g.TissuePeak, 0.05)
		rel(w.Name+" AUC", w.AUC, g.AUC, 1e-3)
		rel(w.Name+" TissueAUC", w.TissueAUC, g.TissueAUC, 5e-3)
		if sc.bolus {
			if d := math.Abs(g.PeakTime - w.PeakTime); d > 0.01 {
				t.Errorf("%s %s PeakTime = %g s, pinned %g s (off by %.3g s > 0.01 s)", id, w.Name, g.PeakTime, w.PeakTime, d)
			}
		} else {
			rel(w.Name+" Final", w.Final, g.Final, 1e-6)
		}
		if !sc.bolus || membrane(w.Name) {
			rel(w.Name+" TissueFinal", w.TissueFinal, g.TissueFinal, 5e-3)
		}
	}
	rel("OutletAUC", want.OutletAUC, got.OutletAUC, 1e-3)
	rel("CirculatingVolume", want.CirculatingVolume, got.CirculatingVolume, 1e-12)
	if got.MassBalanceError > 1e-9 {
		t.Errorf("%s MassBalanceError = %g, want ≤ 1e-9", id, got.MassBalanceError)
	}
}
