package sim

import (
	"math"
	"testing"

	"ooc/internal/core"
	"ooc/internal/fluid"
	"ooc/internal/physio"
	"ooc/internal/units"
)

func maleSimpleSpec() core.Spec {
	return core.Spec{
		Name:         "male_simple",
		Reference:    physio.StandardMale(),
		OrganismMass: units.Kilograms(1e-6),
		Modules: []core.ModuleSpec{
			{Organ: physio.Lung, Kind: core.Layered},
			{Organ: physio.Liver, Kind: core.Layered},
			{Organ: physio.Brain, Kind: core.Layered},
		},
		Fluid:       fluid.MediumLowViscosity,
		ShearStress: units.PascalsShear(1.5),
	}
}

func mustDesign(t *testing.T, spec core.Spec) *core.Design {
	t.Helper()
	d, err := core.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSelfConsistency: validating under the designer's own model
// (approximate resistances, no bend losses) must reproduce the design
// flows essentially exactly — this closes the loop between pressure
// correction and the network solver.
func TestSelfConsistency(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	rep, err := Validate(d, Options{Model: ModelApprox, DisableBendLosses: true, DisableJunctionLosses: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxFlowDeviation > 1e-6 {
		t.Fatalf("self-consistency flow deviation %g", rep.MaxFlowDeviation)
	}
	if rep.MaxPerfDeviation > 1e-6 {
		t.Fatalf("self-consistency perfusion deviation %g", rep.MaxPerfDeviation)
	}
}

// TestExactModelDeviationsRealistic: under the exact model the
// deviations must be non-zero (the designer used approximations) but
// small — the regime Table I reports (averages below ~3 %, maxima
// below ~10 %).
func TestExactModelDeviationsRealistic(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	rep, err := Validate(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxFlowDeviation == 0 {
		t.Fatal("exact model should deviate from the approximate design")
	}
	if rep.AvgFlowDeviation > 0.05 {
		t.Fatalf("avg flow deviation %.2f%% implausibly large", rep.AvgFlowDeviation*100)
	}
	if rep.MaxFlowDeviation > 0.15 {
		t.Fatalf("max flow deviation %.2f%% implausibly large", rep.MaxFlowDeviation*100)
	}
	if rep.MaxPerfDeviation > 0.15 {
		t.Fatalf("max perfusion deviation %.2f%% implausibly large", rep.MaxPerfDeviation*100)
	}
	// Conservation in the solved network.
	if rep.KCLResidual.CubicMetresPerSecond() > 1e-18 {
		t.Fatalf("KCL residual %g", rep.KCLResidual.CubicMetresPerSecond())
	}
	// The pump must push against a positive pressure difference.
	if rep.PumpPressure <= 0 {
		t.Fatalf("pump pressure %v", rep.PumpPressure)
	}
}

// TestShearStaysInEndothelialWindow: achieved shear stress must stay
// within (or very near) the 1–2 Pa window despite model deviations.
func TestShearStaysInEndothelialWindow(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	rep, err := Validate(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Modules {
		tau := m.ActualShear.Pascals()
		if tau < 0.9 || tau > 2.2 {
			t.Fatalf("module %s: achieved shear %.2f Pa far outside window", m.Name, tau)
		}
	}
}

// TestBendLossAblation: disabling bend losses must reduce the
// deviation — evidence the bend model contributes to the gap, as the
// geometry-induced losses do in real CFD.
func TestBendLossAblation(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	with, err := Validate(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Validate(d, Options{DisableBendLosses: true, DisableJunctionLosses: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.MaxFlowDeviation >= with.MaxFlowDeviation {
		t.Fatalf("minor losses should increase deviation: with=%g without=%g",
			with.MaxFlowDeviation, without.MaxFlowDeviation)
	}
	// Each loss family contributes individually.
	noBends, err := Validate(d, Options{DisableBendLosses: true})
	if err != nil {
		t.Fatal(err)
	}
	noJunc, err := Validate(d, Options{DisableJunctionLosses: true})
	if err != nil {
		t.Fatal(err)
	}
	if noBends.AvgFlowDeviation <= without.AvgFlowDeviation &&
		noJunc.AvgFlowDeviation <= without.AvgFlowDeviation {
		t.Fatal("neither loss family contributes to the deviation")
	}
}

// TestDeviationAcrossModuleCounts mirrors the paper's scalability
// claim: generic chips with 5–8 liver modules validate with deviations
// in the Table I regime.
func TestDeviationAcrossModuleCounts(t *testing.T) {
	for _, n := range []int{5, 6, 7, 8} {
		spec := maleSimpleSpec()
		spec.Name = "generic"
		spec.Modules = nil
		for i := 0; i < n; i++ {
			spec.Modules = append(spec.Modules, core.ModuleSpec{
				Name:  "liver" + string(rune('0'+i)),
				Organ: physio.Liver,
				Kind:  core.Layered,
			})
		}
		d := mustDesign(t, spec)
		rep, err := Validate(d, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rep.AvgFlowDeviation > 0.08 {
			t.Fatalf("n=%d: avg flow deviation %.2f%%", n, rep.AvgFlowDeviation*100)
		}
		if rep.MaxPerfDeviation > 0.2 {
			t.Fatalf("n=%d: max perfusion deviation %.2f%%", n, rep.MaxPerfDeviation*100)
		}
	}
}

func TestValidateRejectsEmptyDesign(t *testing.T) {
	if _, err := Validate(nil, Options{}); err == nil {
		t.Fatal("nil design accepted")
	}
	if _, err := Validate(&core.Design{}, Options{}); err == nil {
		t.Fatal("empty design accepted")
	}
}

func TestValidateUnknownModel(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	if _, err := Validate(d, Options{Model: Model(42)}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestNumericResistanceMatchesExact: the FDM cross-section solver must
// agree with the Fourier-series solution to well under a percent, and
// expose the error of the approximate Eq. 6 at h/w = 2/3.
func TestNumericResistanceMatchesExact(t *testing.T) {
	mu := physio.MediumViscosityTypical
	l := units.Millimetres(5)
	for _, cs := range []fluid.CrossSection{
		{Width: units.Millimetres(1), Height: units.Micrometres(150)},
		{Width: units.Micrometres(225), Height: units.Micrometres(150)},
		{Width: units.Micrometres(300), Height: units.Micrometres(300)},
	} {
		exact, err := fluid.ResistanceExact(cs, l, mu)
		if err != nil {
			t.Fatal(err)
		}
		num, err := NumericResistance(cs, l, mu, 48)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(float64(num-exact)) / float64(exact)
		if rel > 0.01 {
			t.Fatalf("cs=%v: numeric vs exact differ by %.3f%%", cs, rel*100)
		}
	}
}

// TestNumericConvergesToExact pins the FDM as a second-order
// discretisation of the Fourier series at the paper grid's two aspect
// ratios (w/h = 1.5 and 20/3): its error is positive, falls fourfold
// per doubling of n, and Richardson extrapolation of n = 32 and 64
// recovers the series. This is what makes the FDM a fit reference for
// the exact model.
func TestNumericConvergesToExact(t *testing.T) {
	mu := physio.MediumViscosityLow
	l := units.Millimetres(1)
	for _, w := range []units.Length{units.Micrometres(225), units.Millimetres(1)} {
		cs := fluid.CrossSection{Width: w, Height: units.Micrometres(150)}
		exact, err := fluid.ResistanceExact(cs, l, mu)
		if err != nil {
			t.Fatal(err)
		}
		ns := []int{16, 32, 64}
		r := make([]float64, len(ns))
		e := make([]float64, len(ns))
		for i, n := range ns {
			num, err := NumericResistance(cs, l, mu, n)
			if err != nil {
				t.Fatal(err)
			}
			r[i] = float64(num)
			e[i] = (r[i] - float64(exact)) / float64(exact)
			// Positive: in the parallel-plate limit the discrete
			// solution is exact at the nodes, and the node sum is a
			// trapezoid rule on the concave y(1−y)/2, which underestimates
			// Q and so overestimates R.
			if e[i] <= 0 {
				t.Errorf("w=%v n=%d: relative error %.3e, want > 0", w, n, e[i])
			}
		}
		for i := 1; i < len(ns); i++ {
			// 4 ± 0.05: an error c·h² + d·h⁴ falls by 4·(1 + 3|g|/e₃₂)
			// per halving of h, where g = −4·d·h₃₂⁴ is the n = 16/32
			// Richardson gap (−3.3e-6 and −4.8e-6 here, flooring of
			// nx = ⌊n·w/h⌋+1 included): 4.005 and 4.012 at worst.
			if ratio := e[i-1] / e[i]; math.Abs(ratio-4) > 0.05 {
				t.Errorf("w=%v: error ratio n=%d→%d is %.4f, want 4 ± 0.05", w, ns[i-1], ns[i], ratio)
			}
		}
		// 5e-7: the extrapolate cancels c·h² and leaves −4·d·h₆₄⁴ =
		// g/16, 2.1e-7 and 3.0e-7 here; the SOR stopping tolerance
		// (1e-11 relative update) is far below that.
		rich := (4*r[2] - r[1]) / 3
		if gap := (rich - float64(exact)) / float64(exact); math.Abs(gap) > 5e-7 {
			t.Errorf("w=%v: Richardson extrapolate of n=32/64 is %.3e from exact, want within 5e-7", w, gap)
		}
	}
}

// TestNumericExposesEq6Error: at h/w = 2/3 the numeric solution sides
// with the exact series against the paper's approximation — the
// mechanism behind the CFD deviations.
func TestNumericExposesEq6Error(t *testing.T) {
	mu := physio.MediumViscosityLow
	l := units.Millimetres(5)
	cs := fluid.CrossSection{Width: units.Micrometres(225), Height: units.Micrometres(150)}
	approx, err := fluid.ResistanceApprox(cs, l, mu)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := fluid.ResistanceExact(cs, l, mu)
	if err != nil {
		t.Fatal(err)
	}
	num, err := NumericResistance(cs, l, mu, 48)
	if err != nil {
		t.Fatal(err)
	}
	errApprox := math.Abs(float64(num-approx)) / float64(num)
	errExact := math.Abs(float64(num-exact)) / float64(num)
	if errExact >= errApprox {
		t.Fatalf("numeric should agree better with exact: exact err %.4f vs approx err %.4f",
			errExact, errApprox)
	}
}

func TestNumericResistanceValidation(t *testing.T) {
	cs := fluid.CrossSection{Width: units.Millimetres(1), Height: units.Micrometres(150)}
	if _, err := NumericResistance(cs, 0, units.PascalSeconds(1e-3), 32); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := NumericResistance(cs, units.Millimetres(1), 0, 32); err == nil {
		t.Error("zero viscosity accepted")
	}
	if _, err := NumericResistance(cs, units.Millimetres(1), units.PascalSeconds(1e-3), 4); err == nil {
		t.Error("too-coarse grid accepted")
	}
	bad := fluid.CrossSection{Width: units.Micrometres(100), Height: units.Micrometres(200)}
	if _, err := NumericResistance(bad, units.Millimetres(1), units.PascalSeconds(1e-3), 32); err == nil {
		t.Error("invalid cross-section accepted")
	}
}

// TestPerfusionDirection: the liver (high perfusion) must see a larger
// connection flow than the lung (low perfusion) in the solved network.
func TestPerfusionDirection(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	rep, err := Validate(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lung, liver := rep.Modules[0], rep.Modules[1]
	if liver.ActualPerfusion <= lung.ActualPerfusion {
		t.Fatalf("liver perfusion %.3f should exceed lung %.3f",
			liver.ActualPerfusion, lung.ActualPerfusion)
	}
}

// TestNaiveBaselineMuchWorse: the uncorrected baseline (straight
// verticals, no pressure correction — the "manual design" status quo)
// must deviate far more than the corrected design, quantifying the
// value of the paper's method.
func TestNaiveBaselineMuchWorse(t *testing.T) {
	spec := maleSimpleSpec()
	corrected := mustDesign(t, spec)
	naive, err := core.GenerateNaive(spec)
	if err != nil {
		t.Fatal(err)
	}
	repC, err := Validate(corrected, Options{})
	if err != nil {
		t.Fatal(err)
	}
	repN, err := Validate(naive, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if repN.MaxFlowDeviation < 3*repC.MaxFlowDeviation {
		t.Fatalf("baseline should be far worse: naive %.2f%% vs corrected %.2f%%",
			repN.MaxFlowDeviation*100, repC.MaxFlowDeviation*100)
	}
	// The naive design violates KVL under its own model.
	if res := naive.KVLResidual(); res < 1e-3 {
		t.Fatalf("naive design unexpectedly satisfies KVL (residual %g)", res)
	}
	if res := corrected.KVLResidual(); res > 1e-6 {
		t.Fatalf("corrected design violates KVL (residual %g)", res)
	}
}
