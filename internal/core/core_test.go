package core

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"ooc/internal/fluid"
	"ooc/internal/physio"
	"ooc/internal/testutil"
	"ooc/internal/units"
)

// maleSimpleSpec builds the paper's male_simple use case (lung, liver,
// brain on a standard human male) at the Fig. 4 operating point:
// µ = 7.2e-4 Pa·s, τ = 1.5 Pa, spacing 1 mm.
func maleSimpleSpec() Spec {
	return Spec{
		Name:         "male_simple",
		Reference:    physio.StandardMale(),
		OrganismMass: units.Kilograms(1e-6),
		Modules: []ModuleSpec{
			{Organ: physio.Lung, Kind: Layered},
			{Organ: physio.Liver, Kind: Layered},
			{Organ: physio.Brain, Kind: Layered},
		},
		Fluid:       fluid.MediumLowViscosity,
		ShearStress: units.PascalsShear(1.5),
	}
}

func mustGenerate(t *testing.T, spec Spec) *Design {
	t.Helper()
	d, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate(%s): %v", spec.Name, err)
	}
	return d
}

// TestExample1LiverModule reproduces the paper's Example 1 numbers: a
// 1e-6 kg organism gives a liver module of ≈1.4286e-8 kg and length
// ≈89 µm at 1 mm width and 150 µm tissue height.
func TestExample1LiverModule(t *testing.T) {
	res, err := Derive(maleSimpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	liver := res.Modules[1]
	if math.Abs(liver.Mass.Kilograms()-1.42857e-8) > 1e-12 {
		t.Fatalf("liver mass %g kg, want 1.42857e-8", liver.Mass.Kilograms())
	}
	if math.Abs(liver.Width.Millimetres()-1) > 1e-9 {
		t.Fatalf("module width %v, want 1 mm", liver.Width)
	}
	if math.Abs(liver.Length.Micrometres()-89) > 2 {
		t.Fatalf("liver module length %v, want ≈89 µm", liver.Length)
	}
	if math.Abs(liver.TissueHeight.Micrometres()-150) > 1e-9 {
		t.Fatalf("tissue height %v, want 150 µm", liver.TissueHeight)
	}
}

// TestExample2LiverPerfusion reproduces Example 2: liver volume
// exchange 55.4 % at dilution 2, connection flow = perf·Q, discharge
// share 44.6 %.
func TestExample2LiverPerfusion(t *testing.T) {
	res, err := Derive(maleSimpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	liver := res.Modules[1]
	if math.Abs(liver.Perfusion-0.554) > 1e-3 {
		t.Fatalf("liver perfusion %.4f, want 0.554", liver.Perfusion)
	}
	plan, err := PlanFlows(res)
	if err != nil {
		t.Fatal(err)
	}
	qc := float64(plan.Connection[1]) / float64(plan.Module[1])
	if math.Abs(qc-0.554) > 1e-3 {
		t.Fatalf("connection share %.4f", qc)
	}
	qd := float64(plan.Discharge[0]) / float64(plan.Module[0])
	_ = qd // discharge of module 0 depends on module 1's connection; checked below
	// Discharge before the liver carries (1 − perf_liver)·Q.
	if math.Abs(float64(plan.Discharge[0])/float64(plan.Module[0])-(1-0.554)) > 1e-3 {
		t.Fatalf("discharge share %.4f, want 0.446", float64(plan.Discharge[0])/float64(plan.Module[0]))
	}
}

// TestFig4IntendedFlow: at the Fig. 4 operating point all module
// channels are specified at 7.8125e-9 m³/s.
func TestFig4IntendedFlow(t *testing.T) {
	res, err := Derive(maleSimpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Modules {
		if math.Abs(m.FlowRate.CubicMetresPerSecond()-7.8125e-9) > 1e-20 {
			t.Fatalf("module %s flow %g, want 7.8125e-9", m.Name, m.FlowRate.CubicMetresPerSecond())
		}
	}
}

func TestPlanFlowsKCL(t *testing.T) {
	res, err := Derive(maleSimpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFlows(res)
	if err != nil {
		t.Fatal(err)
	}
	if r := plan.CheckKCL(); r > 1e-12 {
		t.Fatalf("KCL residual %g", r)
	}
	in, out, rec := plan.Pumps()
	if math.Abs(float64(in)-float64(out)) > 1e-24 {
		t.Fatalf("inlet %v != outlet %v", in, out)
	}
	if float64(rec) <= 0 {
		t.Fatal("recirculation pump must be positive")
	}
}

func TestGenerateMaleSimple(t *testing.T) {
	d := mustGenerate(t, maleSimpleSpec())
	if len(d.Modules) != 3 {
		t.Fatalf("module count %d", len(d.Modules))
	}
	// Designer-model KVL must hold to rounding.
	if r := d.KVLResidual(); r > 1e-6 {
		t.Fatalf("KVL residual %g", r)
	}
	// No design-rule violations.
	if v := d.DesignRuleCheck(); len(v) != 0 {
		t.Fatalf("DRC violations: %v", v)
	}
	// All channel paths valid, rectilinear, non-self-intersecting.
	for _, c := range d.Channels {
		if err := c.Path.Validate(); err != nil {
			t.Fatalf("channel %s: %v", c.Name, err)
		}
		if !c.Path.IsRectilinear() {
			t.Fatalf("channel %s not rectilinear", c.Name)
		}
		if c.Path.SelfIntersects() {
			t.Fatalf("channel %s self-intersects", c.Name)
		}
		if c.Length <= 0 || c.DesignFlow <= 0 {
			t.Fatalf("channel %s: non-positive length/flow", c.Name)
		}
	}
	// Vertical channels at least as long as their offsets.
	for _, c := range d.ChannelsOfKind(SupplyChannel) {
		if float64(c.Length) < float64(d.SupplyOffset)*(1-1e-9) {
			t.Fatalf("supply %d shorter than offset", c.Index)
		}
	}
	for _, c := range d.ChannelsOfKind(DischargeChannel) {
		if float64(c.Length) < float64(d.DischargeOffset)*(1-1e-9) {
			t.Fatalf("discharge %d shorter than offset", c.Index)
		}
	}
}

// TestSupplyLengthsIncrease: the paper's procedure "ensures that the
// supply and discharge channels strictly increase".
func TestSupplyLengthsIncrease(t *testing.T) {
	d := mustGenerate(t, maleSimpleSpec())
	sup := d.ChannelsOfKind(SupplyChannel)
	for i := 1; i < len(sup); i++ {
		if sup[i].DesignPressureDrop < sup[i-1].DesignPressureDrop {
			// The ΔP profile may dip when a feed segment drop exceeds
			// the module+connection drops, but lengths never dip below
			// the offset; only check ΔP stays positive here.
			if sup[i].DesignPressureDrop <= 0 {
				t.Fatalf("supply %d: non-positive ΔP", i)
			}
		}
	}
	dis := d.ChannelsOfKind(DischargeChannel)
	for i := 0; i+1 < len(dis); i++ {
		if dis[i].DesignPressureDrop < dis[i+1].DesignPressureDrop {
			t.Fatalf("discharge ΔP must increase towards module 0: %v vs %v",
				dis[i].DesignPressureDrop, dis[i+1].DesignPressureDrop)
		}
	}
}

func TestGenerateWithRoundTissue(t *testing.T) {
	spec := maleSimpleSpec()
	spec.Name = "with_tumor"
	spec.Modules = append(spec.Modules, ModuleSpec{
		Name:      "tumor",
		Kind:      Round,
		Mass:      units.Milligrams(0.02), // 20 µg spheroid
		Perfusion: 0.2,
	})
	d := mustGenerate(t, spec)
	tumor := d.Modules[3]
	if tumor.Radius <= 0 || tumor.Radius > MaxSpheroidRadius {
		t.Fatalf("tumor radius %v", tumor.Radius)
	}
	// Round tissue defines module width = 4r for the whole chip.
	want := 4 * float64(tumor.Radius)
	if math.Abs(float64(d.Resolved.ModuleWidth)-want) > 1e-15 {
		t.Fatalf("module width %v, want 4r = %g", d.Resolved.ModuleWidth, want)
	}
	if r := d.KVLResidual(); r > 1e-6 {
		t.Fatalf("KVL residual %g", r)
	}
	if v := d.DesignRuleCheck(); len(v) != 0 {
		t.Fatalf("DRC violations: %v", v)
	}
}

func TestRoundTissueTooLargeRejected(t *testing.T) {
	spec := maleSimpleSpec()
	spec.Modules = []ModuleSpec{
		{Name: "megasphere", Kind: Round, Mass: units.Grams(1), Perfusion: 0.3},
	}
	if _, err := Generate(spec); err == nil {
		t.Fatal("oversized spheroid accepted (vascularization limit)")
	}
}

func TestSpecValidation(t *testing.T) {
	ok := maleSimpleSpec()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	bad := maleSimpleSpec()
	bad.Modules = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty module list accepted")
	}

	bad = maleSimpleSpec()
	bad.ShearStress = units.PascalsShear(5) // outside the endothelial window
	if err := bad.Validate(); err == nil {
		t.Error("shear stress outside [1,2] Pa accepted")
	}

	bad = maleSimpleSpec()
	bad.Modules[0].Perfusion = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("perfusion ≥ 1 accepted")
	}

	bad = maleSimpleSpec()
	bad.Modules = append(bad.Modules, ModuleSpec{Organ: physio.Lung, Kind: Layered})
	if err := bad.Validate(); err == nil {
		t.Error("duplicate module name accepted")
	}

	bad = maleSimpleSpec()
	bad.OrganismMass = 0
	if err := bad.Validate(); err == nil {
		t.Error("missing organism mass and anchor accepted")
	}

	bad = maleSimpleSpec()
	bad.Modules[0] = ModuleSpec{Name: "custom", Kind: Layered} // no organ, no mass
	if err := bad.Validate(); err == nil {
		t.Error("custom module without mass/perfusion accepted")
	}
}

func TestAnchorModuleDerivesOrganismMass(t *testing.T) {
	spec := maleSimpleSpec()
	spec.OrganismMass = 0
	spec.AnchorModule = "liver"
	spec.Modules[1].Mass = units.Kilograms(1.42857e-8)
	res, err := Derive(spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.OrganismMass.Kilograms()-1e-6) > 1e-11 {
		t.Fatalf("organism mass %g, want 1e-6", res.OrganismMass.Kilograms())
	}
}

func TestSingleModuleChip(t *testing.T) {
	spec := maleSimpleSpec()
	spec.Name = "liver_only"
	spec.Modules = []ModuleSpec{{Organ: physio.Liver, Kind: Layered}}
	d := mustGenerate(t, spec)
	if len(d.Channels) == 0 {
		t.Fatal("no channels")
	}
	// Single module: no feed/drain segments, but leads and verticals.
	if got := len(d.ChannelsOfKind(FeedSegment)); got != 0 {
		t.Fatalf("feed segments: %d", got)
	}
	if got := len(d.ChannelsOfKind(SupplyChannel)); got != 1 {
		t.Fatalf("supply channels: %d", got)
	}
	if v := d.DesignRuleCheck(); len(v) != 0 {
		t.Fatalf("DRC: %v", v)
	}
}

func TestScalesToEightModules(t *testing.T) {
	spec := maleSimpleSpec()
	spec.Name = "generic8"
	spec.Modules = nil
	for i := 0; i < 8; i++ {
		spec.Modules = append(spec.Modules, ModuleSpec{
			Name:  fmt8("liver", i),
			Organ: physio.Liver,
			Kind:  Layered,
		})
	}
	d := mustGenerate(t, spec)
	if len(d.Modules) != 8 {
		t.Fatalf("modules: %d", len(d.Modules))
	}
	if r := d.KVLResidual(); r > 1e-6 {
		t.Fatalf("KVL residual %g", r)
	}
	if v := d.DesignRuleCheck(); len(v) != 0 {
		t.Fatalf("DRC violations (%d): first %v", len(v), v[0])
	}
}

// TestModuleCountBound: a specification of 16 modules still
// generates; one more module is rejected, naming the limit.
func TestModuleCountBound(t *testing.T) {
	spec := maleSimpleSpec()
	spec.Modules = nil
	for i := 0; i < 17; i++ {
		spec.Modules = append(spec.Modules, ModuleSpec{
			Name:  "liver" + strconv.Itoa(i),
			Organ: physio.Liver,
			Kind:  Layered,
		})
	}
	if _, err := Generate(spec); err == nil || !strings.Contains(err.Error(), "limit of 16") {
		t.Fatalf("17 modules: got %v, want an error naming the limit of 16", err)
	}
	spec.Modules = spec.Modules[:16]
	if d := mustGenerate(t, spec); len(d.Modules) != 16 {
		t.Fatalf("modules: %d", len(d.Modules))
	}
}

// TestMassBound: the 16-module corner generates at MaxMass, with the
// organism mass and with every module's mass at the bound; a mass above
// it is rejected whether it is given, derived from an anchor module or
// derived by allometric scaling, naming the limit.
func TestMassBound(t *testing.T) {
	spec := maleSimpleSpec()
	spec.OrganismMass = MaxMass
	spec.Modules = nil
	for i := 0; i < MaxModules; i++ {
		spec.Modules = append(spec.Modules, ModuleSpec{
			Name:  "liver" + strconv.Itoa(i),
			Organ: physio.Liver,
			Kind:  Layered,
		})
	}
	mustGenerate(t, spec)
	for i := range spec.Modules {
		spec.Modules[i].Mass = MaxMass
	}
	mustGenerate(t, spec)

	over := units.Kilograms(2 * MaxMass.Kilograms())
	given := maleSimpleSpec()
	given.OrganismMass = over
	module := maleSimpleSpec()
	module.Modules[1].Mass = over
	anchored := maleSimpleSpec()
	anchored.OrganismMass = 0
	anchored.Modules[0].Mass = units.Kilograms(1e-4) // a 0.1 g lung anchors a 14 g organism
	allometric := maleSimpleSpec()
	allometric.Modules[1].ScalingExponent = 0.01 // a liver of about 0.8 kg
	for name, c := range map[string]struct {
		spec Spec
		want string
	}{
		"given":      {given, "organism mass 0.002 kg exceeds the limit of 0.001 kg"},
		"module":     {module, `module "liver": mass 0.002 kg exceeds the limit`},
		"anchored":   {anchored, "derived organism mass"},
		"allometric": {allometric, `module "liver": mass`},
	} {
		if _, err := Derive(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, c.want)
		}
	}
}

// TestPerfusionFloor: an explicit perfusion below physio.MinPerfusion, a
// subnormal one included, is rejected; the floor itself is accepted.
func TestPerfusionFloor(t *testing.T) {
	for _, p := range []float64{5e-324, 1e-310, physio.MinPerfusion / 2, -0.1} {
		spec := maleSimpleSpec()
		spec.Modules[0].Perfusion = p
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "outside [0.001, 1)") {
			t.Errorf("perfusion %g: got %v, want an error naming [0.001, 1)", p, err)
		}
	}
	spec := maleSimpleSpec()
	spec.Modules[0].Perfusion = physio.MinPerfusion
	mustGenerate(t, spec)
}

func fmt8(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

// TestParameterSweepConverges runs the paper's evaluation grid on
// male_simple and checks that every instance generates and passes its
// internal invariants.
func TestParameterSweepConverges(t *testing.T) {
	for _, mu := range []units.Viscosity{physio.MediumViscosityLow, physio.MediumViscosityTypical, physio.MediumViscosityHigh} {
		for _, tau := range []units.ShearStress{units.PascalsShear(1.2), units.PascalsShear(1.5), units.PascalsShear(2.0)} {
			for _, sp := range []units.Length{units.Millimetres(0.5), units.Millimetres(1), units.Millimetres(1.5)} {
				spec := maleSimpleSpec()
				spec.Fluid.Viscosity = mu
				spec.ShearStress = tau
				spec.Geometry.Spacing = sp
				d, err := Generate(spec)
				if err != nil {
					t.Fatalf("µ=%g τ=%g s=%v: %v", float64(mu), float64(tau), sp, err)
				}
				if r := d.KVLResidual(); r > 1e-6 {
					t.Fatalf("µ=%g τ=%g s=%v: KVL residual %g", float64(mu), float64(tau), sp, r)
				}
				if v := d.DesignRuleCheck(); len(v) != 0 {
					t.Fatalf("µ=%g τ=%g s=%v: DRC %v", float64(mu), float64(tau), sp, v)
				}
			}
		}
	}
}

func TestPumpSettingsMatchPlan(t *testing.T) {
	d := mustGenerate(t, maleSimpleSpec())
	in, out, rec := d.Plan.Pumps()
	//ooclint:ignore floatcmp pump settings are copied verbatim from the plan
	if d.Pumps.Inlet != in || d.Pumps.Outlet != out || d.Pumps.Recirculation != rec {
		t.Fatal("pump settings diverge from the plan")
	}
	// Supply and discharge pumps equal (Sec. II-B-3).
	if math.Abs(float64(d.Pumps.Inlet-d.Pumps.Outlet)) > 1e-24 {
		t.Fatal("inlet and outlet pumps must match")
	}
}

func TestChipMetrics(t *testing.T) {
	d := mustGenerate(t, maleSimpleSpec())
	if d.ChipArea() <= 0 {
		t.Fatal("chip area must be positive")
	}
	if d.TotalChannelLength() <= 0 {
		t.Fatal("total channel length must be positive")
	}
	if d.Bounds.Empty() {
		t.Fatal("bounds empty")
	}
	if d.Iterations <= 0 {
		t.Fatal("iteration count missing")
	}
}

// TestMembraneSizing: membranes match the module footprint.
func TestMembraneSizing(t *testing.T) {
	res, err := Derive(maleSimpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Modules {
		want := float64(m.Width) * float64(m.Length)
		if math.Abs(float64(m.MembraneArea)-want) > 1e-18 {
			t.Fatalf("module %s membrane area %g, want %g", m.Name, float64(m.MembraneArea), want)
		}
	}
}

// TestFeedSegmentsConnectTaps: geometric consistency of the feed line.
func TestFeedSegmentsConnectTaps(t *testing.T) {
	d := mustGenerate(t, maleSimpleSpec())
	feeds := d.ChannelsOfKind(FeedSegment)
	sups := d.ChannelsOfKind(SupplyChannel)
	for _, f := range feeds {
		i := f.Index
		// Feed segment i ends where supply i starts.
		fEnd := f.Path.Points[len(f.Path.Points)-1]
		sStart := sups[i].Path.Points[0]
		if fEnd != sStart {
			t.Fatalf("feed-%d end %v != supply-%d start %v", i, fEnd, i, sStart)
		}
	}
	for _, s := range sups {
		// Supply ends at the module inlet on the row axis.
		end := s.Path.Points[len(s.Path.Points)-1]
		if end.Y != 0 || math.Abs(end.X-float64(d.Modules[s.Index].InletX)) > 1e-15 {
			t.Fatalf("supply-%d ends at %v, want module inlet", s.Index, end)
		}
	}
}

// TestAllometricScalingExtension: a sublinear exponent grows the
// module relative to linear scaling at miniaturized organism masses.
func TestAllometricScalingExtension(t *testing.T) {
	linear := maleSimpleSpec()
	resLin, err := Derive(linear)
	if err != nil {
		t.Fatal(err)
	}
	allo := maleSimpleSpec()
	allo.Modules[2].ScalingExponent = 0.76 // brain
	resAllo, err := Derive(allo)
	if err != nil {
		t.Fatal(err)
	}
	if resAllo.Modules[2].Mass <= resLin.Modules[2].Mass {
		t.Fatalf("sublinear brain scaling should give a heavier module: %g vs %g",
			resAllo.Modules[2].Mass.Kilograms(), resLin.Modules[2].Mass.Kilograms())
	}
	// The other modules are unchanged.
	//ooclint:ignore floatcmp untouched values must match bit-for-bit
	if resAllo.Modules[1].Mass != resLin.Modules[1].Mass {
		t.Fatal("allometric option leaked to other modules")
	}
	// The chip still generates and passes invariants.
	d, err := Generate(allo)
	if err != nil {
		t.Fatal(err)
	}
	if r := d.KVLResidual(); r > 1e-6 {
		t.Fatalf("KVL residual %g", r)
	}
}

func TestScalingExponentValidation(t *testing.T) {
	bad := maleSimpleSpec()
	bad.Modules[0].ScalingExponent = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative exponent accepted")
	}
	bad.Modules[0].ScalingExponent = 2.5
	if err := bad.Validate(); err == nil {
		t.Fatal("exponent above 2 accepted")
	}
}

// TestGenerateNaiveBaseline: the baseline is structurally complete but
// violates the designer's KVL invariant by construction.
func TestGenerateNaiveBaseline(t *testing.T) {
	spec := maleSimpleSpec()
	naive, err := GenerateNaive(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Channels) == 0 || len(naive.Modules) != 3 {
		t.Fatal("baseline structurally incomplete")
	}
	corrected := mustGenerate(t, spec)
	if len(naive.Channels) != len(corrected.Channels) {
		t.Fatal("baseline must share the corrected topology")
	}
	if res := naive.KVLResidual(); res < 1e-3 {
		t.Fatalf("baseline should violate KVL, residual %g", res)
	}
	// Straight verticals at minimum length.
	for _, c := range naive.ChannelsOfKind(SupplyChannel) {
		wantLen := float64(naive.SupplyOffset) + 1.5*float64(naive.Resolved.Geometry.ChannelHeight) +
			float64(naive.Resolved.Geometry.Spacing)
		if math.Abs(float64(c.Length)-wantLen) > 1e-12 {
			t.Fatalf("baseline supply %d length %v, want offset+pitch", c.Index, c.Length)
		}
	}
	// Pumps identical to the corrected design (same flow plan).
	if naive.Pumps != corrected.Pumps {
		t.Fatal("baseline changed the pump settings")
	}
}

func TestGenerateNaiveInvalidSpec(t *testing.T) {
	bad := maleSimpleSpec()
	bad.Modules = nil
	if _, err := GenerateNaive(bad); err == nil {
		t.Fatal("invalid spec accepted by the baseline generator")
	}
}

// TestDilutionAffectsPerfusion: raising the dilution factor raises all
// derived perfusion factors proportionally (Eq. 4).
func TestDilutionAffectsPerfusion(t *testing.T) {
	spec := maleSimpleSpec()
	spec.Dilution = 1.0
	res1, err := Derive(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Dilution = 1.5
	res2, err := Derive(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Modules {
		ratio := res2.Modules[i].Perfusion / res1.Modules[i].Perfusion
		if math.Abs(ratio-1.5) > 1e-9 {
			t.Fatalf("module %d: dilution scaling ratio %g, want 1.5", i, ratio)
		}
	}
}

// TestGeometryDefaultsApplied: zero-valued geometry fields pick the
// documented defaults.
func TestGeometryDefaultsApplied(t *testing.T) {
	res, err := Derive(maleSimpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	g := res.Geometry
	if !testutil.Approx(g.ChannelHeight.Micrometres(), 150) {
		t.Fatalf("default channel height %v", g.ChannelHeight)
	}
	if !testutil.Approx(g.LayeredModuleWidth.Millimetres(), 1) {
		t.Fatalf("default module width %v", g.LayeredModuleWidth)
	}
	if !testutil.Approx(g.VerticalWidthFactor, 1.5) {
		t.Fatalf("default width factor %g", g.VerticalWidthFactor)
	}
}

// TestExtremeGeometryParameters: the generator stays correct at the
// edges of the sensible parameter space.
func TestExtremeGeometryParameters(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Spec)
	}{
		{"tight-spacing", func(s *Spec) { s.Geometry.Spacing = units.Micrometres(200) }},
		{"wide-spacing", func(s *Spec) { s.Geometry.Spacing = units.Millimetres(3) }},
		{"shallow-channels", func(s *Spec) { s.Geometry.ChannelHeight = units.Micrometres(60) }},
		{"tall-channels", func(s *Spec) { s.Geometry.ChannelHeight = units.Micrometres(400) }},
		{"tiny-offset", func(s *Spec) { s.Geometry.InitialOffset = units.Micrometres(500) }},
		{"huge-gap", func(s *Spec) { s.Geometry.MinGap = units.Millimetres(8) }},
		{"narrow-verticals", func(s *Spec) { s.Geometry.VerticalWidthFactor = 1.0 }},
		{"wide-verticals", func(s *Spec) { s.Geometry.VerticalWidthFactor = 4.0 }},
		{"big-organism", func(s *Spec) { s.OrganismMass = units.Kilograms(5e-5) }},
		{"small-organism", func(s *Spec) { s.OrganismMass = units.Kilograms(2e-7) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := maleSimpleSpec()
			c.mod(&spec)
			d, err := Generate(spec)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			if r := d.KVLResidual(); r > 1e-6 {
				t.Fatalf("KVL residual %g", r)
			}
			if v := d.DesignRuleCheck(); len(v) != 0 {
				t.Fatalf("DRC: %v", v)
			}
		})
	}
}

// TestHighPerfusionChain: several consecutive high-perfusion modules
// stress the supply-flow margins (Q_s = Q·(1−perf) small).
func TestHighPerfusionChain(t *testing.T) {
	spec := maleSimpleSpec()
	spec.Name = "high_perf"
	spec.Modules = nil
	for i := 0; i < 4; i++ {
		spec.Modules = append(spec.Modules, ModuleSpec{
			Name:      fmt8("organ", i),
			Organ:     physio.Liver,
			Kind:      Layered,
			Perfusion: 0.9,
		})
	}
	d := mustGenerate(t, spec)
	if r := d.KVLResidual(); r > 1e-6 {
		t.Fatalf("KVL residual %g", r)
	}
	if v := d.DesignRuleCheck(); len(v) != 0 {
		t.Fatalf("DRC: %v", v)
	}
}
