package physio

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ooc/internal/units"
)

func almostEqual(a, b, rel float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*den
}

// TestExample1ModuleMass reproduces the paper's Example 1: a
// miniaturized organism of 1e-6 kg has a liver module of approximately
// 1.42e-8 kg.
func TestExample1ModuleMass(t *testing.T) {
	ref := StandardMale()
	m, err := ModuleMass(Liver, units.Kilograms(1e-6), &ref)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.Kilograms(), 1.42857e-8, 1e-4) {
		t.Fatalf("liver module mass = %g kg, want ≈1.42857e-8", m.Kilograms())
	}
}

// TestExample2Perfusion reproduces the paper's Example 2: liver blood
// flow 1450 mL/min with dilution 2 gives a 55.4 % volume exchange.
func TestExample2Perfusion(t *testing.T) {
	ref := StandardMale()
	perf, err := Perfusion(Liver, &ref, DefaultDilution)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(perf-0.554) > 0.001 {
		t.Fatalf("liver perfusion = %.4f, want 0.554", perf)
	}
	// The discharge/supply share is the remainder: 44.6 %.
	if math.Abs((1-perf)-0.446) > 0.001 {
		t.Fatalf("discharge share = %.4f, want 0.446", 1-perf)
	}
}

// TestScalingInverse checks that Eq. 1 and Eq. 2 are mutual inverses.
func TestScalingInverse(t *testing.T) {
	ref := StandardMale()
	organs := []OrganID{Liver, Lung, Brain, Kidney, GITract}
	f := func(raw float64) bool {
		mm := units.Mass(1e-10 + math.Abs(raw)*1e-8)
		for _, organ := range organs {
			mb, err := OrganismMass(mm, &ref, organ)
			if err != nil {
				return false
			}
			back, err := ModuleMass(organ, mb, &ref)
			if err != nil {
				return false
			}
			if !almostEqual(float64(back), float64(mm), 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMassRatiosPreserved: linear scaling preserves organ mass ratios,
// the property the paper motivates ("the same mass relation as in the
// represented organism").
func TestMassRatiosPreserved(t *testing.T) {
	ref := StandardMale()
	mb := units.Kilograms(3e-6)
	liver, err := ModuleMass(Liver, mb, &ref)
	if err != nil {
		t.Fatal(err)
	}
	brain, err := ModuleMass(Brain, mb, &ref)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := ref.Organ(Liver)
	bo, _ := ref.Organ(Brain)
	if !almostEqual(float64(liver)/float64(brain), float64(lo.Mass)/float64(bo.Mass), 1e-12) {
		t.Fatal("organ mass ratio not preserved by scaling")
	}
}

func TestPerfusionAllUseCaseOrgansRealizable(t *testing.T) {
	// All organs used by the paper's use cases must have perf < 1 at
	// dilution 2 in both references.
	for _, ref := range []Reference{StandardMale(), StandardFemale()} {
		for _, organ := range []OrganID{Liver, Lung, Brain, Kidney, GITract} {
			perf, err := Perfusion(organ, &ref, DefaultDilution)
			if err != nil {
				t.Errorf("%s / %s: %v", ref.Name, organ, err)
				continue
			}
			if perf <= 0 || perf >= 1 {
				t.Errorf("%s / %s: perf %.3f out of (0,1)", ref.Name, organ, perf)
			}
		}
	}
}

func TestPerfusionUnrealizable(t *testing.T) {
	ref := StandardMale()
	// At an extreme dilution the liver perfusion exceeds 1.
	if _, err := Perfusion(Liver, &ref, 5); err == nil {
		t.Fatal("perfusion ≥ 1 must be rejected")
	}
	if _, err := Perfusion(Liver, &ref, 0); err == nil {
		t.Fatal("zero dilution must be rejected")
	}
	if _, err := Perfusion("nonexistent", &ref, 2); err == nil {
		t.Fatal("unknown organ must be rejected")
	}
}

func TestTissueVolumeExample1Geometry(t *testing.T) {
	// Example 1: the 1.4286e-8 kg liver module yields a module length
	// of ≈89 µm at 1 mm width and 150 µm tissue height.
	v := TissueVolume(units.Kilograms(1.42857e-8))
	length := v.CubicMetres() / (1e-3 * 150e-6)
	if math.Abs(length-89e-6) > 2e-6 {
		t.Fatalf("module length = %.3g m, want ≈89 µm", length)
	}
}

func TestReferencesValid(t *testing.T) {
	for _, ref := range []Reference{StandardMale(), StandardFemale()} {
		if err := ref.Validate(); err != nil {
			t.Errorf("%s: %v", ref.Name, err)
		}
	}
}

func TestReferenceCloningIsolation(t *testing.T) {
	a := StandardMale()
	b := StandardMale()
	if err := a.SetOrgan(OrganRef{ID: Tumor, Name: "tumor", Mass: units.Grams(20), BloodFlow: units.MillilitresPerMinute(40)}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Organ(Tumor); err == nil {
		t.Fatal("mutation of one copy leaked into another")
	}
	if _, err := a.Organ(Tumor); err != nil {
		t.Fatal("organ not inserted")
	}
}

// TestReferenceValueCopyIsolation: a value copy of a standard
// reference shares its organ table, so SetOrgan on the copy must
// leave the original and the standard table untouched.
func TestReferenceValueCopyIsolation(t *testing.T) {
	a := StandardMale()
	c := a
	if err := c.SetOrgan(OrganRef{ID: Tumor, Name: "tumor", Mass: units.Grams(20), BloodFlow: units.MillilitresPerMinute(40)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Organ(Tumor); err != nil {
		t.Fatal("organ not inserted")
	}
	fresh := StandardMale()
	for name, r := range map[string]*Reference{"original": &a, "fresh StandardMale()": &fresh} {
		if _, err := r.Organ(Tumor); err == nil {
			t.Errorf("SetOrgan on a value copy leaked into the %s", name)
		}
	}
}

func TestSetOrganValidation(t *testing.T) {
	ref := StandardMale()
	if err := ref.SetOrgan(OrganRef{Name: "no id", Mass: 1}); err == nil {
		t.Error("missing ID accepted")
	}
	if err := ref.SetOrgan(OrganRef{ID: "x", Mass: 0}); err == nil {
		t.Error("zero mass accepted")
	}
	if err := ref.SetOrgan(OrganRef{ID: "x", Mass: 1, BloodFlow: -1}); err == nil {
		t.Error("negative blood flow accepted")
	}
}

func TestOrgansSorted(t *testing.T) {
	ref := StandardMale()
	organs := ref.Organs()
	if len(organs) < 5 {
		t.Fatalf("expected a populated organ table, got %d entries", len(organs))
	}
	for i := 1; i < len(organs); i++ {
		if organs[i-1].ID >= organs[i].ID {
			t.Fatal("Organs() not sorted by ID")
		}
	}
}

func TestScaledBloodVolume(t *testing.T) {
	ref := StandardMale()
	v, err := ScaledBloodVolume(units.Kilograms(1e-6), &ref)
	if err != nil {
		t.Fatal(err)
	}
	// 5200 mL scaled by 1e-6/70.
	want := 5200e-6 * 1e-6 / 70
	if !almostEqual(v.CubicMetres(), want, 1e-9) {
		t.Fatalf("scaled blood volume = %g, want %g", v.CubicMetres(), want)
	}
	if _, err := ScaledBloodVolume(0, &ref); err == nil {
		t.Fatal("zero organism mass accepted")
	}
}

func TestValidateCatchesCorruptTables(t *testing.T) {
	ref := StandardMale()
	// Organ heavier than the body.
	if err := ref.SetOrgan(OrganRef{ID: "whale", Name: "w", Mass: units.Kilograms(100), BloodFlow: 0}); err != nil {
		t.Fatal(err)
	}
	if err := ref.Validate(); err == nil {
		t.Fatal("organ heavier than body accepted")
	}

	ref2 := StandardMale()
	if err := ref2.SetOrgan(OrganRef{ID: "firehose", Name: "f", Mass: units.Grams(10),
		BloodFlow: units.MillilitresPerMinute(99999)}); err != nil {
		t.Fatal(err)
	}
	if err := ref2.Validate(); err == nil {
		t.Fatal("organ blood flow above cardiac output accepted")
	}
}

func TestOrganismMassRandomConsistency(t *testing.T) {
	ref := StandardMale()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		mm := units.Mass(1e-9 * (1 + rng.Float64()*100))
		mb, err := OrganismMass(mm, &ref, Brain)
		if err != nil {
			t.Fatal(err)
		}
		// Eq. 1: M_b/M_m = M_h/M_Tissue.
		organ, _ := ref.Organ(Brain)
		if !almostEqual(float64(mb)/float64(mm), float64(ref.BodyMass)/float64(organ.Mass), 1e-12) {
			t.Fatal("Eq. 1 ratio violated")
		}
	}
}

func TestAllometricReducesToLinear(t *testing.T) {
	ref := StandardMale()
	mb := units.Kilograms(1e-6)
	linear, err := ModuleMass(Liver, mb, &ref)
	if err != nil {
		t.Fatal(err)
	}
	allo, err := ModuleMassAllometric(Liver, mb, &ref, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(float64(linear), float64(allo), 1e-12) {
		t.Fatalf("b=1 should equal linear: %g vs %g", float64(linear), float64(allo))
	}
}

func TestAllometricSublinearGivesRelativelyLargerOrgans(t *testing.T) {
	// For a miniaturized organism, b < 1 yields a heavier module than
	// linear scaling — small animals have relatively larger brains.
	ref := StandardMale()
	mb := units.Kilograms(1e-6)
	linear, err := ModuleMass(Brain, mb, &ref)
	if err != nil {
		t.Fatal(err)
	}
	allo, err := ModuleMassAllometric(Brain, mb, &ref, TypicalAllometricExponent(Brain))
	if err != nil {
		t.Fatal(err)
	}
	if float64(allo) <= float64(linear) {
		t.Fatalf("sublinear scaling should give a larger module: %g vs %g",
			float64(allo), float64(linear))
	}
}

func TestAllometricValidation(t *testing.T) {
	ref := StandardMale()
	if _, err := ModuleMassAllometric(Liver, 0, &ref, 1); err == nil {
		t.Error("zero organism mass accepted")
	}
	if _, err := ModuleMassAllometric(Liver, 1e-6, &ref, 0); err == nil {
		t.Error("zero exponent accepted")
	}
	if _, err := ModuleMassAllometric(Liver, 1e-6, &ref, 3); err == nil {
		t.Error("exponent above 2 accepted")
	}
	if _, err := ModuleMassAllometric("nope", 1e-6, &ref, 1); err == nil {
		t.Error("unknown organ accepted")
	}
}

func TestTypicalExponentsInRange(t *testing.T) {
	for _, o := range []OrganID{Brain, Liver, Kidney, Lung, Heart, Skin, Tumor} {
		b := TypicalAllometricExponent(o)
		if b <= 0 || b > 1.0 {
			t.Fatalf("organ %s: exponent %g outside (0, 1]", o, b)
		}
	}
}
