package specio

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ooc/internal/core"
	"ooc/internal/physio"
)

const sampleDoc = `{
  "name": "my_chip",
  "reference": "female",
  "organism_mass_kg": 1e-6,
  "viscosity_pa_s": 9.3e-4,
  "shear_stress_pa": 1.2,
  "spacing_m": 0.5e-3,
  "modules": [
    {"organ": "lung", "tissue": "layered"},
    {"organ": "liver", "tissue": "layered"},
    {"name": "tumor", "tissue": "round", "mass_kg": 2e-8, "perfusion": 0.2}
  ]
}`

func TestParseSampleDoc(t *testing.T) {
	spec, err := Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "my_chip" {
		t.Fatalf("name %q", spec.Name)
	}
	if !strings.Contains(spec.Reference.Name, "female") {
		t.Fatalf("reference %q", spec.Reference.Name)
	}
	//ooclint:ignore floatcmp parsed values are copied verbatim
	if spec.Fluid.Viscosity.PascalSeconds() != 9.3e-4 {
		t.Fatal("viscosity not applied")
	}
	//ooclint:ignore floatcmp parsed values are copied verbatim
	if spec.ShearStress.Pascals() != 1.2 {
		t.Fatal("shear not applied")
	}
	//ooclint:ignore floatcmp parsed values are copied verbatim
	if spec.Geometry.Spacing.Metres() != 0.5e-3 {
		t.Fatal("spacing not applied")
	}
	if len(spec.Modules) != 3 {
		t.Fatalf("modules %d", len(spec.Modules))
	}
	//ooclint:ignore floatcmp parsed values are copied verbatim
	if spec.Modules[2].Kind != core.Round || spec.Modules[2].Perfusion != 0.2 {
		t.Fatalf("tumor module: %+v", spec.Modules[2])
	}
	// The parsed spec must be generate-able.
	if _, err := core.Generate(spec); err != nil {
		t.Fatalf("generated spec invalid: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte("not json")); err == nil {
		t.Error("invalid JSON accepted")
	}
	if _, err := Parse([]byte(`{"reference": "alien"}`)); err == nil {
		t.Error("unknown reference accepted")
	}
	if _, err := Parse([]byte(`{"modules": [{"organ": "liver", "tissue": "cubic"}]}`)); err == nil {
		t.Error("unknown tissue accepted")
	}
}

// TestModuleCountBound: a document of 16 modules parses; one more
// module is rejected at parse, naming the limit.
func TestModuleCountBound(t *testing.T) {
	doc := func(n int) []byte {
		var b strings.Builder
		b.WriteString(`{"organism_mass_kg": 1e-6, "shear_stress_pa": 1.5, "modules": [`)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `{"name": "liver%d", "organ": "liver"}`, i)
		}
		b.WriteString("]}")
		return []byte(b.String())
	}
	if _, err := Parse(doc(17)); err == nil || !strings.Contains(err.Error(), "limit of 16") {
		t.Fatalf("17 modules: got %v, want an error naming the limit of 16", err)
	}
	spec, err := Parse(doc(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Modules) != 16 {
		t.Fatalf("modules %d", len(spec.Modules))
	}
}

func TestRoundTrip(t *testing.T) {
	spec, err := Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != spec.Name ||
		len(back.Modules) != len(spec.Modules) ||
		//ooclint:ignore floatcmp round-trip preserves values bit-for-bit
		back.ShearStress != spec.ShearStress ||
		//ooclint:ignore floatcmp round-trip preserves values bit-for-bit
		back.Fluid.Viscosity != spec.Fluid.Viscosity {
		t.Fatal("round trip lost fields")
	}
	if !strings.Contains(back.Reference.Name, "female") {
		t.Fatal("round trip lost reference sex")
	}
	if back.Modules[2].Kind != core.Round {
		t.Fatal("round trip lost tissue kind")
	}
	if math.Abs(back.Modules[2].Mass.Kilograms()-2e-8) > 1e-20 {
		t.Fatal("round trip lost module mass")
	}
}

func TestDefaults(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "defaults",
		"organism_mass_kg": 1e-6,
		"shear_stress_pa": 1.5,
		"modules": [{"organ": "liver"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(spec.Reference.Name, "male") {
		t.Fatal("default reference should be male")
	}
	//ooclint:ignore floatcmp parsed values are copied verbatim
	if spec.Fluid.Viscosity.PascalSeconds() != 7.2e-4 {
		t.Fatal("default fluid should be the low-viscosity medium")
	}
	if spec.Modules[0].Kind != core.Layered {
		t.Fatal("default tissue should be layered")
	}
	if _, err := core.Generate(spec); err != nil {
		t.Fatalf("defaulted spec invalid: %v", err)
	}
}

// TestNegativeFluidRejected: only an absent viscosity or density
// selects the default medium; a negative one is refused at parse,
// naming the quantity.
func TestNegativeFluidRejected(t *testing.T) {
	for _, c := range []struct{ fields, want string }{
		{`"viscosity_pa_s": -1, "density_kg_m3": -5`, "viscosity "},
		{`"viscosity_pa_s": -1`, "viscosity "},
		{`"density_kg_m3": -5`, "density "},
	} {
		doc := `{"organism_mass_kg": 1e-6, "shear_stress_pa": 1.5, ` + c.fields + `, "modules": [{"organ": "liver"}]}`
		if _, err := Parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming the %s", c.fields, err, c.want)
		}
	}
}

func TestScalingExponentCarried(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "allo",
		"organism_mass_kg": 1e-6,
		"shear_stress_pa": 1.5,
		"modules": [{"organ": "brain", "scaling_exponent": 0.76}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	//ooclint:ignore floatcmp parsed values are copied verbatim
	if spec.Modules[0].ScalingExponent != 0.76 {
		t.Fatal("scaling exponent lost")
	}
	res, err := core.Derive(spec)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := physio.ModuleMass(physio.Brain, spec.OrganismMass, &spec.Reference)
	if err != nil {
		t.Fatal(err)
	}
	if res.Modules[0].Mass <= lin {
		t.Fatal("allometric scaling not applied through specio")
	}
}
