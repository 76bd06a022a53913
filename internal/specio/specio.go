// Package specio reads and writes OoC specifications as JSON files —
// the on-disk form of the paper's "formal specification" (Sec. III-A),
// used by the oocgen tool and by anyone scripting chip generation.
//
// Example document:
//
//	{
//	  "name": "my_chip",
//	  "reference": "male",
//	  "organism_mass_kg": 1e-6,
//	  "viscosity_pa_s": 7.2e-4,
//	  "shear_stress_pa": 1.5,
//	  "spacing_m": 1e-3,
//	  "modules": [
//	    {"organ": "lung", "tissue": "layered"},
//	    {"organ": "liver", "tissue": "layered"},
//	    {"name": "tumor", "tissue": "round", "mass_kg": 2e-8, "perfusion": 0.2}
//	  ]
//	}
package specio

import (
	"encoding/json"
	"fmt"

	"ooc/internal/core"
	"ooc/internal/fluid"
	"ooc/internal/physio"
	"ooc/internal/units"
)

// File is the JSON schema of a specification document. Zero-valued
// optional fields select the library defaults.
type File struct {
	Name           string       `json:"name"`
	Reference      string       `json:"reference"` // "male" (default) or "female"
	OrganismMassKg float64      `json:"organism_mass_kg"`
	AnchorModule   string       `json:"anchor_module,omitempty"`
	ViscosityPaS   float64      `json:"viscosity_pa_s"`
	DensityKgM3    float64      `json:"density_kg_m3"`
	ShearStressPa  float64      `json:"shear_stress_pa"`
	Dilution       float64      `json:"dilution,omitempty"`
	SpacingM       float64      `json:"spacing_m,omitempty"`
	ChannelHeightM float64      `json:"channel_height_m,omitempty"`
	Modules        []ModuleFile `json:"modules"`
}

// ModuleFile is one organ module in a File.
type ModuleFile struct {
	Name            string  `json:"name,omitempty"`
	Organ           string  `json:"organ,omitempty"`
	Tissue          string  `json:"tissue,omitempty"` // "layered" (default) or "round"
	MassKg          float64 `json:"mass_kg,omitempty"`
	Perfusion       float64 `json:"perfusion,omitempty"`
	ScalingExponent float64 `json:"scaling_exponent,omitempty"`
}

// Parse converts a JSON document into a core.Spec.
func Parse(raw []byte) (core.Spec, error) {
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return core.Spec{}, fmt.Errorf("specio: %w", err)
	}
	return f.ToSpec()
}

// ToSpec converts the document form into a core.Spec.
func (f File) ToSpec() (core.Spec, error) {
	spec := core.Spec{
		Name:         f.Name,
		OrganismMass: units.Kilograms(f.OrganismMassKg),
		AnchorModule: f.AnchorModule,
		ShearStress:  units.PascalsShear(f.ShearStressPa),
		Dilution:     f.Dilution,
	}
	switch f.Reference {
	case "", "male":
		spec.Reference = physio.StandardMale()
	case "female":
		spec.Reference = physio.StandardFemale()
	default:
		return core.Spec{}, fmt.Errorf("specio: unknown reference %q (male or female)", f.Reference)
	}
	// Only an absent (zero) viscosity or density selects the default;
	// any other value, a negative one included, meets physio's windows.
	fl := fluid.MediumLowViscosity
	if f.ViscosityPaS != 0 {
		fl.Viscosity = units.PascalSeconds(f.ViscosityPaS)
	}
	if f.DensityKgM3 != 0 {
		fl.Density = units.KilogramsPerCubicMetre(f.DensityKgM3)
	}
	// Refuse a fluid outside physio's windows before any work is done
	// on it, as for the module count below.
	if err := fl.Validate(); err != nil {
		return core.Spec{}, fmt.Errorf("specio: %w", err)
	}
	spec.Fluid = fl
	// Likewise only an absent (zero) spacing or channel height selects
	// core's default; a negative one is refused here.
	if f.SpacingM < 0 {
		return core.Spec{}, fmt.Errorf("specio: negative spacing_m %g", f.SpacingM)
	}
	if f.ChannelHeightM < 0 {
		return core.Spec{}, fmt.Errorf("specio: negative channel_height_m %g", f.ChannelHeightM)
	}
	spec.Geometry.Spacing = units.Metres(f.SpacingM)
	spec.Geometry.ChannelHeight = units.Metres(f.ChannelHeightM)
	// Refuse an explicit mass above core's bound before any work is
	// done on it: the chip grows with the mass.
	if err := core.CheckMass(spec.OrganismMass); err != nil {
		return core.Spec{}, fmt.Errorf("specio: organism_mass_kg: %w", err)
	}
	// Bound the module count before converting a single module, so an
	// oversized document is refused before any work is done on it.
	if err := core.CheckModuleCount(len(f.Modules)); err != nil {
		return core.Spec{}, fmt.Errorf("specio: %w", err)
	}
	for _, m := range f.Modules {
		name := m.Name
		if name == "" {
			name = m.Organ
		}
		if err := core.CheckMass(units.Kilograms(m.MassKg)); err != nil {
			return core.Spec{}, fmt.Errorf("specio: module %q: mass_kg: %w", name, err)
		}
		if err := core.CheckPerfusion(m.Perfusion); err != nil {
			return core.Spec{}, fmt.Errorf("specio: module %q: %w", name, err)
		}
		ms := core.ModuleSpec{
			Name:            m.Name,
			Organ:           physio.OrganID(m.Organ),
			Mass:            units.Kilograms(m.MassKg),
			Perfusion:       m.Perfusion,
			ScalingExponent: m.ScalingExponent,
		}
		switch m.Tissue {
		case "", "layered":
			ms.Kind = core.Layered
		case "round":
			ms.Kind = core.Round
		default:
			return core.Spec{}, fmt.Errorf("specio: module %q: unknown tissue %q", m.Name, m.Tissue)
		}
		spec.Modules = append(spec.Modules, ms)
	}
	return spec, nil
}

// FromSpec converts a core.Spec back into its document form (for
// saving generated or programmatic specs).
func FromSpec(spec core.Spec) File {
	f := File{
		Name:           spec.Name,
		OrganismMassKg: spec.OrganismMass.Kilograms(),
		AnchorModule:   spec.AnchorModule,
		ViscosityPaS:   spec.Fluid.Viscosity.PascalSeconds(),
		DensityKgM3:    spec.Fluid.Density.KilogramsPerCubicMetre(),
		ShearStressPa:  spec.ShearStress.Pascals(),
		Dilution:       spec.Dilution,
		SpacingM:       spec.Geometry.Spacing.Metres(),
		ChannelHeightM: spec.Geometry.ChannelHeight.Metres(),
	}
	switch spec.Reference.Name {
	case physio.StandardFemale().Name:
		f.Reference = "female"
	default:
		f.Reference = "male"
	}
	for _, m := range spec.Modules {
		mf := ModuleFile{
			Name:            m.Name,
			Organ:           string(m.Organ),
			MassKg:          m.Mass.Kilograms(),
			Perfusion:       m.Perfusion,
			ScalingExponent: m.ScalingExponent,
		}
		if m.Kind == core.Round {
			mf.Tissue = "round"
		} else {
			mf.Tissue = "layered"
		}
		f.Modules = append(f.Modules, mf)
	}
	return f
}

// Marshal serializes a spec document with indentation.
func Marshal(spec core.Spec) ([]byte, error) {
	out, err := json.MarshalIndent(FromSpec(spec), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("specio: %w", err)
	}
	return out, nil
}
