package specio

import (
	"encoding/json"
	"fmt"

	"ooc/internal/core"
)

// Canonical serializes a spec to byte-stable canonical JSON: object
// keys sorted lexicographically, no insignificant whitespace, and all
// quantities normalized to the SI units of the wire format (metres,
// kilograms, pascals, Pa·s) with Go's shortest-round-trip float
// rendering. Two specs that Parse to the same core.Spec produce the
// same canonical bytes regardless of the formatting, key order or
// defaulted fields of their source documents, which makes the output
// usable as an exact-match cache key — the serving layer keys its
// response cache on it. Parse(Canonical(x)) round-trips.
//
// It is one json.Marshal of FromSpec's document copied into
// canonicalFile, whose fields are declared in key order.
func Canonical(spec core.Spec) ([]byte, error) {
	// FromSpec normalizes: defaults are materialized (reference name,
	// tissue kinds, fluid properties) and quantities become SI floats.
	f := FromSpec(spec)
	c := canonicalFile{
		AnchorModule:   f.AnchorModule,
		ChannelHeightM: f.ChannelHeightM,
		DensityKgM3:    f.DensityKgM3,
		Dilution:       f.Dilution,
		Name:           f.Name,
		OrganismMassKg: f.OrganismMassKg,
		Reference:      f.Reference,
		ShearStressPa:  f.ShearStressPa,
		SpacingM:       f.SpacingM,
		ViscosityPaS:   f.ViscosityPaS,
	}
	if len(f.Modules) > 0 {
		// Left nil otherwise: File's nil modules encode as null.
		c.Modules = make([]canonicalModule, len(f.Modules))
	}
	for i, m := range f.Modules {
		c.Modules[i] = canonicalModule{
			MassKg:          m.MassKg,
			Name:            m.Name,
			Organ:           m.Organ,
			Perfusion:       m.Perfusion,
			ScalingExponent: m.ScalingExponent,
			Tissue:          m.Tissue,
		}
	}
	out, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("specio: canonicalize: %w", err)
	}
	return out, nil
}

// canonicalFile is File with its fields in lexicographic JSON-key
// order, so that json.Marshal writes the keys sorted. The keys and
// omitempty options are File's; TestCanonicalMirrorsFile holds them
// together, so a field added to File cannot drop out of the cache key.
type canonicalFile struct {
	AnchorModule   string            `json:"anchor_module,omitempty"`
	ChannelHeightM float64           `json:"channel_height_m,omitempty"`
	DensityKgM3    float64           `json:"density_kg_m3"`
	Dilution       float64           `json:"dilution,omitempty"`
	Modules        []canonicalModule `json:"modules"`
	Name           string            `json:"name"`
	OrganismMassKg float64           `json:"organism_mass_kg"`
	Reference      string            `json:"reference"`
	ShearStressPa  float64           `json:"shear_stress_pa"`
	SpacingM       float64           `json:"spacing_m,omitempty"`
	ViscosityPaS   float64           `json:"viscosity_pa_s"`
}

// canonicalModule is ModuleFile in key order, as canonicalFile is File.
type canonicalModule struct {
	MassKg          float64 `json:"mass_kg,omitempty"`
	Name            string  `json:"name,omitempty"`
	Organ           string  `json:"organ,omitempty"`
	Perfusion       float64 `json:"perfusion,omitempty"`
	ScalingExponent float64 `json:"scaling_exponent,omitempty"`
	Tissue          string  `json:"tissue,omitempty"`
}
