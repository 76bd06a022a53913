package render

import (
	"fmt"

	"ooc/internal/core"
)

// DesignDoc is the portable JSON representation of a generated design.
// All quantities carry explicit units in the field names.
type DesignDoc struct {
	Name             string       `json:"name"`
	Modules          []ModuleDoc  `json:"modules"`
	Channels         []ChannelDoc `json:"channels"`
	Pumps            PumpsDoc     `json:"pumps"`
	SupplyOffsetM    float64      `json:"supply_offset_m"`
	DischargeOffsetM float64      `json:"discharge_offset_m"`
	ChipWidthM       float64      `json:"chip_width_m"`
	ChipHeightM      float64      `json:"chip_height_m"`
	Iterations       int          `json:"iterations"`
	// Fluid properties are carried so a loaded design can be
	// re-validated.
	FluidViscosityPaS float64 `json:"fluid_viscosity_pa_s"`
	FluidDensityKgM3  float64 `json:"fluid_density_kg_m3"`
}

// ModuleDoc serializes one organ module.
type ModuleDoc struct {
	Name           string  `json:"name"`
	Organ          string  `json:"organ,omitempty"`
	Tissue         string  `json:"tissue"`
	MassKg         float64 `json:"mass_kg"`
	WidthM         float64 `json:"width_m"`
	LengthM        float64 `json:"length_m"`
	RadiusM        float64 `json:"radius_m,omitempty"`
	MembraneAreaM2 float64 `json:"membrane_area_m2"`
	Perfusion      float64 `json:"perfusion"`
	FlowM3S        float64 `json:"flow_m3_per_s"`
	InletXM        float64 `json:"inlet_x_m"`
	OutletXM       float64 `json:"outlet_x_m"`
}

// ChannelDoc serializes one channel.
type ChannelDoc struct {
	Name       string       `json:"name"`
	Kind       string       `json:"kind"`
	Index      int          `json:"index"`
	WidthM     float64      `json:"width_m"`
	HeightM    float64      `json:"height_m"`
	LengthM    float64      `json:"length_m"`
	From       string       `json:"from"`
	To         string       `json:"to"`
	FlowM3S    float64      `json:"design_flow_m3_per_s"`
	PressurePa float64      `json:"design_pressure_drop_pa"`
	PathM      [][2]float64 `json:"path_m"`
}

// PumpsDoc serializes the pump settings.
type PumpsDoc struct {
	InletM3S         float64 `json:"inlet_m3_per_s"`
	OutletM3S        float64 `json:"outlet_m3_per_s"`
	RecirculationM3S float64 `json:"recirculation_m3_per_s"`
}

// ToDoc converts a design into its JSON document form.
func ToDoc(d *core.Design) DesignDoc {
	doc := DesignDoc{
		Name:              d.Name,
		SupplyOffsetM:     d.SupplyOffset.Metres(),
		DischargeOffsetM:  d.DischargeOffset.Metres(),
		ChipWidthM:        d.Bounds.Width(),
		ChipHeightM:       d.Bounds.Height(),
		Iterations:        d.Iterations,
		FluidViscosityPaS: d.Resolved.Spec.Fluid.Viscosity.PascalSeconds(),
		FluidDensityKgM3:  d.Resolved.Spec.Fluid.Density.KilogramsPerCubicMetre(),
		Pumps: PumpsDoc{
			InletM3S:         d.Pumps.Inlet.CubicMetresPerSecond(),
			OutletM3S:        d.Pumps.Outlet.CubicMetresPerSecond(),
			RecirculationM3S: d.Pumps.Recirculation.CubicMetresPerSecond(),
		},
	}
	for _, m := range d.Modules {
		doc.Modules = append(doc.Modules, ModuleDoc{
			Name:           m.Name,
			Organ:          string(m.Organ),
			Tissue:         m.Kind.String(),
			MassKg:         m.Mass.Kilograms(),
			WidthM:         m.Width.Metres(),
			LengthM:        m.Length.Metres(),
			RadiusM:        m.Radius.Metres(),
			MembraneAreaM2: m.MembraneArea.SquareMetres(),
			Perfusion:      m.Perfusion,
			FlowM3S:        m.FlowRate.CubicMetresPerSecond(),
			InletXM:        m.InletX.Metres(),
			OutletXM:       m.OutletX.Metres(),
		})
	}
	for _, c := range d.Channels {
		cd := ChannelDoc{
			Name:       c.Name,
			Kind:       c.Kind.String(),
			Index:      c.Index,
			WidthM:     c.Cross.Width.Metres(),
			HeightM:    c.Cross.Height.Metres(),
			LengthM:    c.Length.Metres(),
			From:       c.From,
			To:         c.To,
			FlowM3S:    c.DesignFlow.CubicMetresPerSecond(),
			PressurePa: c.DesignPressureDrop.Pascals(),
		}
		for _, p := range c.Path.Points {
			cd.PathM = append(cd.PathM, [2]float64{p.X, p.Y})
		}
		doc.Channels = append(doc.Channels, cd)
	}
	return doc
}

// JSON marshals the design document with indentation.
func JSON(d *core.Design) ([]byte, error) {
	out, err := MarshalIndent(ToDoc(d))
	if err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	return out, nil
}
