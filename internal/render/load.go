package render

import (
	"encoding/json"
	"fmt"

	"ooc/internal/core"
	"ooc/internal/fluid"
	"ooc/internal/geometry"
	"ooc/internal/physio"
	"ooc/internal/units"
)

// parseKind inverts ChannelKind.String().
func parseKind(s string) (core.ChannelKind, error) {
	for _, k := range []core.ChannelKind{
		core.ModuleChannel, core.ConnectionChannel, core.SupplyChannel,
		core.DischargeChannel, core.FeedSegment, core.DrainSegment,
		core.InletLead, core.OutletLead,
	} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("render: unknown channel kind %q", s)
}

// parseTissue inverts TissueKind.String().
func parseTissue(s string) (core.TissueKind, error) {
	switch s {
	case "layered":
		return core.Layered, nil
	case "round":
		return core.Round, nil
	default:
		return 0, fmt.Errorf("render: unknown tissue kind %q", s)
	}
}

// FromDoc reconstructs a design from its JSON document form. The
// result carries everything the validator and the renderers need
// (geometry, flows, pumps, fluid); designer-internal derivation state
// is rebuilt minimally.
func FromDoc(doc DesignDoc) (*core.Design, error) {
	if len(doc.Modules) == 0 {
		return nil, fmt.Errorf("render: document has no modules")
	}
	if len(doc.Channels) == 0 {
		return nil, fmt.Errorf("render: document has no channels")
	}
	if doc.FluidViscosityPaS == 0 {
		return nil, fmt.Errorf("render: document lacks fluid viscosity")
	}
	density := doc.FluidDensityKgM3
	if density == 0 {
		density = 1000
	}
	med := fluid.Fluid{
		Name:      "loaded",
		Viscosity: units.PascalSeconds(doc.FluidViscosityPaS),
		Density:   units.KilogramsPerCubicMetre(density),
	}
	// A fluid outside physio's windows would reach the validator as a
	// singular or non-finite network; refuse it here, naming it.
	if err := med.Validate(); err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}

	var channelHeight float64
	modules := make([]core.PlacedModule, len(doc.Modules))
	for i, m := range doc.Modules {
		kind, err := parseTissue(m.Tissue)
		if err != nil {
			return nil, err
		}
		modules[i] = core.PlacedModule{
			Module: core.Module{
				Name:         m.Name,
				Organ:        physio.OrganID(m.Organ),
				Kind:         kind,
				Mass:         units.Kilograms(m.MassKg),
				Volume:       physio.TissueVolume(units.Kilograms(m.MassKg)),
				Radius:       units.Metres(m.RadiusM),
				Width:        units.Metres(m.WidthM),
				Length:       units.Metres(m.LengthM),
				MembraneArea: units.SquareMetres(m.MembraneAreaM2),
				Perfusion:    m.Perfusion,
				FlowRate:     units.CubicMetresPerSecond(m.FlowM3S),
			},
			InletX:  units.Metres(m.InletXM),
			OutletX: units.Metres(m.OutletXM),
		}
	}

	channels := make([]core.Channel, len(doc.Channels))
	var bounds geometry.Rect
	for i, c := range doc.Channels {
		kind, err := parseKind(c.Kind)
		if err != nil {
			return nil, err
		}
		if len(c.PathM) < 2 {
			return nil, fmt.Errorf("render: channel %q has a degenerate path", c.Name)
		}
		pts := make([]geometry.Point, len(c.PathM))
		for j, p := range c.PathM {
			pts[j] = geometry.Point{X: p[0], Y: p[1]}
		}
		cross := fluid.CrossSection{
			Width:  units.Metres(c.WidthM),
			Height: units.Metres(c.HeightM),
		}
		if err := cross.Validate(); err != nil {
			return nil, fmt.Errorf("render: channel %q: %w", c.Name, err)
		}
		if kind == core.ModuleChannel && channelHeight == 0 {
			channelHeight = c.HeightM
		}
		q := units.CubicMetresPerSecond(c.FlowM3S)
		r, err := fluid.ResistanceApprox(cross, units.Metres(c.LengthM), med.Viscosity)
		if err != nil {
			return nil, fmt.Errorf("render: channel %q: %w", c.Name, err)
		}
		channels[i] = core.Channel{
			Name:               c.Name,
			Kind:               kind,
			Index:              c.Index,
			Cross:              cross,
			Path:               geometry.Polyline{Points: pts},
			Length:             units.Metres(c.LengthM),
			From:               c.From,
			To:                 c.To,
			DesignFlow:         q,
			DesignResistance:   r,
			DesignPressureDrop: r.PressureDrop(q),
		}
		b := channels[i].Path.Bounds(c.WidthM)
		if i == 0 {
			bounds = b
		} else {
			bounds = bounds.Union(b)
		}
	}

	res := &core.Resolved{
		Spec: core.Spec{
			Name:  doc.Name,
			Fluid: med,
		},
		ModuleWidth: modules[0].Width,
		Geometry: core.GeometryParams{
			ChannelHeight: units.Metres(channelHeight),
		},
	}
	// Pull the plain Module values for Resolved.
	for _, pm := range modules {
		res.Modules = append(res.Modules, pm.Module)
	}

	return &core.Design{
		Name:     doc.Name,
		Resolved: res,
		Modules:  modules,
		Channels: channels,
		Pumps: core.PumpSettings{
			Inlet:         units.CubicMetresPerSecond(doc.Pumps.InletM3S),
			Outlet:        units.CubicMetresPerSecond(doc.Pumps.OutletM3S),
			Recirculation: units.CubicMetresPerSecond(doc.Pumps.RecirculationM3S),
		},
		SupplyOffset:    units.Metres(doc.SupplyOffsetM),
		DischargeOffset: units.Metres(doc.DischargeOffsetM),
		Iterations:      doc.Iterations,
		Bounds:          bounds,
	}, nil
}

// ParseJSON loads a design from its JSON serialization.
func ParseJSON(raw []byte) (*core.Design, error) {
	var doc DesignDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	return FromDoc(doc)
}
