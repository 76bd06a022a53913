package core

import (
	"fmt"
	"math"

	"ooc/internal/fluid"
	"ooc/internal/physio"
	"ooc/internal/units"
)

// Module is a fully resolved organ module: sized, scaled and assigned
// its perfusion and flow rate.
type Module struct {
	Name  string
	Organ physio.OrganID
	Kind  TissueKind
	// Mass is the module tissue mass M_m (Eq. 2).
	Mass units.Mass
	// Volume is the tissue volume at physio.TissueDensity.
	Volume units.Volume
	// Radius is the spheroid radius (round tissues only).
	Radius units.Length
	// Width and Length are the organ-basin footprint; Width equals the
	// module channel width.
	Width, Length units.Length
	// TissueHeight is the layered tissue height (layered only).
	TissueHeight units.Length
	// MembraneArea is the endothelialized membrane under the module.
	MembraneArea units.Area
	// Perfusion is the physiological perfusion factor perf (Eq. 4).
	Perfusion float64
	// FlowRate is the module channel flow Q_i^M derived from the shear
	// stress target (Eq. 3).
	FlowRate units.FlowRate
}

// Resolved is the outcome of Sec. III-A: the specification with every
// derived quantity filled in, ready for network realization.
type Resolved struct {
	Spec Spec
	// OrganismMass is M_b after applying Eq. 1 if it was not given.
	OrganismMass units.Mass
	// ScaledBloodVolume is V_blood of Eq. 4.
	ScaledBloodVolume units.Volume
	// Modules are the resolved organ modules in chip order.
	Modules []Module
	// ModuleWidth is the uniform module/channel width (1 mm for
	// layered-only chips, 4·r for chips containing round tissue).
	ModuleWidth units.Length
	// Geometry is Spec.Geometry with defaults applied.
	Geometry GeometryParams
}

// moduleName returns the effective name of a module spec.
func moduleName(m ModuleSpec) string {
	if m.Name != "" {
		return m.Name
	}
	return string(m.Organ)
}

// Derive resolves the specification: organism mass via Eq. 1, module
// masses via Eq. 2, tissue geometry (Sec. III-A-1), perfusion factors
// via Eq. 4 and module flows via Eq. 3.
func Derive(spec Spec) (*Resolved, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	geo := spec.Geometry.withDefaults()
	dilution := spec.Dilution
	if dilution == 0 {
		dilution = physio.DefaultDilution
	}
	ref := spec.Reference

	// Organism mass M_b: given, or derived from the anchor module via
	// Eq. 1.
	organismMass := spec.OrganismMass
	if organismMass == 0 {
		for _, m := range spec.Modules {
			name := moduleName(m)
			if (spec.AnchorModule == "" || name == spec.AnchorModule) && m.Mass > 0 && m.Organ != "" {
				mb, err := physio.OrganismMass(m.Mass, &ref, m.Organ)
				if err != nil {
					return nil, fmt.Errorf("core: anchor module %q: %w", name, err)
				}
				// Refuse an oversized chip before realize lays it out.
				if err := CheckMass(mb); err != nil {
					return nil, fmt.Errorf("core: anchor module %q: derived organism %w", name, err)
				}
				organismMass = mb
				break
			}
		}
		if organismMass == 0 {
			return nil, fmt.Errorf("core: could not derive organism mass")
		}
	}

	bloodVol, err := physio.ScaledBloodVolume(organismMass, &ref)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// First pass: masses, volumes, spheroid radii.
	modules := make([]Module, len(spec.Modules))
	var maxRadius units.Length
	anyRound := false
	for i, ms := range spec.Modules {
		m := Module{
			Name:  moduleName(ms),
			Organ: ms.Organ,
			Kind:  ms.Kind,
			Mass:  ms.Mass,
		}
		if m.Mass == 0 {
			var (
				mm  units.Mass
				err error
			)
			if ms.ScalingExponent != 0 {
				mm, err = physio.ModuleMassAllometric(ms.Organ, organismMass, &ref, ms.ScalingExponent)
			} else {
				mm, err = physio.ModuleMass(ms.Organ, organismMass, &ref)
			}
			if err == nil {
				err = CheckMass(mm)
			}
			if err != nil {
				return nil, fmt.Errorf("core: module %q: %w", m.Name, err)
			}
			m.Mass = mm
		}
		m.Volume = physio.TissueVolume(m.Mass)
		if ms.Kind == Round {
			anyRound = true
			r := units.Length(math.Cbrt(3 * float64(m.Volume) / (4 * math.Pi)))
			if r > MaxSpheroidRadius {
				return nil, fmt.Errorf(
					"core: module %q: spheroid radius %v exceeds vascularization limit %v; reduce the organism mass",
					m.Name, r, MaxSpheroidRadius)
			}
			if r <= 0 {
				return nil, fmt.Errorf("core: module %q: degenerate spheroid radius", m.Name)
			}
			m.Radius = r
			if r > maxRadius {
				maxRadius = r
			}
		}
		modules[i] = m
	}

	// Module/channel width: 1 mm for layered-only chips; 4·r (largest
	// round tissue) when round tissue is present (Sec. III-A-1).
	moduleWidth := geo.LayeredModuleWidth
	if anyRound {
		moduleWidth = 4 * maxRadius
		if moduleWidth < geo.ChannelHeight {
			return nil, fmt.Errorf("core: round-tissue channel width %v below channel height %v; the spheroid is too small",
				moduleWidth, geo.ChannelHeight)
		}
	}

	// Second pass: footprints, perfusion, module flows.
	cs := fluid.CrossSection{Width: moduleWidth, Height: geo.ChannelHeight}
	qm, err := fluid.FlowForShear(spec.ShearStress, cs, spec.Fluid.Viscosity)
	if err != nil {
		return nil, fmt.Errorf("core: module flow: %w", err)
	}
	for i := range modules {
		m := &modules[i]
		m.Width = moduleWidth
		switch m.Kind {
		case Layered:
			m.TissueHeight = geo.TissueHeight
			l := units.Length(float64(m.Volume) / (float64(moduleWidth) * float64(geo.TissueHeight)))
			if l < units.Micrometres(1) {
				return nil, fmt.Errorf("core: module %q: length %v below 1 µm; increase the organism mass", m.Name, l)
			}
			m.Length = l
		case Round:
			// Width and length are both 4·r; the basin must hold the
			// largest spheroid on the chip, hence moduleWidth.
			m.Length = moduleWidth
		}
		m.MembraneArea = units.Area(float64(m.Width) * float64(m.Length))

		perf := spec.Modules[i].Perfusion
		if perf == 0 {
			p, err := physio.Perfusion(m.Organ, &ref, dilution)
			if err != nil {
				return nil, fmt.Errorf("core: module %q: %w", m.Name, err)
			}
			perf = p
		}
		m.Perfusion = perf
		m.FlowRate = qm
	}

	return &Resolved{
		Spec:              spec,
		OrganismMass:      organismMass,
		ScaledBloodVolume: bloodVol,
		Modules:           modules,
		ModuleWidth:       moduleWidth,
		Geometry:          geo,
	}, nil
}

// ModuleCrossSection returns the module-channel cross-section.
func (r *Resolved) ModuleCrossSection() fluid.CrossSection {
	return fluid.CrossSection{Width: r.ModuleWidth, Height: r.Geometry.ChannelHeight}
}

// VerticalCrossSection returns the supply/discharge/connection channel
// cross-section (width = factor · height, i.e. h/w = 2/3 by default).
func (r *Resolved) VerticalCrossSection() fluid.CrossSection {
	return fluid.CrossSection{
		Width:  units.Length(r.Geometry.VerticalWidthFactor * float64(r.Geometry.ChannelHeight)),
		Height: r.Geometry.ChannelHeight,
	}
}

// FeedCrossSection returns the supply-feed/discharge-drain channel
// cross-section (same width as the module channel, Sec. III-B-1).
func (r *Resolved) FeedCrossSection() fluid.CrossSection {
	return r.ModuleCrossSection()
}
