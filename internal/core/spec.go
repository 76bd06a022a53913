// Package core implements the paper's design-automation method: from a
// formal OoC specification (Sec. III-A — organ modules, shear stress,
// physiological perfusion) it generates a complete chip design
// (Sec. III-B — flow initialization, pressure correction, meander
// insertion, offset correction).
package core

import (
	"errors"
	"fmt"

	"ooc/internal/fluid"
	"ooc/internal/physio"
	"ooc/internal/units"
)

// TissueKind distinguishes the two organ-tissue types of Fig. 1b.
type TissueKind int

const (
	// Layered tissue grows directly on the epithelial membrane
	// (barrier tissues: lung, skin, GI tract).
	Layered TissueKind = iota
	// Round tissue is a spheroid suspended in fluid (tumors, brain
	// organoids).
	Round
)

// String implements fmt.Stringer.
func (k TissueKind) String() string {
	switch k {
	case Layered:
		return "layered"
	case Round:
		return "round"
	default:
		return fmt.Sprintf("TissueKind(%d)", int(k))
	}
}

// MaxSpheroidRadius is the vascularization limit for round tissues:
// lab-grown organs lack blood vessels, so no cell may sit farther than
// 250 µm from the surface (r ≤ 250 µm, paper Sec. III-A-1 citing [21]).
const MaxSpheroidRadius units.Length = 250e-6

// MaxLayerHeight is the corresponding diffusion limit for layered
// tissues (organ width restricted to 500 µm, Sec. II-B-1).
const MaxLayerHeight units.Length = 500e-6

// ModuleSpec describes one organ module in the specification.
type ModuleSpec struct {
	// Name labels the module; defaults to the organ ID.
	Name string
	// Organ selects the reference-table entry used for scaling (Eq. 2)
	// and perfusion (Eq. 4).
	Organ physio.OrganID
	// Kind is the tissue type (layered or round).
	Kind TissueKind
	// Mass optionally overrides the scaled module mass M_m from Eq. 2.
	Mass units.Mass
	// Perfusion optionally overrides the physiological perfusion
	// factor from Eq. 4; must be in (0, 1).
	Perfusion float64
	// ScalingExponent selects allometric (power-law) scaling for this
	// module's mass instead of the paper's linear Eq. 2: zero keeps
	// linear scaling; values in (0, 2] apply
	// M_m = M_Tissue · (M_b/M_h)^b (extension; see physio package).
	ScalingExponent float64
}

// GeometryParams collects the free geometric choices of Sec. III-B-1.
// Zero values select the documented defaults.
type GeometryParams struct {
	// ChannelHeight is the uniform channel height of the chip.
	// Default 150 µm (pinned by Fig. 4's intended flow rate).
	ChannelHeight units.Length
	// LayeredModuleWidth is the module/channel width when only layered
	// tissues are used. Default 1 mm (Sec. III-A-1).
	LayeredModuleWidth units.Length
	// TissueHeight is the layered-tissue height. Default 150 µm
	// (Example 1).
	TissueHeight units.Length
	// Spacing is the minimum distance between channels; the paper's
	// evaluation sweeps {0.5, 1.0, 1.5} mm. Default 1 mm.
	Spacing units.Length
	// VerticalWidthFactor sets the vertical supply/discharge and
	// connection channel width as a multiple of the channel height;
	// the paper suggests h/w = 2/3, i.e. factor 1.5. Default 1.5.
	VerticalWidthFactor float64
	// MinGap is the minimum clear gap between neighbouring modules,
	// which is also the meander budget per module side. Default 2.5 mm.
	MinGap units.Length
	// InitialOffset is the starting supply/discharge offset (distance
	// between the module row and the feed/drain channels). Offset
	// correction grows it as needed. Default 3 mm.
	InitialOffset units.Length
	// LeadLength is the length of the inlet/outlet lead channels
	// connecting the chip ports. Default 2 mm.
	LeadLength units.Length
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (g GeometryParams) withDefaults() GeometryParams {
	if g.ChannelHeight == 0 {
		g.ChannelHeight = units.Micrometres(150)
	}
	if g.LayeredModuleWidth == 0 {
		g.LayeredModuleWidth = units.Millimetres(1)
	}
	if g.TissueHeight == 0 {
		g.TissueHeight = units.Micrometres(150)
	}
	if g.Spacing == 0 {
		g.Spacing = units.Millimetres(1)
	}
	if g.VerticalWidthFactor == 0 {
		g.VerticalWidthFactor = 1.5
	}
	if g.MinGap == 0 {
		g.MinGap = units.Millimetres(2.5)
	}
	if g.InitialOffset == 0 {
		g.InitialOffset = units.Millimetres(3)
	}
	if g.LeadLength == 0 {
		g.LeadLength = units.Millimetres(2)
	}
	return g
}

// validate checks the resolved geometry parameters.
func (g GeometryParams) validate() error {
	if g.ChannelHeight <= 0 {
		return fmt.Errorf("core: non-positive channel height %v", g.ChannelHeight)
	}
	if g.LayeredModuleWidth < g.ChannelHeight {
		return fmt.Errorf("core: module width %v below channel height %v (resistance model needs h ≤ w)",
			g.LayeredModuleWidth, g.ChannelHeight)
	}
	if g.TissueHeight <= 0 || g.TissueHeight > MaxLayerHeight {
		return fmt.Errorf("core: tissue height %v outside (0, %v]", g.TissueHeight, MaxLayerHeight)
	}
	if g.Spacing <= 0 {
		return fmt.Errorf("core: non-positive spacing %v", g.Spacing)
	}
	if g.VerticalWidthFactor < 1 {
		return fmt.Errorf("core: vertical width factor %g below 1 (resistance model needs h ≤ w)",
			g.VerticalWidthFactor)
	}
	if g.MinGap <= 0 || g.InitialOffset <= 0 || g.LeadLength <= 0 {
		return errors.New("core: gaps, offsets and leads must be positive")
	}
	return nil
}

// MaxModules bounds the organ modules of one specification. It is
// twice the paper's largest use case (8 modules), which leaves room
// for every organ of the reference table plus custom modules. The cost
// of a design grows much faster than its module count: the design
// document is 122 KB at 16 modules and 61 MB at 200, so without a
// bound a specification of a few KB can allocate without limit.
// Dense LU stays the right network solver up to about this size.
const MaxModules = 16

// CheckModuleCount rejects a specification of more than MaxModules
// organ modules.
func CheckModuleCount(n int) error {
	if n > MaxModules {
		return fmt.Errorf("core: %d organ modules exceed the limit of %d", n, MaxModules)
	}
	return nil
}

// MaxMass bounds the organism mass M_b and every module mass M_m at
// 1 000 times the paper's 1 mg organism. Up to it a design costs about
// what it costs at paper scale: male_simple's document is 13.5 KB at
// 1 mg and 17.6 KB at 1 g, and 16 modules of 1 g each make 422 KB.
// Beyond it the chip grows with the mass without limit: 147 KB at
// 1 kg, 6.5 MB at 10 t, out of memory at 100 000 t.
const MaxMass units.Mass = 1e-3

// CheckMass rejects a mass above MaxMass.
func CheckMass(m units.Mass) error {
	if m > MaxMass {
		return fmt.Errorf("mass %g kg exceeds the limit of %g kg", m.Kilograms(), MaxMass.Kilograms())
	}
	return nil
}

// CheckPerfusion rejects an explicit module perfusion outside
// [physio.MinPerfusion, 1). Zero means absent: Eq. 4 derives the
// perfusion.
func CheckPerfusion(p float64) error {
	if p != 0 && !(p >= physio.MinPerfusion && p < 1) {
		return fmt.Errorf("perfusion %g outside [%g, 1)", p, physio.MinPerfusion)
	}
	return nil
}

// Spec is the formal specification of the desired OoC (Sec. III-A).
type Spec struct {
	// Name identifies the chip (e.g. "male_simple").
	Name string
	// Reference is the organism being miniaturized.
	Reference physio.Reference
	// OrganismMass is M_b, the total mass of the miniaturized organism.
	// If zero, it is derived from AnchorModule via Eq. 1.
	OrganismMass units.Mass
	// AnchorModule optionally names the module whose explicit Mass,
	// together with Eq. 1, determines OrganismMass.
	AnchorModule string
	// Modules lists the organ modules in chip order (module 0 is next
	// to the inlet).
	Modules []ModuleSpec
	// Fluid is the circulating blood surrogate.
	Fluid fluid.Fluid
	// ShearStress is the target membrane shear stress τ (Eq. 3); must
	// lie in the endothelial window [1, 2] Pa.
	ShearStress units.ShearStress
	// Dilution is V_circ.fluid / V_blood (Eq. 4); default 2.
	Dilution float64
	// Geometry collects the free geometric parameters.
	Geometry GeometryParams
}

// Validate checks the specification before design generation.
func (s *Spec) Validate() error {
	if len(s.Modules) == 0 {
		return errors.New("core: specification has no organ modules")
	}
	if err := CheckModuleCount(len(s.Modules)); err != nil {
		return err
	}
	if err := s.Fluid.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := fluid.CheckEndothelialShear(s.ShearStress); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if s.Dilution < 0 {
		return fmt.Errorf("core: negative dilution %g", s.Dilution)
	}
	if err := s.Reference.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	seen := make(map[string]bool, len(s.Modules))
	for i, m := range s.Modules {
		name := m.Name
		if name == "" {
			name = string(m.Organ)
		}
		if name == "" {
			return fmt.Errorf("core: module %d has neither name nor organ", i)
		}
		if seen[name] {
			return fmt.Errorf("core: duplicate module name %q", name)
		}
		seen[name] = true
		if m.Kind != Layered && m.Kind != Round {
			return fmt.Errorf("core: module %q: unknown tissue kind %d", name, int(m.Kind))
		}
		if m.Mass < 0 {
			return fmt.Errorf("core: module %q: negative mass", name)
		}
		if err := CheckMass(m.Mass); err != nil {
			return fmt.Errorf("core: module %q: %w", name, err)
		}
		if err := CheckPerfusion(m.Perfusion); err != nil {
			return fmt.Errorf("core: module %q: %w", name, err)
		}
		if m.Organ == "" && (m.Mass == 0 || m.Perfusion == 0) {
			return fmt.Errorf("core: module %q: custom modules need explicit mass and perfusion", name)
		}
		if m.ScalingExponent != 0 && (m.ScalingExponent <= 0 || m.ScalingExponent > 2) {
			return fmt.Errorf("core: module %q: scaling exponent %g outside (0, 2]", name, m.ScalingExponent)
		}
	}
	if s.OrganismMass < 0 {
		return errors.New("core: negative organism mass")
	}
	if err := CheckMass(s.OrganismMass); err != nil {
		return fmt.Errorf("core: organism %w", err)
	}
	if s.OrganismMass == 0 {
		anchor := s.AnchorModule
		found := false
		for _, m := range s.Modules {
			name := m.Name
			if name == "" {
				name = string(m.Organ)
			}
			if (anchor == "" || name == anchor) && m.Mass > 0 && m.Organ != "" {
				found = true
				break
			}
		}
		if !found {
			return errors.New("core: organism mass unknown: set OrganismMass or give an anchor module with explicit mass and organ")
		}
	}
	return s.Geometry.withDefaults().validate()
}
