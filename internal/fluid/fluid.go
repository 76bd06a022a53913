// Package fluid implements the microfluidic channel physics the OoC
// designer and its validator rely on: rectangular-duct Hagen–Poiseuille
// resistance (both the paper's approximation, Eq. 6, and the exact
// Fourier-series solution), the wall-shear-stress/flow-rate relation
// (Eq. 3), dimensionless numbers, and laminar minor losses for bends.
package fluid

import (
	"errors"
	"fmt"
	"math"

	"ooc/internal/physio"
	"ooc/internal/units"
)

// Fluid describes the circulating blood surrogate (cell culture medium).
type Fluid struct {
	// Name identifies the medium (documentation only).
	Name string
	// Viscosity is the dynamic viscosity µ.
	Viscosity units.Viscosity
	// Density is the mass density ρ.
	Density units.Density
}

// Culture media presets covering the viscosity range evaluated in the
// paper (Poon 2022, cited as [32]). The numbers live in
// internal/physio, the table of record for physical constants.
var (
	MediumLowViscosity  = Fluid{Name: "medium-low", Viscosity: physio.MediumViscosityLow, Density: physio.MediumDensityLow}
	MediumTypical       = Fluid{Name: "medium-typical", Viscosity: physio.MediumViscosityTypical, Density: physio.MediumDensityTypical}
	MediumHighViscosity = Fluid{Name: "medium-high", Viscosity: physio.MediumViscosityHigh, Density: physio.MediumDensityHigh}
)

// Validate reports whether the fluid's viscosity and density lie in
// physio's medium windows.
func (f Fluid) Validate() error {
	if !(f.Viscosity >= physio.MinMediumViscosity && f.Viscosity <= physio.MaxMediumViscosity) {
		return fmt.Errorf("fluid %q: viscosity %g Pa·s outside [%g, %g] Pa·s", f.Name, float64(f.Viscosity),
			float64(physio.MinMediumViscosity), float64(physio.MaxMediumViscosity))
	}
	if !(f.Density >= physio.MinMediumDensity && f.Density <= physio.MaxMediumDensity) {
		return fmt.Errorf("fluid %q: density %g kg/m³ outside [%g, %g] kg/m³", f.Name, float64(f.Density),
			float64(physio.MinMediumDensity), float64(physio.MaxMediumDensity))
	}
	return nil
}

// CrossSection is a rectangular channel cross-section. The resistance
// formulas assume Height ≤ Width (the paper's wide-channel convention);
// constructors normalize automatically where noted.
type CrossSection struct {
	Width  units.Length
	Height units.Length
}

// ErrCrossSection reports an invalid cross-section.
var ErrCrossSection = errors.New("fluid: invalid cross-section")

// Validate checks that the cross-section is positive and wide (h ≤ w).
func (cs CrossSection) Validate() error {
	if cs.Width <= 0 || cs.Height <= 0 {
		return fmt.Errorf("%w: %v × %v", ErrCrossSection, cs.Width, cs.Height)
	}
	if cs.Height > cs.Width {
		return fmt.Errorf("%w: height %v exceeds width %v (formulas require h ≤ w)",
			ErrCrossSection, cs.Height, cs.Width)
	}
	return nil
}

// Area returns the cross-sectional area w·h.
func (cs CrossSection) Area() units.Area {
	return units.Area(float64(cs.Width) * float64(cs.Height))
}

// AspectRatio returns h/w ∈ (0, 1].
func (cs CrossSection) AspectRatio() float64 {
	return float64(cs.Height) / float64(cs.Width)
}

// NormalizedAspect returns w/h ≥ 1 for a valid (wide) cross-section —
// the similarity class of the section. Two cross-sections with equal
// NormalizedAspect pose geometrically similar duct-flow problems whose
// solutions differ only by the h⁴ scaling of the velocity integral;
// internal/sim keys its cross-section solve cache on this value.
func (cs CrossSection) NormalizedAspect() float64 {
	return float64(cs.Width) / float64(cs.Height)
}

// HydraulicDiameter returns D_h = 2wh/(w+h).
func (cs CrossSection) HydraulicDiameter() units.Length {
	w := float64(cs.Width)
	h := float64(cs.Height)
	return units.Length(2 * w * h / (w + h))
}

// ResistanceApprox returns the hydraulic resistance of a straight
// rectangular channel of the given length using the paper's Eq. 6:
//
//	R = 12µl / ((1 − 0.63·h/w) · h³·w)
//
// This is the approximation the *designer* uses ("an approximation for
// h/w → 0, i.e., wide channels, which is the common case").
func ResistanceApprox(cs CrossSection, length units.Length, mu units.Viscosity) (units.HydraulicResistance, error) {
	if err := cs.Validate(); err != nil {
		return 0, err
	}
	if length <= 0 {
		return 0, fmt.Errorf("fluid: non-positive channel length %v", length)
	}
	if mu <= 0 {
		return 0, fmt.Errorf("fluid: non-positive viscosity %g", float64(mu))
	}
	w := float64(cs.Width)
	h := float64(cs.Height)
	r := 12 * float64(mu) * float64(length) / ((1 - 0.63*(h/w)) * h * h * h * w)
	return units.HydraulicResistance(r), nil
}

// exactSeriesTerms is the number of odd terms used in the Fourier
// series of the exact solution. The series converges like 1/n⁵, so a
// handful of terms reaches machine precision; 25 terms is overkill by a
// wide margin and still cheap.
const exactSeriesTerms = 25

// seriesCorrection evaluates the Fourier correction factor
//
//	S(h/w) = (192/π⁵)·(h/w)·Σ_{n odd} tanh(nπw/(2h))/n⁵
//
// appearing in the exact rectangular-duct solution (Bruus, Theoretical
// Microfluidics, Eq. 3.57). The paper's Eq. 6 replaces S with 0.63·h/w,
// its leading-order behaviour.
func seriesCorrection(aspect float64) float64 {
	sum := 0.0
	for k := 0; k < exactSeriesTerms; k++ {
		n := float64(2*k + 1)
		sum += math.Tanh(n*math.Pi/(2*aspect)) / (n * n * n * n * n)
	}
	return (192 / math.Pow(math.Pi, 5)) * aspect * sum
}

// ResistanceExact returns the hydraulic resistance of a straight
// rectangular channel using the full Fourier-series solution:
//
//	R = 12µl / ((1 − S(h/w)) · h³·w)
//
// This is what the *validator* (CFD substitute) uses; the gap between
// ResistanceExact and ResistanceApprox is one of the physical reasons
// the paper's CFD results deviate from the specification.
func ResistanceExact(cs CrossSection, length units.Length, mu units.Viscosity) (units.HydraulicResistance, error) {
	if err := cs.Validate(); err != nil {
		return 0, err
	}
	if length <= 0 {
		return 0, fmt.Errorf("fluid: non-positive channel length %v", length)
	}
	if mu <= 0 {
		return 0, fmt.Errorf("fluid: non-positive viscosity %g", float64(mu))
	}
	w := float64(cs.Width)
	h := float64(cs.Height)
	s := seriesCorrection(h / w)
	r := 12 * float64(mu) * float64(length) / ((1 - s) * h * h * h * w)
	return units.HydraulicResistance(r), nil
}

// FlowForShear returns the flow rate that produces the target wall
// shear stress τ on the membrane at the bottom of a wide rectangular
// channel (the paper's Eq. 3):
//
//	Q = τ·w·h² / (6µ)
func FlowForShear(tau units.ShearStress, cs CrossSection, mu units.Viscosity) (units.FlowRate, error) {
	if err := cs.Validate(); err != nil {
		return 0, err
	}
	if tau <= 0 {
		return 0, fmt.Errorf("fluid: non-positive shear stress %g Pa", float64(tau))
	}
	if mu <= 0 {
		return 0, fmt.Errorf("fluid: non-positive viscosity %g", float64(mu))
	}
	w := float64(cs.Width)
	h := float64(cs.Height)
	return units.FlowRate(float64(tau) * w * h * h / (6 * float64(mu))), nil
}

// ShearForFlow inverts Eq. 3: τ = 6µQ / (w·h²).
func ShearForFlow(q units.FlowRate, cs CrossSection, mu units.Viscosity) (units.ShearStress, error) {
	if err := cs.Validate(); err != nil {
		return 0, err
	}
	if q < 0 {
		return 0, fmt.Errorf("fluid: negative flow rate %g", float64(q))
	}
	w := float64(cs.Width)
	h := float64(cs.Height)
	return units.ShearStress(6 * float64(mu) * float64(q) / (w * h * h)), nil
}

// CheckEndothelialShear reports an error when τ falls outside the
// 1–2 Pa endothelial window (physio.MinEndothelialShear …
// physio.MaxEndothelialShear). The evaluation sweeps τ = 1.2…2.0 Pa,
// all inside the window.
func CheckEndothelialShear(tau units.ShearStress) error {
	if tau < physio.MinEndothelialShear || tau > physio.MaxEndothelialShear {
		return fmt.Errorf("fluid: shear stress %.3g Pa outside endothelial window [%g, %g] Pa",
			float64(tau), float64(physio.MinEndothelialShear), float64(physio.MaxEndothelialShear))
	}
	return nil
}

// MeanVelocity returns v = Q / (w·h).
func MeanVelocity(q units.FlowRate, cs CrossSection) units.Velocity {
	return units.Velocity(float64(q) / float64(cs.Area()))
}

// Reynolds returns Re = ρ·v·D_h/µ for the given flow.
func Reynolds(q units.FlowRate, cs CrossSection, f Fluid) float64 {
	v := float64(MeanVelocity(q, cs))
	return float64(f.Density) * math.Abs(v) * float64(cs.HydraulicDiameter()) / float64(f.Viscosity)
}

// Dean returns the Dean number De = Re·sqrt(D_h/(2·r_c)) for a bend of
// centreline radius rc; it gauges secondary-flow strength in meander
// turns.
func Dean(q units.FlowRate, cs CrossSection, f Fluid, rc units.Length) float64 {
	if rc <= 0 {
		return math.Inf(1)
	}
	re := Reynolds(q, cs, f)
	return re * math.Sqrt(float64(cs.HydraulicDiameter())/(2*float64(rc)))
}

// EntranceLength returns the laminar hydrodynamic entrance length
// L_e ≈ (0.6 + 0.056·Re)·D_h, after which the flow is fully developed
// and the resistance formulas apply.
func EntranceLength(q units.FlowRate, cs CrossSection, f Fluid) units.Length {
	re := Reynolds(q, cs, f)
	return units.Length((0.6 + 0.056*re) * float64(cs.HydraulicDiameter()))
}

// Minor-loss models. The designer treats every channel as a straight
// duct (Eq. 6); real geometry adds local ("minor") losses at meander
// bends and at the T-junctions where channels tap the feed/drain lines
// or meet at module ports. These are the 3D effects the paper's CFD
// resolves and its lumped design model does not — the physical origin
// of the Table I deviations. Each loss is expressed in the standard
// form ΔP = K(Re)·ρv²/2 with the laminar correlation K = C/Re + K∞
// (e.g. Idelchik; the constants below are representative handbook
// values for sharp miter bends and branching T-junctions at low Re).
const (
	bendC    = 42.0
	bendKInf = 1.2
	juncC    = 40.0
	juncKInf = 0.9
	// juncCross weights the main-line dynamic pressure in the branch
	// loss of a T-junction: drawing fluid out of (or injecting it into)
	// a fast-moving main stream costs more than the branch's own
	// dynamic pressure alone. This cross-flow term is what
	// differentiates taps near the inlet (fast feed) from taps at the
	// far end (slow feed) and is the dominant symmetry-breaking effect
	// on chips with many identical modules.
	juncCross = 1.0
)

// LossKind selects a minor-loss correlation.
type LossKind int

const (
	// Bend90 is a sharp 90° miter bend (meander turns).
	Bend90 LossKind = iota
	// JunctionBranch is the branch leg of a T-junction (feed/drain
	// taps, module ports).
	JunctionBranch
)

// DynamicPressure returns ρ·v²/2 at the mean velocity of the given
// flow through the cross-section.
func DynamicPressure(q units.FlowRate, cs CrossSection, f Fluid) units.Pressure {
	v := float64(MeanVelocity(q, cs))
	return units.Pressure(float64(f.Density) * v * v / 2)
}

// MinorLoss returns the excess pressure drop of one local feature at
// the given operating point.
func MinorLoss(kind LossKind, q units.FlowRate, cs CrossSection, f Fluid) units.Pressure {
	re := Reynolds(q, cs, f)
	if re == 0 {
		return 0
	}
	var k float64
	switch kind {
	case Bend90:
		k = bendC/re + bendKInf
	case JunctionBranch:
		k = juncC/re + juncKInf
	default:
		return 0
	}
	return units.Pressure(k * float64(DynamicPressure(q, cs, f)))
}

// JunctionBranchLoss returns the excess pressure drop of the branch
// leg of a T-junction whose main line moves at mean velocity vMain:
//
//	ΔP = (C/Re_b + K∞)·ρ·v_b²/2 + K_cross·ρ·v_main²/2.
func JunctionBranchLoss(qBranch units.FlowRate, csBranch CrossSection, vMain units.Velocity, f Fluid) units.Pressure {
	base := float64(MinorLoss(JunctionBranch, qBranch, csBranch, f))
	vm := float64(vMain)
	cross := juncCross * float64(f.Density) * vm * vm / 2
	return units.Pressure(base + cross)
}

// BendEquivalentLength expresses the bend loss as extra straight
// channel at the same operating point — a convenience for length-based
// bookkeeping (≈ MinorLoss(Bend90)/(r·Q) with r the per-length
// resistance).
func BendEquivalentLength(q units.FlowRate, cs CrossSection, f Fluid) units.Length {
	if q <= 0 {
		return 0
	}
	dp := float64(MinorLoss(Bend90, q, cs, f))
	r, err := ResistanceExact(cs, units.Metres(1), f.Viscosity)
	if err != nil {
		return 0
	}
	return units.Length(dp / (float64(r) * float64(q)))
}
