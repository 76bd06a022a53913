// Package physio provides the physiological reference data and the
// allometric scaling laws of the OoC designer (Sec. III-A of the
// paper): reference standard humans with per-organ masses and blood
// flows (after Davies & Morris 1993, the paper's [24]), linear organ
// scaling (Eq. 1 and Eq. 2), and the physiological perfusion factor
// (Eq. 4).
package physio

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"

	"ooc/internal/units"
)

// OrganID identifies an organ in a reference table.
type OrganID string

// Organ identifiers used by the paper's use cases plus a few extras
// for custom chips.
const (
	Liver    OrganID = "liver"
	Lung     OrganID = "lung"
	Brain    OrganID = "brain"
	Kidney   OrganID = "kidney"
	GITract  OrganID = "gi_tract"
	Heart    OrganID = "heart"
	Skin     OrganID = "skin"
	Spleen   OrganID = "spleen"
	Pancreas OrganID = "pancreas"
	Muscle   OrganID = "muscle"
	Tumor    OrganID = "tumor"
)

// OrganRef holds the reference-organism parameters of one organ.
type OrganRef struct {
	ID   OrganID
	Name string
	// Mass is M_Tissue, the organ mass in the reference organism.
	Mass units.Mass
	// BloodFlow is Q_organblood, the standard blood flow through the
	// organ in the reference organism.
	BloodFlow units.FlowRate
}

// Reference describes a reference organism ("standard human") used for
// scaling organ modules (Eq. 1/2) and perfusion factors (Eq. 4).
type Reference struct {
	Name string
	// BodyMass is M_h, the total mass of the reference organism.
	BodyMass units.Mass
	// BloodVolume is the total blood volume of the reference organism.
	BloodVolume units.Volume
	// CardiacOutput is Q_totalblood, the standard cardiac blood
	// throughput.
	CardiacOutput units.FlowRate
	organs        map[OrganID]OrganRef
	// shared marks organs as the table of a standard reference, which
	// every copy of it reads; SetOrgan clones it before writing.
	shared bool
}

// Organ looks up an organ in the reference table.
func (r *Reference) Organ(id OrganID) (OrganRef, error) {
	o, ok := r.organs[id]
	if !ok {
		return OrganRef{}, fmt.Errorf("physio: organ %q not in reference %q", id, r.Name)
	}
	return o, nil
}

// Organs returns all organs in the table, sorted by ID for determinism.
func (r *Reference) Organs() []OrganRef {
	out := make([]OrganRef, 0, len(r.organs))
	for _, o := range r.organs {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetOrgan inserts or replaces an organ entry (e.g. a patient-derived
// tumor with measured perfusion).
func (r *Reference) SetOrgan(o OrganRef) error {
	if o.ID == "" {
		return errors.New("physio: organ needs an ID")
	}
	if o.Mass <= 0 {
		return fmt.Errorf("physio: organ %q: non-positive mass", o.ID)
	}
	if o.BloodFlow < 0 {
		return fmt.Errorf("physio: organ %q: negative blood flow", o.ID)
	}
	if r.shared {
		r.organs, r.shared = maps.Clone(r.organs), false
	}
	if r.organs == nil {
		r.organs = make(map[OrganID]OrganRef)
	}
	r.organs[o.ID] = o
	return nil
}

// Validate checks the reference for consistency: positive body
// parameters and no organ exceeding the cardiac output.
func (r *Reference) Validate() error {
	if r.BodyMass <= 0 {
		return fmt.Errorf("physio: reference %q: non-positive body mass", r.Name)
	}
	if r.BloodVolume <= 0 {
		return fmt.Errorf("physio: reference %q: non-positive blood volume", r.Name)
	}
	if r.CardiacOutput <= 0 {
		return fmt.Errorf("physio: reference %q: non-positive cardiac output", r.Name)
	}
	ids := make([]OrganID, 0, len(r.organs))
	for id := range r.organs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		o := r.organs[id]
		if o.Mass <= 0 || o.Mass >= r.BodyMass {
			return fmt.Errorf("physio: reference %q: organ %q mass %v out of range", r.Name, id, o.Mass)
		}
		if o.BloodFlow < 0 || o.BloodFlow > r.CardiacOutput {
			return fmt.Errorf("physio: reference %q: organ %q blood flow exceeds cardiac output", r.Name, id)
		}
	}
	return nil
}

func mustReference(r Reference, organs []OrganRef) Reference {
	r.shared = true
	r.organs = make(map[OrganID]OrganRef, len(organs))
	for _, o := range organs {
		r.organs[o.ID] = o
	}
	if err := r.Validate(); err != nil {
		panic(err) // static tables; a failure here is a programming error
	}
	return r
}

// mlMin abbreviates the flow constructor for the static tables.
func mlMin(v float64) units.FlowRate { return units.MillilitresPerMinute(v) }

// standardMale is the 70 kg reference standard human male. The liver
// values (1 kg, 1450 mL/min) are the ones the paper's worked examples
// use; the cardiac throughput of 5233 mL/min is back-derived from
// Example 2 (perf_liver = 55.4 % at dilution 2) so that the paper's
// arithmetic reproduces exactly. Remaining organs follow Davies &
// Morris 1993 within rounding.
var standardMale = mustReference(Reference{
	Name:          "standard human male (70 kg)",
	BodyMass:      units.Kilograms(70),
	BloodVolume:   units.Millilitres(5200),
	CardiacOutput: mlMin(5233),
}, []OrganRef{
	{ID: Liver, Name: "liver", Mass: units.Kilograms(1.0), BloodFlow: mlMin(1450)},
	{ID: Lung, Name: "lung (bronchial circulation)", Mass: units.Kilograms(0.5), BloodFlow: mlMin(105)},
	{ID: Brain, Name: "brain", Mass: units.Kilograms(1.4), BloodFlow: mlMin(700)},
	{ID: Kidney, Name: "kidneys", Mass: units.Kilograms(0.31), BloodFlow: mlMin(1240)},
	{ID: GITract, Name: "gastro-intestinal tract", Mass: units.Kilograms(1.1), BloodFlow: mlMin(1100)},
	{ID: Heart, Name: "heart", Mass: units.Kilograms(0.33), BloodFlow: mlMin(240)},
	{ID: Skin, Name: "skin", Mass: units.Kilograms(2.6), BloodFlow: mlMin(300)},
	{ID: Spleen, Name: "spleen", Mass: units.Kilograms(0.18), BloodFlow: mlMin(77)},
	{ID: Pancreas, Name: "pancreas", Mass: units.Kilograms(0.10), BloodFlow: mlMin(133)},
	{ID: Muscle, Name: "skeletal muscle", Mass: units.Kilograms(28), BloodFlow: mlMin(750)},
})

// standardFemale is a 58 kg reference standard human female with organ
// parameters scaled from standard anatomy references; the paper's
// female_simple use case only requires consistent ratios.
var standardFemale = mustReference(Reference{
	Name:          "standard human female (58 kg)",
	BodyMass:      units.Kilograms(58),
	BloodVolume:   units.Millilitres(3900),
	CardiacOutput: mlMin(4550),
}, []OrganRef{
	{ID: Liver, Name: "liver", Mass: units.Kilograms(0.84), BloodFlow: mlMin(1280)},
	{ID: Lung, Name: "lung (bronchial circulation)", Mass: units.Kilograms(0.42), BloodFlow: mlMin(92)},
	{ID: Brain, Name: "brain", Mass: units.Kilograms(1.26), BloodFlow: mlMin(640)},
	{ID: Kidney, Name: "kidneys", Mass: units.Kilograms(0.27), BloodFlow: mlMin(1050)},
	{ID: GITract, Name: "gastro-intestinal tract", Mass: units.Kilograms(0.94), BloodFlow: mlMin(960)},
	{ID: Heart, Name: "heart", Mass: units.Kilograms(0.25), BloodFlow: mlMin(205)},
	{ID: Skin, Name: "skin", Mass: units.Kilograms(2.0), BloodFlow: mlMin(255)},
	{ID: Spleen, Name: "spleen", Mass: units.Kilograms(0.15), BloodFlow: mlMin(66)},
	{ID: Pancreas, Name: "pancreas", Mass: units.Kilograms(0.085), BloodFlow: mlMin(114)},
	{ID: Muscle, Name: "skeletal muscle", Mass: units.Kilograms(20), BloodFlow: mlMin(640)},
})

// StandardMale returns the 70 kg standard human male table. Copies
// share its organ table until SetOrgan changes one of them.
func StandardMale() Reference { return standardMale }

// StandardFemale returns the standard human female table. Copies share
// its organ table until SetOrgan changes one of them.
func StandardFemale() Reference { return standardFemale }

// TissueDensity is the mass density of soft organ tissue used to turn
// module masses into volumes. The value is back-derived from the
// paper's Example 1 (a 1.4286e-8 kg liver module occupying
// 89 µm × 1 mm × 150 µm) and matches the usual ≈1.06 g/mL for soft
// tissue.
const TissueDensity units.Density = 1060

// TissueVolume converts an organ-module mass to volume using
// TissueDensity.
func TissueVolume(m units.Mass) units.Volume {
	return units.Volume(float64(m) / float64(TissueDensity))
}

// OrganismMass implements Eq. 1: given the desired mass M_m of one
// miniaturized organ module, the total mass M_b of the miniaturized
// organism is
//
//	M_b = M_m · M_h / M_Tissue.
func OrganismMass(moduleMass units.Mass, ref *Reference, organ OrganID) (units.Mass, error) {
	if moduleMass <= 0 {
		return 0, fmt.Errorf("physio: non-positive module mass %v", moduleMass)
	}
	o, err := ref.Organ(organ)
	if err != nil {
		return 0, err
	}
	return units.Mass(float64(moduleMass) * float64(ref.BodyMass) / float64(o.Mass)), nil
}

// ModuleMass implements Eq. 2: the mass of the organ module
// representing the given organ in a miniaturized organism of total
// mass M_b is
//
//	M_m = M_Tissue · M_b / M_h.
func ModuleMass(organ OrganID, organismMass units.Mass, ref *Reference) (units.Mass, error) {
	if organismMass <= 0 {
		return 0, fmt.Errorf("physio: non-positive organism mass %v", organismMass)
	}
	o, err := ref.Organ(organ)
	if err != nil {
		return 0, err
	}
	return units.Mass(float64(o.Mass) * float64(organismMass) / float64(ref.BodyMass)), nil
}

// DefaultDilution is the circulating-fluid dilution factor
// V_circ.fluid / V_blood; "in the current configuration, the dilution
// factor is set to 2" (Sec. III-A-3).
const DefaultDilution = 2.0

// Perfusion implements Eq. 4: the physiological perfusion factor
//
//	perf = (Q_organblood / Q_totalblood) · dilution
//
// i.e. the fraction of the module flow exchanged with the circulating
// fluid via the connection channels. A perfusion ≥ 1 is unrealizable
// (the connection channel would need to carry more than the module
// flow) and is reported as an error.
func Perfusion(organ OrganID, ref *Reference, dilution float64) (float64, error) {
	if dilution <= 0 {
		return 0, fmt.Errorf("physio: non-positive dilution factor %g", dilution)
	}
	o, err := ref.Organ(organ)
	if err != nil {
		return 0, err
	}
	if ref.CardiacOutput <= 0 {
		return 0, fmt.Errorf("physio: reference %q has no cardiac output", ref.Name)
	}
	perf := float64(o.BloodFlow) / float64(ref.CardiacOutput) * dilution
	if perf >= 1 {
		return perf, fmt.Errorf("physio: organ %q perfusion %.3f ≥ 1 is unrealizable at dilution %g",
			organ, perf, dilution)
	}
	if perf <= 0 {
		return perf, fmt.Errorf("physio: organ %q perfusion %.3g must be positive", organ, perf)
	}
	return perf, nil
}

// ScaledBloodVolume returns V_blood of Eq. 4: the blood volume of the
// reference organism scaled down proportionally to the miniaturized
// organism mass.
func ScaledBloodVolume(organismMass units.Mass, ref *Reference) (units.Volume, error) {
	if organismMass <= 0 {
		return 0, fmt.Errorf("physio: non-positive organism mass %v", organismMass)
	}
	return units.Volume(float64(ref.BloodVolume) * float64(organismMass) / float64(ref.BodyMass)), nil
}

// ModuleMassAllometric generalizes Eq. 2 to allometric (power-law)
// scaling:
//
//	M_m = M_Tissue · (M_b / M_h)^b
//
// Linear scaling (the paper's choice, b = 1) keeps organ mass ratios
// fixed; functional scaling arguments (Wikswo et al., the paper's
// [20]) suggest organ-specific exponents b < 1 for organs whose
// function scales with metabolic rate — a miniaturized organism then
// carries relatively larger versions of those organs, as small animals
// do. b must lie in (0, 2].
func ModuleMassAllometric(organ OrganID, organismMass units.Mass, ref *Reference, exponent float64) (units.Mass, error) {
	if organismMass <= 0 {
		return 0, fmt.Errorf("physio: non-positive organism mass %v", organismMass)
	}
	if exponent <= 0 || exponent > 2 {
		return 0, fmt.Errorf("physio: allometric exponent %g outside (0, 2]", exponent)
	}
	o, err := ref.Organ(organ)
	if err != nil {
		return 0, err
	}
	ratio := float64(organismMass) / float64(ref.BodyMass)
	return units.Mass(float64(o.Mass) * math.Pow(ratio, exponent)), nil
}

// TypicalAllometricExponent returns a literature-typical scaling
// exponent for an organ (1.0 when no specific value is established).
// Values follow the comparative-physiology consensus: brain mass
// scales distinctly sublinearly across mammals; metabolically scaled
// organs cluster near the Kleiber 3/4 exponent.
func TypicalAllometricExponent(organ OrganID) float64 {
	switch organ {
	case Brain:
		return 0.76
	case Liver:
		return 0.87
	case Kidney:
		return 0.85
	case Lung:
		return 0.99
	case Heart:
		return 0.98
	default:
		return 1.0
	}
}
