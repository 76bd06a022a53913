package physio

import "ooc/internal/units"

// This file is the table of record for the physical constants the
// designer relies on, next to the reference-human tables. ooclint's
// constprov analyzer enforces that other packages reference these
// names instead of restating the numbers: duplicated magic constants
// drift apart silently, and every design result depends on them.

// Culture-medium properties. The three viscosities span the range
// evaluated in the paper (Poon 2022, cited as [32]); densities of
// supplemented media are close to water.
const (
	// MediumViscosityLow is the low end of the culture-medium
	// viscosity range, µ = 7.2e-4 Pa·s.
	MediumViscosityLow units.Viscosity = 7.2e-4
	// MediumViscosityTypical is the typical culture-medium viscosity,
	// µ = 9.3e-4 Pa·s.
	MediumViscosityTypical units.Viscosity = 9.3e-4
	// MediumViscosityHigh is the high end of the culture-medium
	// viscosity range, µ = 1.1e-3 Pa·s.
	MediumViscosityHigh units.Viscosity = 1.1e-3

	// MediumDensityLow, MediumDensityTypical and MediumDensityHigh are
	// the matching mass densities in kg/m³.
	MediumDensityLow     units.Density = 1000
	MediumDensityTypical units.Density = 1005
	MediumDensityHigh    units.Density = 1010
)

// Physiological shear-stress window for endothelial cells (Roux et
// al., the paper's [23]): strong enough to prevent dedifferentiation,
// weak enough not to wash the cells off the membrane.
const (
	MinEndothelialShear units.ShearStress = 1.0 // Pa
	MaxEndothelialShear units.ShearStress = 2.0 // Pa
)

// Windows for the circulating fluid. The viscosity window runs from
// 7.2× below the paper's least viscous medium to 90× above its most
// viscous and covers water from 0 to 100 °C and whole blood; the
// density window spans a decade either side of water. At every decade
// inside both windows each use case designs, validates (exact and
// approx) and runs a transient with finite results; far outside them
// the network solve becomes singular or the results overflow.
const (
	MinMediumViscosity units.Viscosity = 1e-4 // Pa·s
	MaxMediumViscosity units.Viscosity = 1e-1 // Pa·s
	MinMediumDensity   units.Density   = 1e2  // kg/m³
	MaxMediumDensity   units.Density   = 1e4  // kg/m³
)

// MinPerfusion is the smallest explicit module perfusion factor
// (Eq. 4): 29 times below the least perfused organ of the reference
// tables (spleen, 0.029), and far above the subnormal perfusions whose
// reciprocal overflows a validation report's deviations to +Inf.
const MinPerfusion = 1e-3
