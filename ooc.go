// Package ooc is a design-automation library for Organs-on-Chip (OoC)
// devices — a Go implementation of the method of Emmerich, Ebner and
// Wille, "Design Automation for Organs-on-Chip" (DATE 2024).
//
// From a physiological specification — which organ modules to combine,
// the shear stress the membrane endothelium must experience, and the
// physiological perfusion between organs — the library automatically
// generates a complete microfluidic chip design: scaled organ-module
// and membrane dimensions, a routed channel network with meander
// channels that realizes the required flow distribution, and the pump
// settings to drive it. A built-in validation pipeline (a lumped-
// element re-solve of the generated geometry under exact duct physics,
// substituting for the paper's OpenFOAM simulations) measures how
// closely the design meets the specification.
//
// Quick start:
//
//	spec := ooc.Spec{
//		Name:         "liver_lung_brain",
//		Reference:    ooc.StandardMale(),
//		OrganismMass: 1e-6, // kg
//		Modules: []ooc.ModuleSpec{
//			{Organ: ooc.Lung, Kind: ooc.Layered},
//			{Organ: ooc.Liver, Kind: ooc.Layered},
//			{Organ: ooc.Brain, Kind: ooc.Layered},
//		},
//		Fluid:       ooc.MediumLowViscosity,
//		ShearStress: 1.5, // Pa
//	}
//	design, err := ooc.Generate(spec)
//	...
//	report, err := ooc.Validate(design, ooc.DefaultValidationOptions())
package ooc

import (
	"context"

	"ooc/internal/core"
	"ooc/internal/field"
	"ooc/internal/fluid"
	"ooc/internal/linalg"
	"ooc/internal/obs"
	"ooc/internal/optimize"
	"ooc/internal/physio"
	"ooc/internal/render"
	"ooc/internal/review"
	"ooc/internal/sim"
	"ooc/internal/units"
)

// Specification types.
type (
	// Spec is the formal OoC specification (organ modules, fluid,
	// shear-stress target, scaling reference).
	Spec = core.Spec
	// ModuleSpec describes one organ module in a Spec.
	ModuleSpec = core.ModuleSpec
	// GeometryParams are the free geometric choices (channel height,
	// spacing, offsets); zero values select paper defaults.
	GeometryParams = core.GeometryParams
	// TissueKind distinguishes layered from round (spheroid) tissue.
	TissueKind = core.TissueKind
)

// Tissue kinds.
const (
	Layered = core.Layered
	Round   = core.Round
)

// Design output types.
type (
	// Design is a complete generated chip.
	Design = core.Design
	// Channel is one routed channel of a Design.
	Channel = core.Channel
	// ChannelKind classifies channels (module, supply, feed, …).
	ChannelKind = core.ChannelKind
	// PumpSettings are the external pump flow rates.
	PumpSettings = core.PumpSettings
	// Resolved is the specification with all derived quantities
	// (module sizes, perfusions, flows).
	Resolved = core.Resolved
	// FlowPlan is the Eq. 5 flow-rate initialization.
	FlowPlan = core.FlowPlan
)

// Channel kinds.
const (
	ModuleChannel     = core.ModuleChannel
	ConnectionChannel = core.ConnectionChannel
	SupplyChannel     = core.SupplyChannel
	DischargeChannel  = core.DischargeChannel
	FeedSegment       = core.FeedSegment
	DrainSegment      = core.DrainSegment
	InletLead         = core.InletLead
	OutletLead        = core.OutletLead
)

// Physiology.
type (
	// Reference is a reference organism ("standard human") with organ
	// masses and blood flows.
	Reference = physio.Reference
	// OrganID names an organ in a Reference.
	OrganID = physio.OrganID
	// OrganRef is one organ's reference parameters.
	OrganRef = physio.OrganRef
)

// Organ identifiers.
const (
	Liver    = physio.Liver
	Lung     = physio.Lung
	Brain    = physio.Brain
	Kidney   = physio.Kidney
	GITract  = physio.GITract
	Heart    = physio.Heart
	Skin     = physio.Skin
	Spleen   = physio.Spleen
	Pancreas = physio.Pancreas
	Muscle   = physio.Muscle
	Tumor    = physio.Tumor
)

// StandardMale returns the 70 kg reference standard human male.
func StandardMale() Reference { return physio.StandardMale() }

// StandardFemale returns the reference standard human female.
func StandardFemale() Reference { return physio.StandardFemale() }

// Fluids.
type Fluid = fluid.Fluid

// Culture-medium presets spanning the viscosity range of the paper's
// evaluation.
var (
	MediumLowViscosity  = fluid.MediumLowViscosity
	MediumTypical       = fluid.MediumTypical
	MediumHighViscosity = fluid.MediumHighViscosity
)

// Published culture-medium property values (Poon 2022) — the table of
// record lives in internal/physio; these are the public handles.
const (
	MediumViscosityLow     = physio.MediumViscosityLow
	MediumViscosityTypical = physio.MediumViscosityTypical
	MediumViscosityHigh    = physio.MediumViscosityHigh
)

// Generate runs the full design-automation pipeline: specification
// derivation (Sec. III-A), flow initialization, pressure correction,
// meander insertion and offset correction (Sec. III-B).
func Generate(spec Spec) (*Design, error) { return core.Generate(spec) }

// Derive resolves the specification without generating geometry —
// organism scaling (Eq. 1/2), module sizing, perfusion (Eq. 4) and
// module flows (Eq. 3).
func Derive(spec Spec) (*Resolved, error) { return core.Derive(spec) }

// GenerateBaseline builds the no-pressure-correction baseline (the
// manual-design status quo): same topology and dimensions, straight
// vertical channels, Kirchhoff's voltage law left unenforced.
// Validating it against the specification quantifies what the paper's
// method contributes.
func GenerateBaseline(spec Spec) (*Design, error) { return core.GenerateNaive(spec) }

// Validation (the CFD substitute).
type (
	// ValidationOptions selects the resistance model and bend-loss
	// handling.
	ValidationOptions = sim.Options
	// ValidationReport holds per-module flow and perfusion deviations.
	ValidationReport = sim.Report
	// ModuleResult is one module's spec-vs-achieved comparison.
	ModuleResult = sim.ModuleResult
)

// DefaultValidationOptions returns the documented validation defaults
// (exact model, default numeric resolution, no error budget) — the
// intended starting point before overriding fields.
func DefaultValidationOptions() ValidationOptions { return sim.DefaultOptions() }

// Validation models.
const (
	// ModelExact validates with the exact Fourier-series duct
	// resistance (default).
	ModelExact = sim.ModelExact
	// ModelApprox validates with the designer's own approximation;
	// with bend losses disabled this must reproduce the design exactly.
	ModelApprox = sim.ModelApprox
	// ModelNumeric validates with the FDM duct-flow solve (the
	// CFD-lite leg); an expired deadline aborts it like every other
	// model. It is an offline oracle: it converges to ModelExact, so
	// the oocd daemon does not serve it and Optimize rejects it.
	ModelNumeric = sim.ModelNumeric
)

// Validate re-solves the generated geometry under a high-fidelity
// hydraulic model and reports module flow and perfusion deviations —
// the observables the paper extracts from CFD simulation.
func Validate(d *Design, opt ValidationOptions) (*ValidationReport, error) {
	return sim.Validate(d, opt)
}

// ValidateContext is Validate with cooperative cancellation: the
// network build and its iterative solves check ctx, and under every
// model cancellation and deadline errors wrap context.Canceled /
// context.DeadlineExceeded (use errors.Is to tell them from
// ErrNoConvergence) with a nil report.
func ValidateContext(ctx context.Context, d *Design, opt ValidationOptions) (*ValidationReport, error) {
	return sim.ValidateContext(ctx, d, opt)
}

// ErrNoConvergence is wrapped by every iterative-solver failure that
// exhausted its iteration budget — distinguishable with errors.Is
// from a cancellation or deadline abort.
var ErrNoConvergence = linalg.ErrNoConvergence

// Solver telemetry. Iterative solves and cross-section cache traffic
// are recorded into the TelemetryCollector carried by the context (or
// a process-wide default when none is installed); its Snapshot is a
// deterministic Summary whose Format rendering is byte-identical for
// any worker count.
type (
	// TelemetryCollector aggregates solver and cache events.
	TelemetryCollector = obs.Collector
	// TelemetrySummary is a deterministic snapshot of a collector.
	TelemetrySummary = obs.Summary
	// SolveStats is one iterative solve's outcome, including partial
	// progress on aborted solves.
	SolveStats = obs.SolveStats
)

// NewTelemetryCollector returns an empty telemetry collector.
func NewTelemetryCollector() *TelemetryCollector { return obs.NewCollector() }

// WithTelemetry returns a context carrying the collector; validation
// and solves running under it record there instead of the process
// default.
func WithTelemetry(ctx context.Context, c *TelemetryCollector) context.Context {
	return obs.WithCollector(ctx, c)
}

// RenderSVG draws the chip layout as an SVG document.
func RenderSVG(d *Design) string {
	return render.SVG(d, render.SVGOptions{ShowLabels: true})
}

// RenderJSON serializes the design to an indented JSON document.
func RenderJSON(d *Design) ([]byte, error) { return render.JSON(d) }

// Unit types (SI-based, re-exported from the units package).
type (
	// Length in metres.
	Length = units.Length
	// Mass in kilograms.
	Mass = units.Mass
	// Volume in cubic metres.
	Volume = units.Volume
	// Area in square metres.
	Area = units.Area
	// Pressure in pascals.
	Pressure = units.Pressure
	// ShearStress in pascals.
	ShearStress = units.ShearStress
	// FlowRate in m³/s.
	FlowRate = units.FlowRate
	// Viscosity in Pa·s.
	Viscosity = units.Viscosity
	// Density in kg/m³.
	Density = units.Density
	// HydraulicResistance in Pa·s/m³.
	HydraulicResistance = units.HydraulicResistance
)

// Unit constructors.
func Metres(v float64) Length      { return units.Metres(v) }
func Millimetres(v float64) Length { return units.Millimetres(v) }
func Micrometres(v float64) Length { return units.Micrometres(v) }

func Kilograms(v float64) Mass  { return units.Kilograms(v) }
func Grams(v float64) Mass      { return units.Grams(v) }
func Milligrams(v float64) Mass { return units.Milligrams(v) }

func Pascals(v float64) Pressure         { return units.Pascals(v) }
func PascalsShear(v float64) ShearStress { return units.PascalsShear(v) }
func DynPerCm2(v float64) ShearStress    { return units.DynPerCm2(v) }

func CubicMetresPerSecond(v float64) FlowRate { return units.CubicMetresPerSecond(v) }
func MillilitresPerMinute(v float64) FlowRate { return units.MillilitresPerMinute(v) }
func MicrolitresPerMinute(v float64) FlowRate { return units.MicrolitresPerMinute(v) }

func PascalSeconds(v float64) Viscosity { return units.PascalSeconds(v) }
func Centipoise(v float64) Viscosity    { return units.Centipoise(v) }

func KilogramsPerCubicMetre(v float64) Density { return units.KilogramsPerCubicMetre(v) }

// Compound transport (pharmacokinetics on the chip).
type (
	// TransportConfig sets up a compound-transport simulation
	// (infusion or bolus, per-module kinetics).
	TransportConfig = sim.TransportConfig
	// TransportResult holds per-module exposure metrics (peak, AUC,
	// washout) and solver self-checks.
	TransportResult = sim.TransportResult
	// ModuleKinetics is a compound's clearance/secretion in one module.
	ModuleKinetics = sim.ModuleKinetics
	// ModuleExposure is one module's concentration history summary.
	ModuleExposure = sim.ModuleExposure
)

// SimulateTransport runs a compound-transport simulation on a
// generated design: how a drug or cytokine distributes between the
// organ modules through the circulating fluid. The flows come from the
// design flow plan (each channel's DesignFlow); the species step is the
// transient tier's, without a pressure solve.
func SimulateTransport(d *Design, cfg TransportConfig) (*TransportResult, error) {
	return sim.SimulateTransport(context.Background(), d, cfg)
}

// Fabrication tolerance analysis.
type (
	// ToleranceConfig sets up a Monte Carlo fabrication study.
	ToleranceConfig = sim.ToleranceConfig
	// ToleranceReport summarizes deviation distributions and yield.
	ToleranceReport = sim.ToleranceReport
	// DeviationStats holds mean/std/median/P95/max of a deviation
	// metric.
	DeviationStats = sim.DeviationStats
)

// DefaultToleranceConfig returns the Monte Carlo study defaults
// (200 samples, seed 1). The zero ToleranceConfig is rejected —
// Samples must be at least 1.
func DefaultToleranceConfig() ToleranceConfig { return sim.DefaultToleranceConfig() }

// AnalyzeTolerance fabricates the design many times with random
// dimensional errors and reports the resulting deviation distribution
// and yield.
func AnalyzeTolerance(d *Design, cfg ToleranceConfig) (*ToleranceReport, error) {
	return sim.ToleranceAnalysis(d, cfg)
}

// AnalyzeToleranceContext is AnalyzeTolerance with cooperative
// cancellation: samples run through the shared pool, which stops
// claiming new samples once ctx is done. Results are bit-identical
// for any ToleranceConfig.Workers value.
func AnalyzeToleranceContext(ctx context.Context, d *Design, cfg ToleranceConfig) (*ToleranceReport, error) {
	return sim.ToleranceAnalysisContext(ctx, d, cfg)
}

// PumpPressures are pressure-controlled pump set points derived from
// the design.
type PumpPressures = sim.PumpPressures

// DesignPumpPressures computes the set pressures a pressure-controlled
// pumping setup would be programmed with.
func DesignPumpPressures(d *Design) (PumpPressures, error) {
	return sim.DesignPumpPressures(d)
}

// DesignPumpPressuresContext is DesignPumpPressures with cooperative
// cancellation (the underlying network build checks ctx).
func DesignPumpPressuresContext(ctx context.Context, d *Design) (PumpPressures, error) {
	return sim.DesignPumpPressuresContext(ctx, d)
}

// ValidatePressureDriven validates the chip under pressure-controlled
// pumping at the designer-model set pressures (instead of the
// flow-controlled pumps the method outputs).
func ValidatePressureDriven(d *Design, opt ValidationOptions) (*ValidationReport, error) {
	return sim.ValidatePressureDriven(d, opt)
}

// ValidatePressureDrivenContext is ValidatePressureDriven with the
// cancellation and deadline semantics of ValidateContext.
func ValidatePressureDrivenContext(ctx context.Context, d *Design, opt ValidationOptions) (*ValidationReport, error) {
	return sim.ValidatePressureDrivenContext(ctx, d, opt)
}

// RenderDXF exports the chip layout as an AutoCAD R12 DXF document for
// fabrication.
func RenderDXF(d *Design) string { return render.DXF(d) }

// RenderGDS exports the chip layout as a GDSII stream — the
// photolithography mask interchange standard (channels as PATH
// elements with physical width, module basins as BOUNDARY polygons,
// 1 nm database unit).
func RenderGDS(d *Design) []byte { return render.GDS(d) }

// Depth-averaged flow-field solve (the Fig. 4 velocity map).
type (
	// FlowField is a solved Hele-Shaw field over the rasterized chip.
	FlowField = field.Field
	// FieldOptions configures the field solve.
	FieldOptions = field.Options
)

// SolveFlowField rasterizes the chip layout and solves the
// depth-averaged pressure/velocity field — an independent, purely
// geometric validation channel and the source of Fig. 4-style velocity
// maps (FlowField.RenderPNG).
func SolveFlowField(d *Design, opt FieldOptions) (*FlowField, error) {
	return field.Solve(d, opt)
}

// SolveFlowFieldContext is SolveFlowField with cooperative
// cancellation: the CG iteration checks ctx and an aborted solve
// returns an error wrapping ctx.Err(), distinct from
// ErrNoConvergence.
func SolveFlowFieldContext(ctx context.Context, d *Design, opt FieldOptions) (*FlowField, error) {
	return field.SolveContext(ctx, d, opt)
}

// LoadDesignJSON reconstructs a design from its RenderJSON
// serialization; the result can be validated, simulated and rendered.
func LoadDesignJSON(raw []byte) (*Design, error) { return render.ParseJSON(raw) }

// Design review (pre-fabrication checklist).
type (
	// ReviewReport is a completed design review.
	ReviewReport = review.Review
	// ReviewFinding is one review observation.
	ReviewFinding = review.Finding
	// ReviewSeverity grades findings (Info/Warning/Error).
	ReviewSeverity = review.Severity
)

// Review severities.
const (
	ReviewInfo    = review.Info
	ReviewWarning = review.Warning
	ReviewError   = review.Error
)

// ReviewDesign runs the full engineering checklist on a generated
// design: Kirchhoff consistency, design rules, shear window,
// laminarity, entrance lengths, oxygen supply, vascularization limits,
// pump pressure and footprint.
func ReviewDesign(d *Design) (*ReviewReport, error) { return review.Check(d) }

// Design-space optimization.
type (
	// OptimizeOptions selects the objective, constraints and candidate
	// grids.
	OptimizeOptions = optimize.Options
	// OptimizeConstraints bound the feasible region.
	OptimizeConstraints = optimize.Constraints
	// OptimizeResult holds the winning design and the candidate log.
	OptimizeResult = optimize.Result
	// OptimizeObjective selects what to minimize.
	OptimizeObjective = optimize.Objective
)

// Optimization objectives.
const (
	MinimizeArea         = optimize.MinimizeArea
	MinimizePumpPressure = optimize.MinimizePumpPressure
	MinimizeTotalFlow    = optimize.MinimizeTotalFlow
)

// ErrInfeasible is returned by Optimize when no candidate satisfies
// the constraints.
var ErrInfeasible = optimize.ErrInfeasible

// DefaultOptimizeConstraints returns the search's practical defaults
// (a 5 % flow-deviation budget). The zero OptimizeConstraints means
// what it says: a zero deviation budget, which no real candidate
// meets.
func DefaultOptimizeConstraints() OptimizeConstraints { return optimize.DefaultConstraints() }

// Optimize searches the designer's free geometric parameters for the
// best feasible chip under the given objective and constraints. It
// rejects ModelNumeric and grids of more than 4 096 candidates up
// front.
func Optimize(spec Spec, opt OptimizeOptions) (*OptimizeResult, error) {
	return optimize.Optimize(spec, opt)
}

// OptimizeContext is Optimize with cooperative cancellation: the
// candidate loop checks ctx between candidates and an aborted search
// returns the partial OptimizeResult together with an error wrapping
// ctx.Err().
func OptimizeContext(ctx context.Context, spec Spec, opt OptimizeOptions) (*OptimizeResult, error) {
	return optimize.Search(ctx, spec, opt)
}
