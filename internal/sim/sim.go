// Package sim validates generated OoC designs, substituting for the
// CFD simulations (OpenFOAM) the paper uses.
//
// The designer dimensions channels with approximate models: the
// truncated resistance formula (Eq. 6) and straight-channel hydraulics
// that ignore meander bends. This package re-solves the *generated
// geometry* under a higher-fidelity model — the exact Fourier-series
// duct resistance plus laminar minor losses for every meander bend —
// and reports how far the achieved module flow rates and perfusion
// factors deviate from the specification. These are exactly the
// observables the paper's evaluation (Fig. 4, Table I) extracts from
// CFD; the deviation mechanism (approximate design model vs. faithful
// physics) is the same, so the magnitudes and trends are comparable,
// though not the absolute values of a 3D finite-volume solver.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ooc/internal/core"
	"ooc/internal/fluid"
	"ooc/internal/netlist"
	"ooc/internal/obs"
	"ooc/internal/parallel"
	"ooc/internal/units"
)

// Model selects the resistance model used for validation.
type Model int

const (
	// ModelExact uses the full Fourier-series rectangular-duct solution
	// (the validator's default — the "truth" model).
	ModelExact Model = iota
	// ModelApprox uses the designer's own Eq. 6. Validating with
	// ModelApprox and no bend losses must reproduce the design flows
	// exactly — the self-consistency check.
	ModelApprox
	// ModelNumeric replaces the analytic duct resistance with the FDM
	// cross-section solve (NumericResistance) — the CFD-lite model.
	// Per-channel solves go through the process-wide cross-section
	// solve cache, so the many identical channels of a chip (and of a
	// whole evaluation grid) solve once per similarity class.
	ModelNumeric
	// ModelDynamic is the transient tier (internal/dyn): exact duct
	// resistances, but instead of a steady-state solve the network is
	// integrated through time with node compliance, pump profiles, and
	// optional species transport. Configured via Options.Dynamic.
	ModelDynamic
)

// defaultNumericResolution is the FDM grid resolution ModelNumeric
// uses when Options.NumericResolution is zero.
const defaultNumericResolution = 32

// minNumericResolution is the coarsest cross-section grid resolution
// NumericResistance accepts.
const minNumericResolution = 8

// MaxNumericResolution is the finest cross-section grid resolution
// NumericResistance accepts: 4× the numeric@128 calibration reference,
// the finest resolution in use. One solve at this bound holds two
// float64 grids of about 17 MB each; without the bound an untrusted
// resolution could allocate gigabytes before the first context check.
const MaxNumericResolution = 512

// resolveNumericResolution maps an Options.NumericResolution value to
// the grid resolution ModelNumeric solves at: zero selects the default
// (32), anything else must lie in [8, MaxNumericResolution]. Validation
// resolves through it before any solve.
func resolveNumericResolution(n int) (int, error) {
	if n == 0 {
		return defaultNumericResolution, nil
	}
	if err := checkNumericResolution(n); err != nil {
		return 0, err
	}
	return n, nil
}

// checkNumericResolution rejects a grid resolution outside
// [minNumericResolution, MaxNumericResolution].
func checkNumericResolution(n int) error {
	if n < minNumericResolution || n > MaxNumericResolution {
		return fmt.Errorf("sim: numeric resolution %d out of range (want %d to %d, or 0 for the default %d)",
			n, minNumericResolution, MaxNumericResolution, defaultNumericResolution)
	}
	return nil
}

// Options configures Validate.
type Options struct {
	// Model is the duct resistance model (default ModelExact).
	Model Model
	// DisableBendLosses switches off the per-bend laminar minor losses
	// (used for ablations and the self-consistency check).
	DisableBendLosses bool
	// DisableJunctionLosses switches off the T-junction branch losses
	// at taps and module ports (ablation / self-consistency).
	DisableJunctionLosses bool
	// NumericResolution is the cross-section grid resolution for
	// ModelNumeric; zero selects 32, anything else must lie in
	// [8, MaxNumericResolution]. The analytic models ignore its value
	// but validation still range-checks it.
	NumericResolution int
	// Workers bounds the goroutines used for the per-channel
	// resistance computations. Zero selects GOMAXPROCS when the model
	// actually solves cross-sections numerically (ModelNumeric) and a
	// serial build otherwise, where per-channel work is too cheap to
	// amortize fan-out. Results are bit-identical for every worker
	// count: each channel's resistance is a pure function of the
	// design, and assembly happens in channel-index order.
	Workers int
	// Dynamic configures the transient tier; only consulted when Model
	// is ModelDynamic, and then it must be populated (start from
	// DefaultDynamicOptions) — a zero Dynamic is a validation error,
	// never a silent default.
	Dynamic DynamicOptions
	// ErrorBudget records the accuracy budget (a deviation fraction in
	// (0, 1]) that auto-selected this Model via internal/modelsel, for
	// provenance in reports and telemetry. Zero means no budget was
	// involved — the model was chosen explicitly.
	// Validation range-checks it but never re-selects: selection
	// happens at the edges (server handlers, CLI flag resolution),
	// where "the client pinned a model explicitly" is knowable.
	ErrorBudget float64
}

// DefaultOptions returns the documented default validation options:
// the exact analytic model, bend and junction losses enabled, the
// default numeric resolution, serial build width, and no error budget.
// Every default is the zero value today, but construct Options through
// this function anyway — a literal claims every explicit zero is
// deliberate, and future fields keep their documented defaults only on
// this path.
func DefaultOptions() Options {
	return Options{}
}

// checkErrorBudget rejects an out-of-range ErrorBudget before any
// solve work: zero disables the provenance field, anything else must
// be a usable deviation fraction.
func (o Options) checkErrorBudget() error {
	if o.ErrorBudget != 0 && (math.IsNaN(o.ErrorBudget) || o.ErrorBudget < 0 || o.ErrorBudget > 1) {
		return fmt.Errorf("sim: error budget %g out of range (want a fraction in (0, 1], like 0.02 for 2%%)", o.ErrorBudget)
	}
	return nil
}

// buildWorkers resolves Options.Workers for the per-channel build.
func (o Options) buildWorkers() int {
	if o.Workers != 0 {
		return parallel.Workers(o.Workers)
	}
	if o.Model == ModelNumeric {
		return parallel.Workers(0)
	}
	return 1
}

// ModuleResult compares one organ module's achieved hydraulics with
// its specification.
type ModuleResult struct {
	Name string
	// SpecFlow is the flow the specification demands (Eq. 3).
	SpecFlow units.FlowRate
	// ActualFlow is the flow the generated geometry delivers under the
	// validation model.
	ActualFlow units.FlowRate
	// FlowDeviation is |actual − spec| / spec.
	FlowDeviation float64
	// SpecPerfusion is the physiological perfusion factor (Eq. 4).
	SpecPerfusion float64
	// ActualPerfusion is connection flow / module flow as realized.
	ActualPerfusion float64
	// PerfusionDeviation is |actual − spec| / spec.
	PerfusionDeviation float64
	// ActualShear is the wall shear stress at the achieved flow.
	ActualShear units.ShearStress
}

// Report is the outcome of validating one design.
type Report struct {
	Design  *core.Design
	Modules []ModuleResult
	// Aggregates over modules (fractions, not %).
	AvgFlowDeviation, MaxFlowDeviation float64
	AvgPerfDeviation, MaxPerfDeviation float64
	// KCLResidual is the solver's conservation self-check.
	KCLResidual units.FlowRate
	// PumpPressure is the pressure difference the inlet pump must
	// sustain between the inlet and outlet ports.
	PumpPressure units.Pressure
	// Degradations lists, in channel-index order, every channel whose
	// ModelNumeric resistance fell back to the analytic exact model
	// because the context deadline expired mid-validation. Empty for a
	// full-fidelity report. The same events are counted in the obs
	// collector carried by the context.
	Degradations []string
}

// isTapNode reports whether a node is a supply-feed or discharge-drain
// tap (nodes named F<i> / D<i> by the generator).
func isTapNode(node string) bool {
	if len(node) < 2 {
		return false
	}
	return (node[0] == 'F' || node[0] == 'D') && node[1] >= '0' && node[1] <= '9'
}

// mainVelocityAt returns the largest design mean velocity among the
// other channels meeting at the node — the "main line" a branching
// channel taps into.
func mainVelocityAt(d *core.Design, node, except string) units.Velocity {
	var vMax units.Velocity
	for i := range d.Channels {
		c := &d.Channels[i]
		if c.Name == except || (c.From != node && c.To != node) {
			continue
		}
		if v := fluid.MeanVelocity(c.DesignFlow, c.Cross); v > vMax {
			vMax = v
		}
	}
	return vMax
}

// builtNetwork is a compiled validation network before pumps are
// attached.
type builtNetwork struct {
	net     *netlist.Network
	nodes   map[string]netlist.NodeID
	chanIDs []netlist.ChannelID
	// degraded lists channels (in index order) whose numeric
	// resistance fell back to the analytic model on deadline.
	degraded []string
}

// node returns (creating if needed) the netlist node for a design node
// name.
func (b *builtNetwork) node(name string) netlist.NodeID {
	if id, ok := b.nodes[name]; ok {
		return id
	}
	id := b.net.AddNode(name)
	b.nodes[name] = id
	return id
}

// degradeReason is the obs degradation label for the numeric → exact
// resistance fallback.
const degradeReason = "numeric resistance -> analytic exact (deadline)"

// ctxAbort decides whether a context state aborts the build.
// Cancellation always aborts; an expired deadline aborts unless the
// model is ModelNumeric, whose channels degrade gracefully to the
// analytic resistance instead.
func ctxAbort(ctx context.Context, numeric bool) error {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if numeric && errors.Is(err, context.DeadlineExceeded) {
		return nil
	}
	return fmt.Errorf("sim: validation aborted: %w", err)
}

// buildNetwork compiles the design's channels into a lumped network
// under the selected model, without pump sources.
func buildNetwork(ctx context.Context, d *core.Design, opt Options) (*builtNetwork, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d == nil || len(d.Channels) == 0 {
		return nil, fmt.Errorf("sim: empty design")
	}
	if err := ctxAbort(ctx, opt.Model == ModelNumeric); err != nil {
		return nil, err
	}
	med := d.Resolved.Spec.Fluid
	mu := med.Viscosity

	b := &builtNetwork{
		net:     netlist.New(),
		nodes:   make(map[string]netlist.NodeID),
		chanIDs: make([]netlist.ChannelID, len(d.Channels)),
	}

	// Node degrees decide which channel ends sit on a branching
	// T-junction (feed/drain taps, module ports).
	degree := make(map[string]int)
	for i := range d.Channels {
		degree[d.Channels[i].From]++
		degree[d.Channels[i].To]++
	}

	if opt.Model != ModelApprox && opt.Model != ModelExact && opt.Model != ModelNumeric && opt.Model != ModelDynamic {
		return nil, fmt.Errorf("sim: unknown model %d", int(opt.Model))
	}
	numericN, err := resolveNumericResolution(opt.NumericResolution)
	if err != nil {
		return nil, err
	}

	// Per-channel resistance, including linearized minor losses — a
	// pure function of the (read-only) design, computed through the
	// shared pool. The pool collects results in channel-index order
	// and joins every error, so the build is bit-identical to a serial
	// one for any worker count.
	//
	// The fan-out deliberately uses Map, not MapContext: every channel
	// must produce a result even after the deadline expires, because a
	// ModelNumeric channel whose solve is cut short degrades to the
	// analytic exact resistance rather than failing — the slot records
	// the downgrade. Cancellation (as opposed to deadline) propagates
	// out of the per-channel solve and aborts the whole build.
	degraded := make([]bool, len(d.Channels))
	channelResistance := func(i int) (units.HydraulicResistance, error) {
		c := &d.Channels[i]
		var (
			r   units.HydraulicResistance
			err error
		)
		switch opt.Model {
		case ModelApprox:
			r, err = fluid.ResistanceApprox(c.Cross, c.Length, mu)
		case ModelExact, ModelDynamic:
			// The transient tier evolves the network in time but keeps
			// the truth-model duct resistances.
			r, err = fluid.ResistanceExact(c.Cross, c.Length, mu)
		case ModelNumeric:
			r, err = NumericResistanceContext(ctx, c.Cross, c.Length, mu, numericN)
			if err != nil && errors.Is(err, context.DeadlineExceeded) {
				r, err = fluid.ResistanceExact(c.Cross, c.Length, mu)
				if err == nil {
					degraded[i] = true
					obs.FromContext(ctx).RecordDegradation(degradeReason)
				}
			}
		}
		if err != nil {
			return 0, fmt.Errorf("sim: channel %q: %w", c.Name, err)
		}

		// Minor losses, linearized at the design operating point:
		// R += ΔP_loss / Q_design.
		var extraDP float64
		if !opt.DisableBendLosses {
			if bends := c.Path.Bends(); bends > 0 {
				extraDP += float64(bends) * float64(fluid.MinorLoss(fluid.Bend90, c.DesignFlow, c.Cross, med))
			}
		}
		if !opt.DisableJunctionLosses {
			for _, node := range []string{c.From, c.To} {
				if degree[node] < 3 {
					continue
				}
				// The feed/drain taps are sharp T-junctions whose branch
				// loss includes the cross-flow term; module ports open
				// into wide organ basins where the main stream is slow
				// and only the plain branch loss applies.
				if isTapNode(node) {
					vMain := mainVelocityAt(d, node, c.Name)
					extraDP += float64(fluid.JunctionBranchLoss(c.DesignFlow, c.Cross, vMain, med))
				} else {
					extraDP += float64(fluid.MinorLoss(fluid.JunctionBranch, c.DesignFlow, c.Cross, med))
				}
			}
		}
		if extraDP > 0 && c.DesignFlow > 0 {
			r += units.HydraulicResistance(extraDP / float64(c.DesignFlow))
		}
		return r, nil
	}
	resistances, err := parallel.Map(len(d.Channels), opt.buildWorkers(), channelResistance)
	if err != nil {
		return nil, err
	}
	for i, dg := range degraded {
		if dg {
			b.degraded = append(b.degraded, d.Channels[i].Name)
		}
	}

	// Network assembly is serial and in channel-index order: node and
	// channel IDs must not depend on goroutine scheduling.
	for i := range d.Channels {
		c := &d.Channels[i]
		id, err := b.net.AddChannel(c.Name, b.node(c.From), b.node(c.To), resistances[i])
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		b.chanIDs[i] = id
	}
	return b, nil
}

// attachPumps adds the three design pumps as flow sources: the inlet
// pump feeds the inlet port, the outlet pump extracts at the outlet
// port, and the recirculation pump moves fluid from the outlet
// junction into the connection inlet "cin". Both the steady-state
// solve and the transient tier attach the same sources, in the same
// order, so dyn's per-source profile indexing stays aligned.
func attachPumps(b *builtNetwork, d *core.Design) error {
	if err := b.net.AddSource("pump-inlet", netlist.External, b.node("inlet"), d.Pumps.Inlet); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := b.net.AddSource("pump-outlet", b.node("outlet"), netlist.External, d.Pumps.Outlet); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := b.net.AddSource("pump-recirculation", b.node("outlet"), b.node("cin"), d.Pumps.Recirculation); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// flowSolution abstracts the two solver result types.
type flowSolution interface {
	Flow(netlist.ChannelID) units.FlowRate
	Pressure(netlist.NodeID) units.Pressure
}

// buildReport extracts the module flow/perfusion deviations from a
// solved network.
func buildReport(d *core.Design, b *builtNetwork, sol flowSolution, kclResidual units.FlowRate) (*Report, error) {
	flowOf := func(kind core.ChannelKind, index int) (units.FlowRate, bool) {
		for i := range d.Channels {
			if d.Channels[i].Kind == kind && d.Channels[i].Index == index {
				return sol.Flow(b.chanIDs[i]), true
			}
		}
		return 0, false
	}

	rep := &Report{Design: d, KCLResidual: kclResidual}
	modCS := d.Resolved.ModuleCrossSection()
	mu := d.Resolved.Spec.Fluid.Viscosity
	n := len(d.Modules)
	for i := 0; i < n; i++ {
		m := d.Modules[i]
		actual, ok := flowOf(core.ModuleChannel, i)
		if !ok {
			return nil, fmt.Errorf("sim: module channel %d missing", i)
		}
		conn, ok := flowOf(core.ConnectionChannel, i)
		if !ok {
			return nil, fmt.Errorf("sim: connection channel %d missing", i)
		}
		specQ := float64(m.FlowRate)
		actQ := float64(actual)
		mr := ModuleResult{
			Name:          m.Name,
			SpecFlow:      m.FlowRate,
			ActualFlow:    actual,
			SpecPerfusion: m.Perfusion,
		}
		if specQ != 0 {
			mr.FlowDeviation = math.Abs(actQ-specQ) / specQ
		}
		if actQ != 0 {
			mr.ActualPerfusion = float64(conn) / actQ
		}
		if m.Perfusion != 0 {
			mr.PerfusionDeviation = math.Abs(mr.ActualPerfusion-m.Perfusion) / m.Perfusion
		}
		if shear, err := fluid.ShearForFlow(actual, modCS, mu); err == nil {
			mr.ActualShear = shear
		}
		rep.Modules = append(rep.Modules, mr)

		rep.AvgFlowDeviation += mr.FlowDeviation / float64(n)
		rep.AvgPerfDeviation += mr.PerfusionDeviation / float64(n)
		rep.MaxFlowDeviation = math.Max(rep.MaxFlowDeviation, mr.FlowDeviation)
		rep.MaxPerfDeviation = math.Max(rep.MaxPerfDeviation, mr.PerfusionDeviation)
	}
	rep.PumpPressure = units.Pressure(
		sol.Pressure(b.nodes["inlet"]).Pascals() - sol.Pressure(b.nodes["outlet"]).Pascals())
	return rep, nil
}

// Validate re-solves the design's channel network under the selected
// model with the designed (flow-controlled) pumps and measures module
// flow and perfusion deviations.
func Validate(d *core.Design, opt Options) (*Report, error) {
	return ValidateContext(context.Background(), d, opt)
}

// ValidateContext is Validate with cooperative cancellation and
// graceful degradation. Cancellation aborts the validation with an
// error wrapping context.Canceled. An expired deadline aborts the
// analytic models, but under ModelNumeric each channel whose
// cross-section solve is cut short falls back to the analytic exact
// resistance; the validation completes and the report lists the
// downgraded channels in Report.Degradations (the obs collector
// carried by ctx counts them too).
func ValidateContext(ctx context.Context, d *core.Design, opt Options) (*Report, error) {
	if err := opt.checkErrorBudget(); err != nil {
		return nil, err
	}
	if opt.Model == ModelDynamic {
		dr, err := ValidateDynamicContext(ctx, d, opt)
		if err != nil {
			return nil, err
		}
		return dr.Report, nil
	}
	b, err := buildNetwork(ctx, d, opt)
	if err != nil {
		return nil, err
	}
	if err := attachPumps(b, d); err != nil {
		return nil, err
	}
	sol, err := b.net.Solve()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	rep, err := buildReport(d, b, sol, sol.MaxKCLResidual())
	if err != nil {
		return nil, err
	}
	rep.Degradations = b.degraded
	return rep, nil
}
