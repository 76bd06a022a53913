// Package optimize searches the free geometric parameters of the OoC
// designer for a chip that best meets an engineering objective while
// staying within validation constraints — a first step beyond the
// paper's single-shot generation towards the "further development of
// automatic design methods" its conclusion anticipates.
//
// The design method leaves genuine freedom (Sec. III-B-1: "the other
// channels can be freely sized … a reasonable choice is …"): the
// uniform channel height and the module gap budget. Both trade off
// against each other — taller channels lower pressure but raise flow
// rates and Reynolds numbers; wider gaps give meanders room but grow
// the chip. The optimizer enumerates a candidate grid, generates and
// validates every design, discards infeasible ones and returns the
// best.
package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ooc/internal/core"
	"ooc/internal/sim"
	"ooc/internal/units"
)

// Objective selects what to minimize.
type Objective int

const (
	// MinimizeArea minimizes the chip bounding-box area.
	MinimizeArea Objective = iota
	// MinimizePumpPressure minimizes the inlet pump pressure.
	MinimizePumpPressure
	// MinimizeTotalFlow minimizes the inlet pump flow (medium
	// consumption — expensive media motivate this in practice).
	MinimizeTotalFlow
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MinimizeArea:
		return "chip area"
	case MinimizePumpPressure:
		return "pump pressure"
	case MinimizeTotalFlow:
		return "medium consumption"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ObjectiveNames lists the valid ParseObjective spellings for usage
// messages.
const ObjectiveNames = "area, pressure, flow"

// ParseObjective resolves an objective name. Unknown spellings return
// an error listing the valid names, mirroring sim.ParseModel.
func ParseObjective(name string) (Objective, error) {
	switch name {
	case "", "area":
		return MinimizeArea, nil
	case "pressure":
		return MinimizePumpPressure, nil
	case "flow":
		return MinimizeTotalFlow, nil
	default:
		return 0, fmt.Errorf("optimize: unknown objective %q (valid objectives: %s)", name, ObjectiveNames)
	}
}

// Constraints bound the feasible region.
type Constraints struct {
	// MaxFlowDeviation is the validation budget (fraction). It means
	// exactly what it says: 0 demands zero deviation (which no real
	// candidate meets, so everything is infeasible) and negative
	// values are rejected. Use DefaultConstraints for the historical
	// 5 % budget — earlier revisions silently rewrote 0 to 0.05,
	// which made an exactly-zero budget unexpressible.
	MaxFlowDeviation float64
	// MaxPumpPressure caps the inlet pump pressure; zero = unbounded.
	MaxPumpPressure units.Pressure
	// MaxChipWidth/MaxChipHeight cap the footprint; zero = unbounded.
	MaxChipWidth, MaxChipHeight units.Length
}

// DefaultConstraints returns the search's practical defaults: a 5 %
// flow-deviation budget and unbounded pressure/footprint.
func DefaultConstraints() Constraints {
	return Constraints{MaxFlowDeviation: 0.05}
}

// Strategy selects the search algorithm.
type Strategy int

const (
	// StrategyGrid evaluates every candidate at full fidelity — the
	// exhaustive baseline.
	StrategyGrid Strategy = iota
	// StrategyHalving runs successive halving: every candidate is
	// evaluated at the cheap rung (the approximate resistance model),
	// only the top fraction survives to the full-fidelity rung, and
	// just the survivors pay for the full-fidelity evaluation.
	StrategyHalving
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyGrid:
		return "grid"
	case StrategyHalving:
		return "halving"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// StrategyNames lists the valid ParseStrategy spellings for usage
// messages.
const StrategyNames = "grid, halving"

// ParseStrategy resolves a strategy name. Unknown spellings return an
// error listing the valid names, mirroring sim.ParseModel.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "grid":
		return StrategyGrid, nil
	case "halving":
		return StrategyHalving, nil
	default:
		return 0, fmt.Errorf("optimize: unknown strategy %q (valid strategies: %s)", name, StrategyNames)
	}
}

// Progress is one search progress event. Events are advisory — they
// let a caller (the jobs runner, a CLI spinner) report live progress —
// and carry only completed work: Evaluated never counts a candidate
// whose evaluation was cut short.
type Progress struct {
	// Evaluated counts candidate evaluations completed so far; Total
	// is the planned number of evaluations (for halving, the
	// worst-case rung plan — the search may finish under it when
	// candidates fail to generate).
	Evaluated, Total int
	// Rung is the fidelity rung being evaluated (always 0 for the
	// grid strategy).
	Rung int
	// Completed, when non-nil, is a copy of the candidate record that
	// just finished evaluating.
	Completed *Candidate
	// Best, when non-nil, is a copy of the best feasible candidate
	// seen so far at the current rung's fidelity.
	Best *Candidate
}

// Options configures the search.
type Options struct {
	Objective   Objective
	Constraints Constraints
	// ChannelHeights are the candidate uniform channel heights; nil
	// selects {100, 125, 150, 175, 200} µm. A non-nil empty slice is
	// an explicit zero-candidate axis and is rejected rather than
	// silently yielding an infeasible search, and so is a grid of
	// more than MaxCandidates.
	ChannelHeights []units.Length
	// MinGaps are the candidate module gap budgets; nil selects
	// {2, 2.5, 3, 4} mm. A non-nil empty slice is rejected like an
	// empty ChannelHeights.
	MinGaps []units.Length
	// Strategy selects grid (default) or successive halving.
	Strategy Strategy
	// Sim is the full-fidelity validation configuration: the grid
	// strategy uses it for every candidate, the halving strategy for
	// the final rung. The zero value keeps the historical analytic
	// exact model; the numeric model is rejected (see CheckOptions).
	Sim sim.Options
	// HalvingEta is the halving keep divisor: each rung keeps
	// ceil(n/HalvingEta) survivors. Zero selects 2; values below 2
	// are rejected (the rung population must shrink).
	HalvingEta int
	// Workers bounds the concurrent candidate evaluations of a
	// halving rung (0 = GOMAXPROCS). The grid strategy is serial, so
	// its candidate log and abort counts stay exact.
	Workers int
	// Progress, when non-nil, receives progress events. The halving
	// strategy may invoke it concurrently from rung workers; the
	// callback must be safe for concurrent use.
	Progress func(Progress)
}

// Candidate records one evaluated design point.
type Candidate struct {
	ChannelHeight units.Length
	MinGap        units.Length
	// Rung is the fidelity rung the evaluation ran at (0 for the grid
	// strategy; halving candidates appear once per rung they reached).
	Rung     int
	Feasible bool
	// Score is the objective value (lower is better); NaN when the
	// candidate failed to generate.
	Score float64
	// Reason explains infeasibility.
	Reason string
}

// RungStats summarizes one successive-halving rung.
type RungStats struct {
	// Rung is the rung index, cheapest first.
	Rung int
	// Model names the rung fidelity ("approx", "exact").
	Model string
	// Evaluated is how many candidates were evaluated at this rung;
	// Kept is how many survived into the next rung (equal to
	// Evaluated for the final rung).
	Evaluated, Kept int
}

// Result is the outcome of an optimization run.
type Result struct {
	Best       *core.Design
	BestReport *sim.Report
	BestSpec   core.Spec
	// BestCandidate is the winning candidate record (final-rung
	// fidelity), nil when nothing was feasible.
	BestCandidate *Candidate
	// Candidates logs every completed evaluation. The grid strategy
	// records each candidate once; halving records one entry per
	// (rung, surviving candidate), in rung-major candidate order.
	Candidates []Candidate
	// Evaluated counts completed candidate evaluations across all
	// rungs; FullEvaluations counts only full-fidelity (final-rung)
	// evaluations — the cost a grid search pays for every candidate.
	Evaluated       int
	FullEvaluations int
	// Feasible counts candidates found feasible at full fidelity.
	Feasible int
	// Rungs describes the halving schedule actually run (nil for the
	// grid strategy).
	Rungs []RungStats
}

// ErrInfeasible is returned when no candidate satisfies the
// constraints.
var ErrInfeasible = errors.New("optimize: no feasible design in the search grid")

// Optimize searches the candidate grid. The input specification's
// explicit ChannelHeight is overridden per candidate; all other
// parameters are preserved.
func Optimize(spec core.Spec, opt Options) (*Result, error) {
	return Search(context.Background(), spec, opt)
}

// Search is Optimize with cooperative cancellation and strategy
// selection: when ctx is done the search returns the partial Result
// accumulated so far together with an error wrapping ctx.Err() —
// callers can inspect Result.Candidates to see how far the search
// got, and errors.Is distinguishes the abort from ErrInfeasible.
//
// Evaluated counts only completed candidate evaluations: a candidate
// whose generation or validation was cut short by cancellation is
// neither counted nor logged, so "aborted after N of M candidates"
// means exactly N finished.
func Search(ctx context.Context, spec core.Spec, opt Options) (*Result, error) {
	if err := CheckOptions(opt); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	heights, gaps := opt.axes()
	switch opt.Strategy {
	case StrategyGrid:
		return searchGrid(ctx, spec, opt, heights, gaps)
	case StrategyHalving:
		return searchHalving(ctx, spec, opt, heights, gaps)
	default:
		return nil, fmt.Errorf("optimize: unknown strategy %v (valid strategies: %s)", opt.Strategy, StrategyNames)
	}
}

// MaxCandidates caps the candidate grid a search accepts: 4 096, a
// 64 × 64 grid. Halving allocates every candidate before its first
// evaluation, and a finished job's status lists every evaluation, at
// 240–270 bytes per candidate; at 4 096 that body is about 1 MB, the
// size of the server's request bound. The default axes give 20
// candidates.
const MaxCandidates = 4096

// axes returns the candidate axes, nil selecting the documented
// defaults.
func (o Options) axes() (heights, gaps []units.Length) {
	heights, gaps = o.ChannelHeights, o.MinGaps
	if heights == nil {
		heights = []units.Length{
			units.Micrometres(100), units.Micrometres(125), units.Micrometres(150),
			units.Micrometres(175), units.Micrometres(200),
		}
	}
	if gaps == nil {
		gaps = []units.Length{
			units.Millimetres(2), units.Millimetres(2.5), units.Millimetres(3), units.Millimetres(4),
		}
	}
	return heights, gaps
}

// CheckOptions rejects options no search may run, before any work:
// an explicitly empty candidate axis, a grid over MaxCandidates, a
// negative flow-deviation budget, and the numeric model. The FDM
// cross-section solve is an offline oracle: it converges to the exact
// model, which is cheaper and closer at every resolution, so a search
// scores with exact instead. Search runs the check first; the job
// parser and oocopt call it so a bad request fails up front.
func CheckOptions(opt Options) error {
	heights, gaps := opt.axes()
	// A non-nil empty axis is an explicit request for zero candidates
	// — almost certainly a bug at the call site (a filtered-to-nothing
	// slice). Name the axis instead of reporting a vacuous
	// ErrInfeasible.
	if len(heights) == 0 {
		return fmt.Errorf("optimize: ChannelHeights is empty (nil selects the default axis; an empty axis has no candidates)")
	}
	if len(gaps) == 0 {
		return fmt.Errorf("optimize: MinGaps is empty (nil selects the default axis; an empty axis has no candidates)")
	}
	// Both axes are non-empty, so neither may exceed the cap alone;
	// checking them first keeps the product from overflowing.
	if len(heights) > MaxCandidates || len(gaps) > MaxCandidates || len(heights)*len(gaps) > MaxCandidates {
		return fmt.Errorf("optimize: %d channel heights × %d min gaps exceed the cap of %d candidates",
			len(heights), len(gaps), MaxCandidates)
	}
	if opt.Constraints.MaxFlowDeviation < 0 {
		return fmt.Errorf("optimize: negative flow-deviation budget %g", opt.Constraints.MaxFlowDeviation)
	}
	if opt.Sim.Model == sim.ModelNumeric {
		return fmt.Errorf("optimize: model numeric cannot drive a search: the FDM solve is an offline oracle (check a chosen design with oocsim -model numeric); search with exact")
	}
	return nil
}

// evaluate generates and validates one candidate design point under
// simOpt and classifies it against the constraints. The returned
// report and design are nil when the candidate failed to generate or
// validate; an abort error is returned only when ctx was cut, so the
// caller can distinguish "this candidate is bad" from "the search is
// over".
func evaluate(ctx context.Context, spec core.Spec, opt Options, h, g units.Length, rung int, simOpt sim.Options) (Candidate, core.Spec, *core.Design, *sim.Report, error) {
	cand := Candidate{ChannelHeight: h, MinGap: g, Rung: rung, Score: math.NaN()}
	s := spec
	s.Geometry.ChannelHeight = h
	s.Geometry.MinGap = g
	d, err := core.GenerateContext(ctx, s)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cand, s, nil, nil, cerr
		}
		cand.Reason = fmt.Sprintf("generation failed: %v", err)
		return cand, s, nil, nil, nil
	}
	rep, err := sim.ValidateContext(ctx, d, simOpt)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cand, s, nil, nil, cerr
		}
		cand.Reason = fmt.Sprintf("validation failed: %v", err)
		return cand, s, nil, nil, nil
	}

	cand.Score = score(opt.Objective, d, rep)
	switch {
	case rep.MaxFlowDeviation > opt.Constraints.MaxFlowDeviation:
		cand.Reason = fmt.Sprintf("flow deviation %.1f%% over budget %.1f%%",
			rep.MaxFlowDeviation*100, opt.Constraints.MaxFlowDeviation*100)
	case opt.Constraints.MaxPumpPressure > 0 && rep.PumpPressure > opt.Constraints.MaxPumpPressure:
		cand.Reason = fmt.Sprintf("pump pressure %.0f Pa over cap %.0f Pa",
			rep.PumpPressure.Pascals(), opt.Constraints.MaxPumpPressure.Pascals())
	case opt.Constraints.MaxChipWidth > 0 && units.Length(d.Bounds.Width()) > opt.Constraints.MaxChipWidth:
		cand.Reason = fmt.Sprintf("chip width %.1f mm over cap", d.Bounds.Width()*1e3)
	case opt.Constraints.MaxChipHeight > 0 && units.Length(d.Bounds.Height()) > opt.Constraints.MaxChipHeight:
		cand.Reason = fmt.Sprintf("chip height %.1f mm over cap", d.Bounds.Height()*1e3)
	default:
		cand.Feasible = true
	}
	return cand, s, d, rep, nil
}

// searchGrid evaluates the full candidate grid serially at full
// fidelity, in height-major candidate order.
func searchGrid(ctx context.Context, spec core.Spec, opt Options, heights, gaps []units.Length) (*Result, error) {
	res := &Result{}
	total := len(heights) * len(gaps)
	bestScore := math.Inf(1)
	abort := func(err error) (*Result, error) {
		return res, fmt.Errorf("optimize: search aborted after %d of %d candidates: %w",
			res.Evaluated, total, err)
	}
	for _, h := range heights {
		for _, g := range gaps {
			if err := ctx.Err(); err != nil {
				return abort(err)
			}
			cand, s, d, rep, err := evaluate(ctx, spec, opt, h, g, 0, opt.Sim)
			if err != nil {
				// The evaluation was cut short: the candidate did not
				// complete, so it is neither counted nor logged.
				return abort(err)
			}
			res.Evaluated++
			res.FullEvaluations++
			if cand.Feasible {
				res.Feasible++
				if cand.Score < bestScore {
					bestScore = cand.Score
					res.Best = d
					res.BestReport = rep
					res.BestSpec = s
					c := cand
					res.BestCandidate = &c
				}
			}
			res.Candidates = append(res.Candidates, cand)
			if opt.Progress != nil {
				p := Progress{Evaluated: res.Evaluated, Total: total, Completed: copyCandidate(cand)}
				p.Best = cloneCandidate(res.BestCandidate)
				opt.Progress(p)
			}
		}
	}
	if res.Best == nil {
		return res, ErrInfeasible
	}
	return res, nil
}

// copyCandidate returns a pointer to a copy of c.
func copyCandidate(c Candidate) *Candidate { return &c }

// cloneCandidate copies c, or returns nil for nil.
func cloneCandidate(c *Candidate) *Candidate {
	if c == nil {
		return nil
	}
	cp := *c
	return &cp
}

func score(o Objective, d *core.Design, rep *sim.Report) float64 {
	switch o {
	case MinimizeArea:
		return d.Bounds.Width() * d.Bounds.Height()
	case MinimizePumpPressure:
		return rep.PumpPressure.Pascals()
	case MinimizeTotalFlow:
		return d.Pumps.Inlet.CubicMetresPerSecond()
	default:
		return math.NaN()
	}
}
