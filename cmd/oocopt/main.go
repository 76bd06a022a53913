// Command oocopt searches the candidate design space for the best
// feasible chip under an objective: the paper's design-automation
// loop run to an optimum instead of a single generation. The
// specification comes from a built-in use case (-usecase) or a JSON
// spec file (-spec); the candidate axes default to the documented
// grid ({100..200} µm channel heights × {2..4} mm module gaps) and
// can be overridden with -heights/-gaps.
//
// Two strategies are available: the exhaustive grid (every candidate
// validated at full fidelity) and successive halving (-strategy
// halving), which screens all candidates at a cheap fidelity rung and
// promotes only the top 1/eta fraction per rung, so just the final
// survivors pay the full-fidelity cost. -stats prints the per-rung
// schedule and evaluation counts.
//
// The search is context-driven: Ctrl-C (SIGINT/SIGTERM) or an elapsed
// -timeout budget aborts it cooperatively, keeping the partially
// evaluated candidate log.
//
// With -budget the full-fidelity model is not fixed up front: the
// cheapest calibrated rung whose worst-case deviation fits the budget
// is auto-selected for the spec's use case (internal/modelsel). An
// explicitly set -model wins over -budget.
//
// Usage:
//
//	oocopt -usecase male_simple
//	oocopt -usecase male_simple -strategy halving -stats
//	oocopt -spec myspec.json -objective pressure -model numeric -timeout 2m
//	oocopt -usecase male_simple -budget 0.001
//	oocopt -usecase male_simple -heights 100,150,200 -gaps 2,3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ooc/internal/core"
	"ooc/internal/modelsel"
	"ooc/internal/optimize"
	"ooc/internal/sim"
	"ooc/internal/specio"
	"ooc/internal/units"
	"ooc/internal/usecases"
)

type config struct {
	usecase      string
	specPath     string
	objective    string
	strategy     string
	model        string
	resolution   int
	heights      string
	gaps         string
	maxDeviation float64
	maxPressure  float64
	eta          int
	workers      int
	timeout      time.Duration
	stats        bool
	budget       float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.usecase, "usecase", "", "built-in use case name (male_simple, female_simple, ...)")
	flag.StringVar(&cfg.specPath, "spec", "", "path to a JSON specification file")
	flag.StringVar(&cfg.objective, "objective", "area", "objective to minimize: area, pressure or flow")
	flag.StringVar(&cfg.strategy, "strategy", "grid", "search strategy: grid or halving")
	flag.StringVar(&cfg.model, "model", "exact", "full-fidelity resistance model: "+sim.ModelNames)
	flag.IntVar(&cfg.resolution, "resolution", 0, "numeric model cross-section resolution (0 = 32)")
	flag.StringVar(&cfg.heights, "heights", "", "comma-separated candidate channel heights in µm (default 100,125,150,175,200)")
	flag.StringVar(&cfg.gaps, "gaps", "", "comma-separated candidate module gaps in mm (default 2,2.5,3,4)")
	flag.Float64Var(&cfg.maxDeviation, "max-deviation", 0.05, "flow-deviation feasibility budget (fraction)")
	flag.Float64Var(&cfg.maxPressure, "max-pressure", 0, "pump-pressure cap in Pa (0 = unbounded)")
	flag.IntVar(&cfg.eta, "eta", 0, "halving keep divisor: each rung keeps ceil(n/eta) survivors (0 = 2)")
	flag.IntVar(&cfg.workers, "workers", 0, "concurrent candidate evaluations per halving rung (0 = GOMAXPROCS)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "overall search deadline (0 = none)")
	flag.BoolVar(&cfg.stats, "stats", false, "print the rung schedule and the full candidate log")
	flag.Float64Var(&cfg.budget, "budget", 0, "error budget as a fraction in (0, 1]: auto-select the cheapest calibrated full-fidelity rung within it (0 disables; explicit -model wins)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: oocopt [flags]")
		os.Exit(2)
	}

	// Flag validation happens before any work: a typo'd name is a
	// usage error (exit 2 with the valid spellings), not a late
	// runtime failure.
	opt, err := searchOptions(cfg)
	if err == nil && cfg.budget != 0 {
		err = modelsel.CheckBudget(cfg.budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oocopt:", err)
		fmt.Fprintf(os.Stderr, "usage: oocopt [-objective {%s}] [-strategy {%s}] [-model {%s}] [flags]\n",
			optimize.ObjectiveNames, optimize.StrategyNames, sim.ModelNames)
		os.Exit(2)
	}
	spec, err := loadSpec(cfg.usecase, cfg.specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oocopt:", err)
		os.Exit(2)
	}
	// Budget selection waits for the spec so the per-use-case
	// calibration bound (keyed by the spec's name) applies. The flag's
	// -model default "exact" is indistinguishable from an explicit
	// choice by value alone, so command-line presence decides the
	// explicit-model-wins rule.
	modelSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "model" {
			modelSet = true
		}
	})
	if cfg.budget != 0 {
		if modelSet {
			fmt.Fprintln(os.Stderr, "oocopt: explicit -model wins; -budget ignored")
		} else {
			table, err := modelsel.Default()
			if err == nil {
				var rung modelsel.Rung
				if rung, err = table.Select(spec.Name, cfg.budget); err == nil {
					rung.Apply(&opt.Sim)
					opt.Sim.ErrorBudget = cfg.budget
					fmt.Fprintf(os.Stderr, "oocopt: error budget %g selected %s (calibrated worst-case deviation %.6g)\n",
						cfg.budget, rung.Name, rung.Bound(spec.Name).Worst())
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "oocopt:", err)
				os.Exit(2)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	res, err := optimize.Search(ctx, spec, opt)
	// An aborted or infeasible search still carries a candidate log
	// worth printing before the error decides the exit code.
	if res != nil {
		fmt.Print(resultText(res, opt, cfg.stats))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oocopt:", err)
		if errors.Is(err, optimize.ErrInfeasible) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// loadSpec resolves the -usecase/-spec flags into a specification.
func loadSpec(useCase, specPath string) (core.Spec, error) {
	switch {
	case useCase != "" && specPath != "":
		return core.Spec{}, fmt.Errorf("use either -usecase or -spec, not both")
	case useCase != "":
		uc, err := usecases.ByName(useCase)
		if err != nil {
			return core.Spec{}, err
		}
		return uc.Build(), nil
	case specPath != "":
		raw, err := os.ReadFile(specPath)
		if err != nil {
			return core.Spec{}, err
		}
		return specio.Parse(raw)
	default:
		return core.Spec{}, fmt.Errorf("need -usecase or -spec (try -usecase male_simple)")
	}
}

// searchOptions resolves the flags into search options. Unknown
// spellings surface the valid names.
func searchOptions(cfg config) (optimize.Options, error) {
	var opt optimize.Options
	var err error
	if opt.Objective, err = optimize.ParseObjective(cfg.objective); err != nil {
		return optimize.Options{}, err
	}
	if opt.Strategy, err = optimize.ParseStrategy(cfg.strategy); err != nil {
		return optimize.Options{}, err
	}
	if opt.Sim.Model, err = sim.ParseModel(cfg.model); err != nil {
		return optimize.Options{}, err
	}
	if opt.Sim.Model == sim.ModelDynamic {
		// The search scores settled final states, so the documented
		// transient defaults are the right configuration.
		opt.Sim.Dynamic = sim.DefaultDynamicOptions()
	}
	if _, err := sim.ResolveNumericResolution(cfg.resolution); err != nil {
		return optimize.Options{}, fmt.Errorf("-resolution: %w", err)
	}
	opt.Sim.NumericResolution = cfg.resolution
	opt.Constraints = optimize.Constraints{MaxFlowDeviation: cfg.maxDeviation}
	if cfg.maxPressure > 0 {
		opt.Constraints.MaxPumpPressure = units.Pascals(cfg.maxPressure)
	}
	if opt.ChannelHeights, err = parseAxis(cfg.heights, "-heights", units.Micrometres); err != nil {
		return optimize.Options{}, err
	}
	if opt.MinGaps, err = parseAxis(cfg.gaps, "-gaps", units.Millimetres); err != nil {
		return optimize.Options{}, err
	}
	opt.HalvingEta = cfg.eta
	opt.Workers = cfg.workers
	return opt, nil
}

// parseAxis converts a comma-separated flag value into candidate
// lengths; an empty flag keeps the default axis (nil).
func parseAxis(raw, flagName string, unit func(float64) units.Length) ([]units.Length, error) {
	if raw == "" {
		return nil, nil
	}
	parts := strings.Split(raw, ",")
	axis := make([]units.Length, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("%s: %q is not a positive number", flagName, p)
		}
		axis = append(axis, unit(v))
	}
	return axis, nil
}

// resultText renders a search result: the winner (when any), the
// evaluation economy, and with stats the rung schedule and candidate
// log.
func resultText(res *optimize.Result, opt optimize.Options, stats bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "oocopt: %s search, minimize %s: %d evaluations (%d full fidelity), %d feasible\n",
		opt.Strategy, opt.Objective, res.Evaluated, res.FullEvaluations, res.Feasible)
	if res.BestCandidate != nil {
		c := res.BestCandidate
		fmt.Fprintf(&b, "best: h=%.0fµm gap=%.2gmm score=%.6g\n",
			c.ChannelHeight.Micrometres(), c.MinGap.Millimetres(), c.Score)
		if res.Best != nil {
			fmt.Fprintf(&b, "chip: %.1f × %.1f mm, pump %.0f Pa, max flow deviation %.2f%%\n",
				res.Best.Bounds.Width()*1e3, res.Best.Bounds.Height()*1e3,
				res.BestReport.PumpPressure.Pascals(), res.BestReport.MaxFlowDeviation*100)
		}
	}
	if !stats {
		return b.String()
	}
	for _, rg := range res.Rungs {
		fmt.Fprintf(&b, "rung %d (%s): evaluated %d, kept %d\n", rg.Rung, rg.Model, rg.Evaluated, rg.Kept)
	}
	for _, c := range res.Candidates {
		verdict := "feasible"
		if !c.Feasible {
			verdict = c.Reason
		}
		score := "-"
		if !math.IsNaN(c.Score) {
			score = fmt.Sprintf("%.6g", c.Score)
		}
		fmt.Fprintf(&b, "  r%d h=%.0fµm gap=%.2gmm score=%s %s\n",
			c.Rung, c.ChannelHeight.Micrometres(), c.MinGap.Millimetres(), score, verdict)
	}
	return b.String()
}
