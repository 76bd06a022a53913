// Command oocbench reproduces the paper's evaluation (Sec. IV): it
// generates every OoC instance of the use-case × parameter grid,
// validates each generated design with the CFD-substitute pipeline,
// and prints Table I (average and worst-case deviations in perfusion
// and module flow rate per use case) as well as the Fig. 4 per-module
// flow listing for male_simple.
//
// The grid is evaluated through the shared worker pool
// (internal/parallel via internal/eval): rows are aggregated in
// instance-index order and every per-instance failure is preserved,
// so the output is byte-identical for any -workers value.
//
// The whole run is context-driven: Ctrl-C (SIGINT/SIGTERM) or an
// elapsed -timeout budget cancels the evaluation cooperatively, the
// rows that finished are still printed, and the process exits
// nonzero with the cancellation cause.
//
// Usage:
//
//	oocbench              # extended 288-instance grid (matches the paper's count)
//	oocbench -paper-grid  # the literal 3×3×3 grid from the text (216 instances)
//	oocbench -fig4        # only the Fig. 4 validation
//	oocbench -csv         # machine-readable Table I
//	oocbench -workers 1   # serial evaluation (default: GOMAXPROCS)
//	oocbench -timeout 30s # per-run deadline budget
//	oocbench -stats       # numeric-model run with solver/cache telemetry
//	oocbench -json        # machine-readable benchmark document (grid only)
//	oocbench -json -diff BENCH_5.json  # regression gate vs a committed baseline
//	oocbench -budget 0.02 # auto-select the cheapest model within a 2% error budget
//	oocbench -calibrate > internal/modelsel/CALIB.json  # regenerate the calibration artifact
//	oocbench -calibrate -diff internal/modelsel/CALIB.json  # CI drift gate
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ooc/internal/core"
	"ooc/internal/eval"
	"ooc/internal/modelsel"
	"ooc/internal/obs"
	"ooc/internal/report"
	"ooc/internal/sim"
	"ooc/internal/usecases"
)

// config collects the command-line switches so tests can drive run
// directly.
type config struct {
	paperGrid bool
	fig4Only  bool
	csv       bool
	baseline  bool
	series    bool
	workers   int
	timeout   time.Duration
	stats     bool
	model     string
	jsonOut   bool
	diffPath  string
	budget    float64
	calibrate bool
	// diff tolerances; see cmd/oocbench/json.go and calibrate.go.
	diffAccTol  float64
	diffWallTol float64
	diffIterTol float64
	calibTol    float64
}

// simOptions resolves the -model and -budget flags. A -model of "auto"
// keeps the historical analytic-exact validation, except under -stats
// where the numeric model is selected so the telemetry has iterative
// solves and cache traffic to report, and under -budget where the
// cheapest calibrated rung within the error budget is selected (an
// explicit -model always wins over -budget); everything else goes
// through the shared sim.ParseModel spelling check. The selected rung,
// when any, rides along for the run header.
func (c config) simOptions() (sim.Options, *modelsel.Rung, error) {
	opt := sim.DefaultOptions()
	explicitModel := c.model != "" && c.model != "auto"
	if c.budget != 0 && !explicitModel {
		// The grid spans every use case, so selection goes against the
		// global (all-use-case) calibrated bounds.
		table, err := modelsel.Default()
		if err != nil {
			return opt, nil, err
		}
		rung, err := table.Select("", c.budget)
		if err != nil {
			return opt, nil, fmt.Errorf("-budget: %w", err)
		}
		rung.Apply(&opt)
		opt.ErrorBudget = c.budget
		return opt, &rung, nil
	}
	if !explicitModel {
		if c.stats {
			opt.Model = sim.ModelNumeric
		}
		return opt, nil, nil
	}
	m, err := sim.ParseModel(c.model)
	if err != nil {
		return opt, nil, fmt.Errorf("-model: %w (or auto)", err)
	}
	opt.Model = m
	if m == sim.ModelDynamic {
		// The benchmark compares settled final states, so the documented
		// transient defaults are the right configuration.
		opt.Dynamic = sim.DefaultDynamicOptions()
	}
	return opt, nil, nil
}

func main() {
	var cfg config
	flag.BoolVar(&cfg.paperGrid, "paper-grid", false, "use the literal 3×3×3 parameter grid (216 instances) instead of the 288-instance extended grid")
	flag.BoolVar(&cfg.fig4Only, "fig4", false, "only run the Fig. 4 male_simple validation")
	flag.BoolVar(&cfg.csv, "csv", false, "emit Table I as CSV")
	flag.BoolVar(&cfg.baseline, "baseline", false, "also evaluate the no-pressure-correction baseline on the Fig. 4 instance")
	flag.BoolVar(&cfg.series, "series", false, "also print deviation-vs-parameter data series (spacing, viscosity, shear)")
	flag.IntVar(&cfg.workers, "workers", 0, "worker-pool size for the grid evaluation (0 = GOMAXPROCS)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "overall deadline for the run (0 = none); on expiry partial results are flushed and the exit status is nonzero")
	flag.BoolVar(&cfg.stats, "stats", false, "print solver/cache telemetry after the report (selects the numeric resistance model under -model auto)")
	flag.StringVar(&cfg.model, "model", "auto", "validation resistance model: auto or one of "+sim.ModelNames)
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit a machine-readable benchmark document (grid rows + solver/cache telemetry) instead of the report")
	flag.StringVar(&cfg.diffPath, "diff", "", "compare a fresh -json run against the baseline document at this path; exit nonzero on regression")
	flag.Float64Var(&cfg.budget, "budget", 0, "auto-select the cheapest model whose calibrated worst-case deviation fits this fraction (0 disables; an explicit -model wins)")
	flag.BoolVar(&cfg.calibrate, "calibrate", false, "emit the modelsel calibration document (paper grid swept across every ladder rung plus the reference) instead of the report; with -diff, gate on drift vs a committed CALIB.json")
	flag.Float64Var(&cfg.diffAccTol, "diff-acc-tol", 0.01, "-diff: max allowed drift per deviation cell, in percentage points")
	flag.Float64Var(&cfg.diffWallTol, "diff-wall-tol", 2.0, "-diff: max allowed wall-clock ratio vs baseline")
	flag.Float64Var(&cfg.diffIterTol, "diff-iter-tol", 1.25, "-diff: max allowed per-solver iteration ratio vs baseline")
	flag.Float64Var(&cfg.calibTol, "calib-tol", 1e-6, "-calibrate -diff: max allowed absolute drift per calibrated bound")
	flag.Parse()

	// A typo'd -model (or an out-of-range -budget, or a flag combination
	// with two output formats) is a usage error: fail before the grid
	// run starts, with the valid spellings, and exit 2 like flag package
	// parse failures do.
	if _, _, err := cfg.simOptions(); err != nil {
		fmt.Fprintln(os.Stderr, "oocbench:", err)
		fmt.Fprintf(os.Stderr, "usage: oocbench [-model {auto, %s}] [-budget f] [flags]\n", sim.ModelNames)
		os.Exit(2)
	}
	if cfg.calibrate && cfg.jsonOut {
		fmt.Fprintln(os.Stderr, "oocbench: -calibrate and -json are distinct documents; pick one")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	if err := run(ctx, cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "oocbench:", err)
		os.Exit(1)
	}
}

// run renders the full report into in-memory builders and flushes each
// with a single checked write, so no Fprint error is silently dropped.
// On cancellation the body rendered so far — plus the telemetry
// summary under -stats — is still flushed before the error is
// returned, so an aborted run keeps its partial results.
func run(ctx context.Context, cfg config, out, errOut io.Writer) error {
	if cfg.calibrate {
		return runCalibrate(ctx, cfg, out, errOut)
	}
	opt, sel, err := cfg.simOptions()
	if err != nil {
		return err
	}
	if cfg.budget != 0 {
		// The selection decision goes to stderr so -json stdout stays a
		// pure document.
		note := "oocbench: explicit -model wins; -budget ignored\n"
		if sel != nil {
			note = fmt.Sprintf("oocbench: error budget %g selected %s (calibrated worst-case deviation %.6g)\n",
				cfg.budget, sel.Name, sel.Global.Worst())
		}
		if _, err := io.WriteString(errOut, note); err != nil {
			return fmt.Errorf("writing selection note: %w", err)
		}
	}
	if cfg.jsonOut || cfg.diffPath != "" {
		return runJSON(ctx, cfg, opt, out, errOut)
	}
	if cfg.stats {
		// A fresh per-run collector (travelling via ctx) keeps the
		// telemetry scoped to this run; the cache is reset so the
		// hit/miss counts describe exactly this grid.
		ctx = obs.WithCollector(ctx, obs.NewCollector())
		sim.ResetCrossSectionCache()
	}
	var body, warn strings.Builder
	renderErr := render(ctx, cfg, opt, &body, &warn)
	if cfg.stats {
		fmt.Fprintf(&body, "\n%s", obs.FromContext(ctx).Snapshot().Format())
	}
	if _, err := io.WriteString(out, body.String()); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	if warn.Len() > 0 {
		if _, err := io.WriteString(errOut, warn.String()); err != nil {
			return fmt.Errorf("writing warnings: %w", err)
		}
	}
	return renderErr
}

func render(ctx context.Context, cfg config, opt sim.Options, out, errOut *strings.Builder) error {
	// Fig. 4: the representative male_simple instance.
	fig4 := usecases.Fig4Instance()
	d, err := core.Generate(fig4.Spec)
	if err != nil {
		return fmt.Errorf("fig4 generate: %w", err)
	}
	rep, err := sim.ValidateContext(ctx, d, opt)
	if err != nil {
		return fmt.Errorf("fig4 validate: %w", err)
	}
	fmt.Fprintln(out, report.FormatFig4(rep))
	if cfg.baseline {
		nd, err := core.GenerateNaive(fig4.Spec)
		if err != nil {
			return fmt.Errorf("baseline generate: %w", err)
		}
		nrep, err := sim.ValidateContext(ctx, nd, opt)
		if err != nil {
			return fmt.Errorf("baseline validate: %w", err)
		}
		fmt.Fprintf(out, "baseline (no pressure correction): flow dev avg %.1f%% max %.1f%% | perf dev avg %.1f%% max %.1f%%\n",
			nrep.AvgFlowDeviation*100, nrep.MaxFlowDeviation*100,
			nrep.AvgPerfDeviation*100, nrep.MaxPerfDeviation*100)
		fmt.Fprintf(out, "method value: worst flow deviation improves %.0f× (%.1f%% → %.2f%%)\n\n",
			nrep.MaxFlowDeviation/rep.MaxFlowDeviation,
			nrep.MaxFlowDeviation*100, rep.MaxFlowDeviation*100)
	}
	if cfg.fig4Only {
		return nil
	}

	sweep := usecases.ExtendedSweep()
	gridName := "extended 3×3×4 grid (288 instances)"
	if cfg.paperGrid {
		sweep = usecases.PaperSweep()
		gridName = "paper 3×3×3 grid (216 instances)"
	}
	cases := usecases.All()
	fmt.Fprintf(out, "Table I — %d use cases on the %s\n\n", len(cases), gridName)

	instances := usecases.Instances(cases, sweep)
	reps, evalErr := eval.Grid(ctx, instances, cfg.workers, opt)
	if evalErr != nil && ctx.Err() == nil {
		// Every per-instance failure, joined in index order; failed
		// instances are also counted in their use case's table row.
		fmt.Fprintln(errOut, "warning: instance failures:")
		fmt.Fprintln(errOut, evalErr)
	}

	tbl := eval.Table(cases, instances, reps)
	if cfg.csv {
		fmt.Fprint(out, tbl.CSV())
	} else {
		fmt.Fprint(out, tbl.Format())
	}
	if err := ctx.Err(); err != nil {
		// The table above holds whatever subset completed; report the
		// abort so the exit status reflects the truncated run.
		done := 0
		for _, r := range reps {
			if r != nil {
				done++
			}
		}
		return fmt.Errorf("partial results: %d of %d instances evaluated before abort: %w",
			done, len(instances), err)
	}

	if cfg.series {
		fmt.Fprintln(out)
		var spacing, visc, shear []float64
		var seriesReps []*sim.Report
		for i, rep := range reps {
			if rep == nil {
				continue
			}
			in := instances[i]
			spacing = append(spacing, in.Spacing.Metres())
			visc = append(visc, float64(in.Fluid.Viscosity))
			shear = append(shear, float64(in.Shear))
			seriesReps = append(seriesReps, rep)
		}
		for _, def := range []struct {
			name string
			keys []float64
		}{
			{"spacing [m]", spacing},
			{"viscosity [Pa.s]", visc},
			{"shear [Pa]", shear},
		} {
			s, err := report.AggregateSeries(def.name, def.keys, seriesReps)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, report.FormatSeries(s))
		}
	}
	return nil
}
