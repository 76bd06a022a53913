// Command oocsim validates a generated design file (as written by
// oocgen -json) with the CFD-substitute pipeline: it re-solves the
// chip's channel network under the exact duct-resistance model with
// laminar minor losses and reports per-module flow-rate and perfusion
// deviations from the specification embedded in the file.
//
// The validation is context-driven: Ctrl-C (SIGINT/SIGTERM) or an
// elapsed -timeout budget aborts it cooperatively under every model,
// -model numeric included, and the exit status is nonzero.
//
// Under -model dynamic the steady solve is replaced by the transient
// tier (internal/dyn): pressures and flows evolve from rest under a
// pump profile, optionally transporting a dosed species from the inlet
// through the organ chain. The report gains a time-series table (or
// the full series as CSV with -csv).
//
// With -budget the model is not fixed up front: the cheapest
// calibrated fidelity rung whose worst-case deviation from the
// numeric@128 reference fits the budget is auto-selected per design
// (internal/modelsel). An explicitly set -model always wins over
// -budget.
//
// Usage:
//
//	oocsim chip.json
//	oocsim -model approx -no-bends -no-junctions chip.json   # self-consistency check
//	oocsim -model numeric -timeout 30s -stats chip.json      # CFD-lite with telemetry
//	oocsim -budget 0.001 chip.json                           # auto-select rung within 0.1% error
//	oocsim -model dynamic -duration 2s -pump-profile pulse:0.5@500ms -dose 1 chip.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ooc/internal/dyn"
	"ooc/internal/modelsel"
	"ooc/internal/obs"
	"ooc/internal/render"
	"ooc/internal/report"
	"ooc/internal/sim"
)

func main() {
	def := sim.DefaultDynamicOptions()
	model := flag.String("model", "exact", "resistance model: "+sim.ModelNames)
	noBends := flag.Bool("no-bends", false, "disable meander bend losses")
	noJunctions := flag.Bool("no-junctions", false, "disable T-junction losses")
	timeout := flag.Duration("timeout", 0, "overall deadline for the validation (0 = none)")
	stats := flag.Bool("stats", false, "print solver telemetry after the report")
	duration := flag.Duration("duration", def.Duration, "dynamic model: simulated time span")
	maxStep := flag.Duration("max-step", def.MaxStep, "dynamic model: adaptive integrator step cap")
	sampleEvery := flag.Duration("sample-every", def.SampleEvery, "dynamic model: output sample cadence")
	profile := flag.String("pump-profile", "constant", "dynamic model: pump drive shape ("+dyn.ProfileNames+")")
	dose := flag.Float64("dose", 0, "dynamic model: inlet dose concentration; 0 disables species transport")
	csv := flag.Bool("csv", false, "dynamic model: print the full time series as CSV instead of the report")
	budget := flag.Float64("budget", 0, "error budget as a fraction in (0, 1]: auto-select the cheapest calibrated model rung within it (0 disables; explicit -model wins)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: oocsim [flags] design.json")
		os.Exit(2)
	}
	// Flag validation happens before any file I/O: a typo'd -model
	// or -budget is a usage error (exit 2 with the valid
	// spellings), not a late runtime failure after the design was
	// already parsed.
	opt, err := modelOptions(*model, *noBends, *noJunctions)
	if err == nil && opt.Model == sim.ModelDynamic {
		opt.Dynamic, err = dynamicOptions(*duration, *maxStep, *sampleEvery, *profile, *dose)
	}
	if err == nil && *budget != 0 {
		err = modelsel.CheckBudget(*budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oocsim:", err)
		fmt.Fprintf(os.Stderr, "usage: oocsim [-model {%s}] [flags] design.json\n", sim.ModelNames)
		os.Exit(2)
	}
	// An explicitly chosen -model beats -budget selection — the flag's
	// default "exact" is indistinguishable from an explicit choice by
	// value alone, so presence on the command line decides.
	modelSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "model" {
			modelSet = true
		}
	})
	effectiveBudget := *budget
	if modelSet && *budget != 0 {
		fmt.Fprintln(os.Stderr, "oocsim: explicit -model wins; -budget ignored")
		effectiveBudget = 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var col *obs.Collector
	if *stats {
		col = obs.NewCollector()
		ctx = obs.WithCollector(ctx, col)
	}

	err = run(ctx, flag.Arg(0), opt, effectiveBudget, *csv)
	if col != nil {
		// Telemetry covers whatever ran, including aborted solves.
		fmt.Print(col.Snapshot().Format())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oocsim:", err)
		os.Exit(1)
	}
}

// modelOptions resolves the model flag and loss switches into
// validation options.
func modelOptions(model string, noBends, noJunctions bool) (sim.Options, error) {
	o := sim.DefaultOptions()
	m, err := sim.ParseModel(model)
	if err != nil {
		return o, err
	}
	o.Model = m
	o.DisableBendLosses = noBends
	o.DisableJunctionLosses = noJunctions
	return o, nil
}

// dynamicOptions resolves the transient-tier flags; a non-zero -dose
// enables species transport, dosed at the inlet for the whole run, and
// validation rejects a negative or non-finite one.
func dynamicOptions(duration, maxStep, sampleEvery time.Duration, profile string, dose float64) (sim.DynamicOptions, error) {
	o := sim.DefaultDynamicOptions()
	o.Duration = duration
	o.MaxStep = maxStep
	o.SampleEvery = sampleEvery
	p, err := dyn.ParseProfile(profile)
	if err != nil {
		return o, err
	}
	o.Profile = p
	if dose != 0 {
		o.Species = dyn.InletDose(dose, duration.Seconds())
	}
	return o, o.Validate()
}

func run(ctx context.Context, path string, opt sim.Options, budget float64, csv bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	design, err := render.ParseJSON(raw)
	if err != nil {
		return err
	}
	// Budget selection waits until the design is parsed so the
	// per-use-case calibration bound (keyed by the design's name) can
	// be used; unknown names fall back to the global bound.
	if budget != 0 {
		table, err := modelsel.Default()
		if err != nil {
			return err
		}
		rung, err := table.Select(design.Name, budget)
		if err != nil {
			return err
		}
		rung.Apply(&opt)
		opt.ErrorBudget = budget
		fmt.Printf("model auto-selected: %s (calibrated worst-case deviation %.6g within budget %g)\n",
			rung.Name, rung.Bound(design.Name).Worst(), budget)
	}
	if opt.Model == sim.ModelDynamic {
		dr, err := sim.ValidateDynamicContext(ctx, design, opt)
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(report.DynamicCSV(dr))
		} else {
			fmt.Print(report.FormatDynamic(dr))
		}
		return nil
	}
	rep, err := sim.ValidateContext(ctx, design, opt)
	if err != nil {
		return err
	}
	fmt.Print(report.FormatFig4(rep))
	fmt.Printf("aggregate: flow dev avg %.2f%% max %.2f%% | perfusion dev avg %.2f%% max %.2f%%\n",
		rep.AvgFlowDeviation*100, rep.MaxFlowDeviation*100,
		rep.AvgPerfDeviation*100, rep.MaxPerfDeviation*100)
	return nil
}
