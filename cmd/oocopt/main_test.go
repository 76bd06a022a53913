package main

import (
	"context"
	"strings"
	"testing"

	"ooc/internal/optimize"
	"ooc/internal/sim"
	"ooc/internal/units"
)

// TestFlagValidation: every name flag resolves through the shared
// parsers, and a typo'd spelling fails with an error that lists the
// valid names — the message main prints before exiting 2.
func TestFlagValidation(t *testing.T) {
	base := config{objective: "area", strategy: "grid", model: "exact", maxDeviation: 0.05}

	opt, err := searchOptions(base)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Objective != optimize.MinimizeArea || opt.Strategy != optimize.StrategyGrid {
		t.Fatalf("defaults resolved wrong: %+v", opt)
	}

	// The dynamic model resolves with populated (validating) transient
	// options — a search must never trip the zero-sentinel check.
	dcfg := base
	dcfg.model = "dynamic"
	dopt, err := searchOptions(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if dopt.Sim.Model != sim.ModelDynamic {
		t.Fatalf("model = %v, want dynamic", dopt.Sim.Model)
	}
	if err := dopt.Sim.Dynamic.Validate(); err != nil {
		t.Fatalf("dynamic options not populated: %v", err)
	}

	for _, tc := range []struct {
		mutate func(*config)
		names  string
	}{
		{func(c *config) { c.objective = "beauty" }, optimize.ObjectiveNames},
		{func(c *config) { c.strategy = "annealing" }, optimize.StrategyNames},
		{func(c *config) { c.model = "bogus" }, sim.ModelNames},
		{func(c *config) { c.resolution = 1000000 }, "-resolution: sim: numeric resolution 1000000 out of range"},
		{func(c *config) { c.resolution = -1 }, "-resolution: sim: numeric resolution -1 out of range"},
		{func(c *config) { c.heights = "100,banana" }, "-heights"},
		{func(c *config) { c.gaps = "2,-3" }, "-gaps"},
	} {
		cfg := base
		tc.mutate(&cfg)
		if _, err := searchOptions(cfg); err == nil {
			t.Errorf("config %+v: expected an error", cfg)
		} else if !strings.Contains(err.Error(), tc.names) {
			t.Errorf("error %v does not mention %q", err, tc.names)
		}
	}
}

// TestParseAxis: comma-separated values convert through the unit
// constructor; the empty flag keeps the default axis.
func TestParseAxis(t *testing.T) {
	axis, err := parseAxis(" 100, 150 ,200", "-heights", units.Micrometres)
	if err != nil {
		t.Fatal(err)
	}
	if len(axis) != 3 || int(axis[1].Micrometres()+0.5) != 150 {
		t.Fatalf("axis %v", axis)
	}
	if axis, err := parseAxis("", "-heights", units.Micrometres); err != nil || axis != nil {
		t.Fatalf("empty flag: %v, %v", axis, err)
	}
}

// TestSearchAndRender: a small real search end to end through the
// CLI's option building and result rendering.
func TestSearchAndRender(t *testing.T) {
	cfg := config{
		usecase: "male_simple", objective: "area", strategy: "halving",
		model: "exact", maxDeviation: 0.05,
		heights: "100,150,200", gaps: "2,3",
	}
	opt, err := searchOptions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(cfg.usecase, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimize.Search(context.Background(), spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	out := resultText(res, opt, true)
	for _, want := range []string{"halving search", "best:", "rung 0", "chip:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if res.FullEvaluations >= res.Evaluated {
		t.Fatalf("halving saved nothing: %d full of %d", res.FullEvaluations, res.Evaluated)
	}
}

// TestLoadSpecUsage: the -usecase/-spec combinations main treats as
// usage errors.
func TestLoadSpecUsage(t *testing.T) {
	if _, err := loadSpec("", ""); err == nil {
		t.Fatal("no source: expected an error")
	}
	if _, err := loadSpec("male_simple", "also.json"); err == nil {
		t.Fatal("both sources: expected an error")
	}
	if _, err := loadSpec("not_a_usecase", ""); err == nil {
		t.Fatal("unknown use case: expected an error")
	}
}
