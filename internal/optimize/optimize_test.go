package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"ooc/internal/core"
	"ooc/internal/fluid"
	"ooc/internal/physio"
	"ooc/internal/sim"
	"ooc/internal/testutil"
	"ooc/internal/units"
)

func baseSpec() core.Spec {
	return core.Spec{
		Name:         "optimize_test",
		Reference:    physio.StandardMale(),
		OrganismMass: units.Kilograms(1e-6),
		Modules: []core.ModuleSpec{
			{Organ: physio.Lung, Kind: core.Layered},
			{Organ: physio.Liver, Kind: core.Layered},
			{Organ: physio.Brain, Kind: core.Layered},
		},
		Fluid:       fluid.MediumLowViscosity,
		ShearStress: units.PascalsShear(1.5),
	}
}

func TestOptimizeArea(t *testing.T) {
	res, err := Optimize(baseSpec(), Options{Objective: MinimizeArea, Constraints: DefaultConstraints()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Feasible == 0 {
		t.Fatal("no feasible design")
	}
	if res.Evaluated != 20 { // 5 heights × 4 gaps
		t.Fatalf("evaluated %d, want 20", res.Evaluated)
	}
	// The winner must be at least as good as the default-geometry chip.
	def, err := core.Generate(baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	bestArea := res.Best.Bounds.Width() * res.Best.Bounds.Height()
	defArea := def.Bounds.Width() * def.Bounds.Height()
	if bestArea > defArea*1.0001 {
		t.Fatalf("optimizer (%.1f mm²) worse than default (%.1f mm²)",
			bestArea*1e6, defArea*1e6)
	}
	// The candidate log is complete and scores where feasible.
	for _, c := range res.Candidates {
		if c.Feasible && math.IsNaN(c.Score) {
			t.Fatal("feasible candidate without score")
		}
		if !c.Feasible && c.Reason == "" {
			t.Fatal("infeasible candidate without reason")
		}
	}
}

func TestOptimizePumpPressure(t *testing.T) {
	area, err := Optimize(baseSpec(), Options{Objective: MinimizeArea, Constraints: DefaultConstraints()})
	if err != nil {
		t.Fatal(err)
	}
	pressure, err := Optimize(baseSpec(), Options{Objective: MinimizePumpPressure, Constraints: DefaultConstraints()})
	if err != nil {
		t.Fatal(err)
	}
	// Different objectives should generally find different optima; at
	// minimum the pressure winner can't have higher pump pressure than
	// the area winner.
	if pressure.BestReport.PumpPressure > area.BestReport.PumpPressure {
		t.Fatalf("pressure optimum %.0f Pa worse than area optimum %.0f Pa",
			pressure.BestReport.PumpPressure.Pascals(), area.BestReport.PumpPressure.Pascals())
	}
}

func TestOptimizeTotalFlow(t *testing.T) {
	res, err := Optimize(baseSpec(), Options{Objective: MinimizeTotalFlow, Constraints: DefaultConstraints()})
	if err != nil {
		t.Fatal(err)
	}
	// Lower channels mean lower flows (Q ∝ h²): the winner should use
	// the smallest candidate height.
	if !testutil.Approx(res.BestSpec.Geometry.ChannelHeight.Micrometres(), 100) {
		t.Fatalf("flow optimum uses h=%v, expected the smallest candidate",
			res.BestSpec.Geometry.ChannelHeight)
	}
}

func TestInfeasibleConstraints(t *testing.T) {
	_, err := Optimize(baseSpec(), Options{
		Objective: MinimizeArea,
		Constraints: Constraints{
			MaxFlowDeviation: 0.05,
			MaxChipWidth:     units.Millimetres(1), // impossible
		},
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestConstraintFiltering(t *testing.T) {
	// A modest pressure cap must exclude some candidates but keep the
	// problem feasible.
	unconstrained, err := Optimize(baseSpec(), Options{Objective: MinimizeArea, Constraints: DefaultConstraints()})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Optimize(baseSpec(), Options{
		Objective: MinimizeArea,
		Constraints: Constraints{
			MaxFlowDeviation: 0.05,
			MaxPumpPressure:  unconstrained.BestReport.PumpPressure,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Feasible > unconstrained.Feasible {
		t.Fatal("cap increased feasibility")
	}
	if capped.BestReport.PumpPressure > unconstrained.BestReport.PumpPressure {
		t.Fatal("cap not enforced")
	}
}

func TestCustomGrids(t *testing.T) {
	res, err := Optimize(baseSpec(), Options{
		Objective:      MinimizeArea,
		Constraints:    DefaultConstraints(),
		ChannelHeights: []units.Length{units.Micrometres(150)},
		MinGaps:        []units.Length{units.Millimetres(2.5), units.Millimetres(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 2 {
		t.Fatalf("evaluated %d, want 2", res.Evaluated)
	}
}

func TestObjectiveString(t *testing.T) {
	for _, o := range []Objective{MinimizeArea, MinimizePumpPressure, MinimizeTotalFlow} {
		if o.String() == "" {
			t.Fatal("empty objective name")
		}
	}
}

func TestZeroDeviationBudgetMeansZero(t *testing.T) {
	// An exactly-zero budget is a legitimate (if unmeetable) request:
	// every candidate has some deviation, so the search must report
	// infeasibility instead of silently substituting the 5% default.
	_, err := Optimize(baseSpec(), Options{Objective: MinimizeArea})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("zero budget: want ErrInfeasible, got %v", err)
	}
	if _, err := Optimize(baseSpec(), Options{
		Objective:   MinimizeArea,
		Constraints: Constraints{MaxFlowDeviation: -0.1},
	}); err == nil || errors.Is(err, ErrInfeasible) {
		t.Fatalf("negative budget: want validation error, got %v", err)
	}
}

func TestSearchCancelledReturnsPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Search(ctx, baseSpec(), Options{Objective: MinimizeArea, Constraints: DefaultConstraints()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if errors.Is(err, ErrInfeasible) {
		t.Fatal("abort must not masquerade as infeasibility")
	}
	if res == nil {
		t.Fatal("aborted search must still return the partial result")
	}
	if res.Evaluated != 0 || len(res.Candidates) != 0 {
		t.Fatalf("pre-cancelled search evaluated %d candidates", res.Evaluated)
	}
}

func TestSearchDeadlineMidwayKeepsEvaluatedCandidates(t *testing.T) {
	// Cancelling from the progress callback after the first completed
	// candidate gives a deterministic mid-search abort: exactly one
	// candidate finished, so the abort message must say "after 1 of
	// 20" — the historical code incremented Evaluated before
	// evaluating and over-counted by one here.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Search(ctx, baseSpec(), Options{
		Objective:   MinimizeArea,
		Constraints: DefaultConstraints(),
		Progress: func(p Progress) {
			if p.Evaluated == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Evaluated != 1 || len(res.Candidates) != 1 {
		t.Fatalf("abort after first candidate: Evaluated=%d, %d candidates; want 1 and 1",
			res.Evaluated, len(res.Candidates))
	}
	if !strings.Contains(err.Error(), "after 1 of 20") {
		t.Fatalf("abort message over- or under-counts: %v", err)
	}
}

// TestSearchAbortNeverCountsUnfinishedCandidates: wherever in a
// candidate's evaluation the cancellation lands (the countdown sweeps
// it through generation and validation), the partial result contains
// only fully evaluated candidates — no phantom entry without a
// verdict, and Evaluated == len(Candidates).
func TestSearchAbortNeverCountsUnfinishedCandidates(t *testing.T) {
	for remaining := 0; remaining < 40; remaining += 4 {
		ctx := &countdownCtx{Context: context.Background(), remaining: remaining}
		res, err := Search(ctx, baseSpec(), Options{Objective: MinimizeArea, Constraints: DefaultConstraints()})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("remaining=%d: want context.Canceled, got %v", remaining, err)
		}
		if res.Evaluated != len(res.Candidates) {
			t.Fatalf("remaining=%d: Evaluated=%d but %d candidates logged",
				remaining, res.Evaluated, len(res.Candidates))
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("after %d of 20", res.Evaluated)) {
			t.Fatalf("remaining=%d: message disagrees with Evaluated=%d: %v",
				remaining, res.Evaluated, err)
		}
		for _, c := range res.Candidates {
			if !c.Feasible && c.Reason == "" {
				t.Fatalf("remaining=%d: phantom candidate without verdict: %+v", remaining, c)
			}
			if strings.Contains(c.Reason, "context canceled") {
				t.Fatalf("remaining=%d: cancellation recorded as a candidate failure: %+v", remaining, c)
			}
		}
	}
}

// TestEmptyAxisRejected: a non-nil empty candidate axis is an explicit
// zero-candidate request — almost always a filtered-to-nothing bug —
// and must fail naming the axis instead of reporting ErrInfeasible.
func TestEmptyAxisRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"ChannelHeights", Options{Constraints: DefaultConstraints(), ChannelHeights: []units.Length{}}},
		{"MinGaps", Options{Constraints: DefaultConstraints(), MinGaps: []units.Length{}}},
	} {
		res, err := Search(context.Background(), baseSpec(), tc.opt)
		if err == nil || errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: empty axis must be an explicit error, got %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("%s: error does not name the empty axis: %v", tc.name, err)
		}
		if res != nil {
			t.Fatalf("%s: empty axis returned a result", tc.name)
		}
	}
}

// TestCheckOptions: the options check rejects what no search may run
// — the numeric model and a grid over MaxCandidates — before any
// work, and accepts a grid exactly at the cap.
func TestCheckOptions(t *testing.T) {
	axis := func(n int, unit func(float64) units.Length) []units.Length {
		out := make([]units.Length, n)
		for i := range out {
			out[i] = unit(float64(100 + i))
		}
		return out
	}
	numeric := Options{Constraints: DefaultConstraints()}
	numeric.Sim.Model = sim.ModelNumeric
	res, err := Search(context.Background(), baseSpec(), numeric)
	if err == nil || !strings.Contains(err.Error(), "oocsim -model numeric") || res != nil {
		t.Fatalf("numeric search: res %v, err %v; want an up-front rejection naming the offline route", res, err)
	}

	huge := Options{
		Constraints:    DefaultConstraints(),
		Strategy:       StrategyHalving,
		ChannelHeights: axis(20000, units.Micrometres),
		MinGaps:        axis(20000, units.Millimetres),
	}
	if err := CheckOptions(huge); err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxCandidates)) {
		t.Fatalf("20000 × 20000 grid: err %v, want the cap named", err)
	}
	// Search runs the check first. One row over the cap keeps a
	// regression cheap: it would run the search, not allocate 4e8
	// candidates.
	over := huge
	over.ChannelHeights, over.MinGaps = axis(65, units.Micrometres), axis(64, units.Millimetres)
	if res, err := Search(context.Background(), baseSpec(), over); err == nil || res != nil {
		t.Fatalf("65 × 64 search: res %v, err %v; want an up-front rejection", res, err)
	}
	atCap := huge
	atCap.ChannelHeights, atCap.MinGaps = axis(64, units.Micrometres), axis(64, units.Millimetres)
	if err := CheckOptions(atCap); err != nil {
		t.Fatalf("64 × 64 grid: %v", err)
	}
	if err := CheckOptions(Options{}); err != nil {
		t.Fatalf("default options: %v", err)
	}
}

func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]Strategy{"": StrategyGrid, "grid": StrategyGrid, "halving": StrategyHalving} {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Fatalf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseStrategy("simulated-annealing"); err == nil || !strings.Contains(err.Error(), StrategyNames) {
		t.Fatalf("unknown strategy must list the valid names, got %v", err)
	}
}

// countdownCtx reports Canceled after a fixed number of Err calls.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}
