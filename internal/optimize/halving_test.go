package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ooc/internal/core"
	"ooc/internal/obs"
	"ooc/internal/sim"
	"ooc/internal/units"
	"ooc/internal/usecases"
)

// halvingOptions is the default 20-candidate successive-halving
// search the tests exercise.
func halvingOptions() Options {
	return Options{
		Objective:   MinimizeArea,
		Constraints: DefaultConstraints(),
		Strategy:    StrategyHalving,
	}
}

// TestHalvingFindsGridBestWithFewerFullEvaluations: the acceptance
// property — successive halving lands on the same best feasible
// design as the exhaustive grid while paying for measurably fewer
// full-fidelity evaluations.
func TestHalvingFindsGridBestWithFewerFullEvaluations(t *testing.T) {
	grid, err := Search(context.Background(), baseSpec(), Options{Objective: MinimizeArea, Constraints: DefaultConstraints()})
	if err != nil {
		t.Fatal(err)
	}
	halv, err := Search(context.Background(), baseSpec(), halvingOptions())
	if err != nil {
		t.Fatal(err)
	}
	if halv.Best == nil || halv.BestCandidate == nil {
		t.Fatal("halving found no feasible design")
	}
	// The candidates are drawn from one shared axis, so the winners
	// either are the same grid point or differ by a full grid step —
	// integer micrometre comparison avoids a float equality.
	if int(halv.BestSpec.Geometry.ChannelHeight.Micrometres()+0.5) != int(grid.BestSpec.Geometry.ChannelHeight.Micrometres()+0.5) ||
		int(halv.BestSpec.Geometry.MinGap.Micrometres()+0.5) != int(grid.BestSpec.Geometry.MinGap.Micrometres()+0.5) {
		t.Fatalf("halving best (h=%v, gap=%v) differs from grid best (h=%v, gap=%v)",
			halv.BestSpec.Geometry.ChannelHeight, halv.BestSpec.Geometry.MinGap,
			grid.BestSpec.Geometry.ChannelHeight, grid.BestSpec.Geometry.MinGap)
	}
	if halv.FullEvaluations >= grid.FullEvaluations {
		t.Fatalf("halving paid %d full-fidelity evaluations, grid paid %d — no saving",
			halv.FullEvaluations, grid.FullEvaluations)
	}
	if len(halv.Rungs) < 2 {
		t.Fatalf("halving ran %d rungs, want a ladder", len(halv.Rungs))
	}
	if first := halv.Rungs[0]; first.Evaluated != 20 || first.Kept >= first.Evaluated {
		t.Fatalf("first rung must screen all 20 candidates and cut: %+v", first)
	}
}

// TestHalvingDeterministicAcrossWorkers: the full result — candidate
// log, rung schedule, winner — is identical for a serial and a
// parallel rung evaluation.
func TestHalvingDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Result {
		opt := halvingOptions()
		opt.Workers = workers
		res, err := Search(context.Background(), baseSpec(), opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{2, 8} {
		par := run(workers)
		if got, want := fingerprint(par), fingerprint(serial); got != want {
			t.Fatalf("workers=%d result differs from serial:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestHalvingReusesRungZeroDesigns: the final rung re-validates the
// design each survivor generated at rung 0. Every final-rung record
// must equal a from-scratch evaluation of its own point at the final
// fidelity, and the winner must equal a fresh generation of BestSpec,
// so a survivor paired with another candidate's design shows at any
// worker count.
func TestHalvingReusesRungZeroDesigns(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"male_simple", "generic4"} {
		uc, err := usecases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := uc.Build()
		for _, workers := range []int{1, 4} {
			opt := halvingOptions()
			opt.Workers = workers
			res, err := Search(ctx, spec, opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			ladder := halvingLadder(opt.Sim)
			final := len(ladder) - 1
			checked := 0
			for _, c := range res.Candidates {
				if c.Rung != final {
					continue
				}
				checked++
				want, _, _, _, err := evaluate(ctx, spec, opt, c.ChannelHeight, c.MinGap, final, ladder[final].sim, nil)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(c.Score) != math.Float64bits(want.Score) || c.Feasible != want.Feasible || c.Reason != want.Reason {
					t.Fatalf("%s workers=%d h=%v gap=%v: final rung recorded %+v, a fresh evaluation gives %+v",
						name, workers, c.ChannelHeight, c.MinGap, c, want)
				}
			}
			if checked == 0 || checked != res.FullEvaluations {
				t.Fatalf("%s workers=%d: checked %d final-rung records, want %d", name, workers, checked, res.FullEvaluations)
			}
			fresh, err := core.Generate(res.BestSpec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Best, fresh) {
				t.Fatalf("%s workers=%d: Best differs from a fresh generation of BestSpec", name, workers)
			}
		}
	}
}

// fingerprint renders the deterministic parts of a result — winner,
// rung schedule and the full candidate log — as exact bytes.
func fingerprint(r *Result) string {
	s := fmt.Sprintf("evaluated=%d full=%d feasible=%d\n", r.Evaluated, r.FullEvaluations, r.Feasible)
	if r.BestCandidate != nil {
		s += fmt.Sprintf("best h=%.9e gap=%.9e score=%.17g\n",
			float64(r.BestCandidate.ChannelHeight), float64(r.BestCandidate.MinGap), r.BestCandidate.Score)
	}
	for _, rg := range r.Rungs {
		s += fmt.Sprintf("rung %d %s evaluated=%d kept=%d\n", rg.Rung, rg.Model, rg.Evaluated, rg.Kept)
	}
	for _, c := range r.Candidates {
		s += fmt.Sprintf("cand r%d h=%.9e gap=%.9e feasible=%t score=%.17g reason=%q\n",
			c.Rung, float64(c.ChannelHeight), float64(c.MinGap), c.Feasible, c.Score, c.Reason)
	}
	return s
}

// TestHalvingCancelledMidRungKeepsPartialResult: cancelling from the
// progress callback mid-rung aborts promptly with the completed
// evaluations logged and Evaluated == len(Candidates).
func TestHalvingCancelledMidRungKeepsPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := halvingOptions()
	opt.Workers = 1
	opt.Progress = func(p Progress) {
		if p.Evaluated == 3 {
			cancel()
		}
	}
	res, err := Search(ctx, baseSpec(), opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if errors.Is(err, ErrInfeasible) {
		t.Fatal("abort must not masquerade as infeasibility")
	}
	if res.Evaluated != len(res.Candidates) {
		t.Fatalf("Evaluated=%d but %d candidates logged", res.Evaluated, len(res.Candidates))
	}
	if res.Evaluated < 3 || res.Evaluated >= 20 {
		t.Fatalf("mid-rung abort evaluated %d candidates, want a partial rung", res.Evaluated)
	}
}

// TestHalvingRungTelemetry: per-rung evaluated/kept counters land in
// the context's collector.
func TestHalvingRungTelemetry(t *testing.T) {
	col := obs.NewCollector()
	ctx := obs.WithCollector(context.Background(), col)
	res, err := Search(ctx, baseSpec(), halvingOptions())
	if err != nil {
		t.Fatal(err)
	}
	sum := col.Snapshot()
	for _, rg := range res.Rungs {
		name := fmt.Sprintf("optimize.halving.rung%d.evaluated", rg.Rung)
		if got := sum.Counter(name); got != int64(rg.Evaluated) {
			t.Fatalf("%s = %d, want %d", name, got, rg.Evaluated)
		}
	}
	kept0 := sum.Counter("optimize.halving.rung0.kept")
	if kept0 != int64(res.Rungs[0].Kept) || kept0 == 0 {
		t.Fatalf("rung0 kept counter %d disagrees with %+v", kept0, res.Rungs[0])
	}
}

// TestHalvingEtaValidation: eta 0 defaults, eta < 2 is rejected, and
// a larger eta cuts harder.
func TestHalvingEtaValidation(t *testing.T) {
	opt := halvingOptions()
	opt.HalvingEta = 1
	if _, err := Search(context.Background(), baseSpec(), opt); err == nil {
		t.Fatal("eta=1 must be rejected")
	}
	opt.HalvingEta = 4
	res, err := Search(context.Background(), baseSpec(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rungs[0].Kept != 5 { // ceil(20/4)
		t.Fatalf("eta=4 kept %d of 20, want 5", res.Rungs[0].Kept)
	}
}

// TestHalvingLadder: halving screens at approx and ends at the
// requested full fidelity, so the default search ends at exact; an
// approx full fidelity has nothing cheaper to screen with.
func TestHalvingLadder(t *testing.T) {
	for _, final := range []sim.Model{sim.ModelExact, sim.ModelDynamic} {
		ladder := halvingLadder(sim.Options{Model: final})
		if len(ladder) != 2 || ladder[0].sim.Model != sim.ModelApprox || ladder[1].sim.Model != final {
			t.Fatalf("%v ladder: %+v, want approx then %v", final, ladder, final)
		}
	}
	if got := len(halvingLadder(sim.Options{Model: sim.ModelApprox})); got != 1 {
		t.Fatalf("approx ladder has %d rungs, want 1", got)
	}
}

// TestHalvingPlan: the planned rung populations shrink by ceil(n/eta).
func TestHalvingPlan(t *testing.T) {
	got := halvingPlan(20, 3, 2)
	want := []int{20, 10, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("plan(20,3,2) = %v, want %v", got, want)
		}
	}
}

// TestHalvingInfeasibleConstraints: an impossible footprint cap is
// still ErrInfeasible (not an abort, not a panic) under halving.
func TestHalvingInfeasibleConstraints(t *testing.T) {
	opt := halvingOptions()
	opt.Constraints = Constraints{
		MaxFlowDeviation: 0.05,
		MaxChipWidth:     units.Millimetres(1),
	}
	res, err := Search(context.Background(), baseSpec(), opt)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if res == nil || res.Evaluated == 0 {
		t.Fatal("infeasible search must still log its evaluations")
	}
}

// TestHalvingScoresAreFinite: every logged candidate that generated
// carries a real score (the NaN sentinel is reserved for generation
// failures).
func TestHalvingScoresAreFinite(t *testing.T) {
	res, err := Search(context.Background(), baseSpec(), halvingOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if math.IsNaN(c.Score) {
			t.Fatalf("candidate with NaN score but no generation failure: %+v", c)
		}
	}
}
