package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ooc/internal/obs"
)

// expiredCtx returns a context whose deadline has already passed.
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	t.Cleanup(cancel)
	<-ctx.Done()
	return ctx
}

// cancelledCtx returns an already-cancelled context.
func cancelledCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestValidateContextCancelledAborts: cancellation aborts validation
// under every model, and is never reported as a deadline.
func TestValidateContextCancelledAborts(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	for _, model := range []Model{ModelExact, ModelApprox, ModelNumeric} {
		rep, err := ValidateContext(cancelledCtx(t), d, Options{Model: model})
		if rep != nil || err == nil {
			t.Fatalf("model %d: cancelled validation returned rep=%v err=%v", int(model), rep, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("model %d: error %v does not wrap context.Canceled", int(model), err)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("model %d: cancellation conflated with deadline: %v", int(model), err)
		}
	}
}

// TestValidateContextDeadlineAborts: an expired deadline aborts
// validation under every model with an error wrapping
// context.DeadlineExceeded — ModelNumeric never finishes on the exact
// model it exists to check.
func TestValidateContextDeadlineAborts(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	for _, model := range []Model{ModelExact, ModelApprox, ModelNumeric} {
		rep, err := ValidateContext(expiredCtx(t), d, Options{Model: model})
		if rep != nil || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("model %d: want a deadline abort, got rep=%v err=%v", int(model), rep, err)
		}
	}
}

// TestNumericDeadlineMidSolveAborts: a deadline that expires inside a
// cold cross-section solve aborts the numeric validation, and the
// aborted solves leave no cache slot behind. An already-expired
// context never reaches the FDM (the build checks ctx first), so the
// deadline here must land inside an n = 128 solve, which takes a large
// fraction of a second.
func TestNumericDeadlineMidSolveAborts(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	ResetCrossSectionCache()
	t.Cleanup(ResetCrossSectionCache)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	rep, err := ValidateContext(ctx, d, Options{Model: ModelNumeric, NumericResolution: 128})
	if rep != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want a deadline abort, got rep=%v err=%v", rep, err)
	}
	if n := CrossSectionCacheSize(); n != 0 {
		t.Fatalf("aborted solves left %d cross-section cache slots", n)
	}
}

// TestCacheCountersWorkerCountIndependent: the singleflight cache
// must report exactly one miss per similarity class and the same
// hit/miss split for any worker count — the determinism the -stats
// output relies on.
func TestCacheCountersWorkerCountIndependent(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	type counts struct{ hits, misses int64 }
	run := func(workers int) counts {
		ResetCrossSectionCache()
		col := obs.NewCollector()
		ctx := obs.WithCollector(context.Background(), col)
		if _, err := ValidateContext(ctx, d, Options{Model: ModelNumeric, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		snap := col.Snapshot()
		c := counts{snap.Counter(obs.CrossSectionHits), snap.Counter(obs.CrossSectionMisses)}
		if int(c.misses) != CrossSectionCacheSize() {
			t.Fatalf("workers=%d: %d misses but %d cache entries — singleflight must miss once per class",
				workers, c.misses, CrossSectionCacheSize())
		}
		if got, want := c.hits+c.misses, int64(len(d.Channels)); got != want {
			t.Fatalf("workers=%d: %d lookups for %d channels", workers, got, want)
		}
		if c.hits <= 0 {
			t.Fatalf("workers=%d: expected a positive hit rate", workers)
		}
		return c
	}
	serial := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); got != serial {
			t.Fatalf("workers=%d: counters %+v differ from serial %+v", w, got, serial)
		}
	}
}

// TestToleranceZeroSamplesRejected: the zero value no longer silently
// means 200 samples — it is rejected with a pointer to the explicit
// default.
func TestToleranceZeroSamplesRejected(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	_, err := ToleranceAnalysis(d, ToleranceConfig{WidthSigma: 0.01})
	if err == nil {
		t.Fatal("Samples: 0 accepted")
	}
	if !strings.Contains(err.Error(), "DefaultToleranceConfig") {
		t.Fatalf("error %q does not point to DefaultToleranceConfig", err)
	}
	def := DefaultToleranceConfig()
	if def.Samples != 200 || def.Seed != 1 {
		t.Fatalf("unexpected defaults: %+v", def)
	}
}

// TestToleranceWorkerCountBitIdentical: per-sample derived RNG streams
// make the Monte Carlo loop schedule-independent — identical
// statistics for any worker count.
func TestToleranceWorkerCountBitIdentical(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	base := ToleranceConfig{WidthSigma: 0.02, HeightSigma: 0.02, Samples: 24, Seed: 9}
	cfgSerial := base
	cfgSerial.Workers = 1
	serial, err := ToleranceAnalysis(d, cfgSerial)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 4} {
		cfg := base
		cfg.Workers = w
		rep, err := ToleranceAnalysis(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FlowDev != serial.FlowDev || rep.PerfDev != serial.PerfDev {
			t.Fatalf("workers=%d diverged from serial:\n%+v\n%+v", w, rep.FlowDev, serial.FlowDev)
		}
		for _, k := range serial.YieldBudgets() {
			if rep.YieldWithin[k] != serial.YieldWithin[k] {
				t.Fatalf("workers=%d: yield %s diverged", w, k)
			}
		}
	}
}

// TestToleranceContextCancelled: a cancelled study returns an error
// wrapping context.Canceled, distinct from validation failures.
func TestToleranceContextCancelled(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	cfg := DefaultToleranceConfig()
	cfg.WidthSigma = 0.02
	_, err := ToleranceAnalysisContext(cancelledCtx(t), d, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// TestYieldBudgetsSortedNumerically: the rendered yield table iterates
// budgets in numeric order (5% before 10% before 20%), with
// non-numeric keys last — not in Go's schedule-dependent map order.
func TestYieldBudgetsSortedNumerically(t *testing.T) {
	r := &ToleranceReport{YieldWithin: map[string]float64{
		"10%": 0.8, "5%": 0.5, "20%": 1, "custom": 0.1,
	}}
	got := r.YieldBudgets()
	want := []string{"5%", "10%", "20%", "custom"}
	if len(got) != len(want) {
		t.Fatalf("budgets %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("budgets %v, want %v", got, want)
		}
	}
	out := r.FormatYield()
	if strings.Index(out, "5%") > strings.Index(out, "10%") ||
		strings.Index(out, "10%") > strings.Index(out, "20%") {
		t.Fatalf("FormatYield out of order:\n%s", out)
	}
}

// TestPressureDrivenContextCancelled: the pressure-driven path shares
// the cancellation contract.
func TestPressureDrivenContextCancelled(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	if _, err := DesignPumpPressuresContext(cancelledCtx(t), d); !errors.Is(err, context.Canceled) {
		t.Fatalf("DesignPumpPressures: %v does not wrap context.Canceled", err)
	}
	if _, err := ValidatePressureDrivenContext(cancelledCtx(t), d, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ValidatePressureDriven: %v does not wrap context.Canceled", err)
	}
}
