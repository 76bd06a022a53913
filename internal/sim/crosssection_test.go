package sim

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"ooc/internal/fluid"
	"ooc/internal/obs"
	"ooc/internal/physio"
	"ooc/internal/units"
)

// TestCrossSectionCacheBitIdentical: a cache hit must return exactly
// the bits an uncached solve produces — the cache is invisible in
// results.
func TestCrossSectionCacheBitIdentical(t *testing.T) {
	cs := fluid.CrossSection{Width: units.Millimetres(1), Height: units.Micrometres(150)}
	l := units.Millimetres(3)
	mu := physio.MediumViscosityTypical

	ResetCrossSectionCache()
	cold, err := NumericResistance(cs, l, mu, 32)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NumericResistance(cs, l, mu, 32)
	if err != nil {
		t.Fatal(err)
	}
	ResetCrossSectionCache()
	recomputed, err := NumericResistance(cs, l, mu, 32)
	if err != nil {
		t.Fatal(err)
	}
	//ooclint:ignore floatcmp bit-identity of cached and uncached solves is the property under test
	if cold != warm || cold != recomputed {
		t.Fatalf("cache changed results: cold=%v warm=%v recomputed=%v", cold, warm, recomputed)
	}
}

// TestCrossSectionCacheSimilarityClass: geometrically similar sections
// (equal w/h) share one cache entry; a different aspect ratio or
// resolution allocates a new one.
func TestCrossSectionCacheSimilarityClass(t *testing.T) {
	ResetCrossSectionCache()
	l := units.Millimetres(1)
	mu := physio.MediumViscosityLow

	a := fluid.CrossSection{Width: units.Micrometres(300), Height: units.Micrometres(150)}
	b := fluid.CrossSection{Width: units.Micrometres(600), Height: units.Micrometres(300)}
	if _, err := NumericResistance(a, l, mu, 32); err != nil {
		t.Fatal(err)
	}
	if got := CrossSectionCacheSize(); got != 1 {
		t.Fatalf("first solve: cache size %d, want 1", got)
	}
	if _, err := NumericResistance(b, l, mu, 32); err != nil {
		t.Fatal(err)
	}
	if got := CrossSectionCacheSize(); got != 1 {
		t.Fatalf("similar section must hit the same entry, cache size %d", got)
	}
	c := fluid.CrossSection{Width: units.Micrometres(450), Height: units.Micrometres(150)}
	if _, err := NumericResistance(c, l, mu, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := NumericResistance(a, l, mu, 48); err != nil {
		t.Fatal(err)
	}
	if got := CrossSectionCacheSize(); got != 3 {
		t.Fatalf("new aspect and new resolution must allocate entries, cache size %d, want 3", got)
	}

	// Similar sections scale with h⁴ at constant aspect: R ∝ µL/h⁴, so
	// doubling every dimension at fixed length divides R by 16.
	ra, err := NumericResistance(a, l, mu, 32)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NumericResistance(b, l, mu, 32)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(ra) / float64(rb); math.Abs(ratio-16) > 1e-9 {
		t.Fatalf("similarity scaling violated: R(a)/R(b) = %g, want 16", ratio)
	}
}

// TestCrossSectionCacheConcurrent hammers the cache from many
// goroutines with overlapping keys; run under `go test -race` it
// proves the cache is race-safe, and the equality assertions prove
// every caller observes the same bits.
func TestCrossSectionCacheConcurrent(t *testing.T) {
	ResetCrossSectionCache()
	l := units.Millimetres(2)
	mu := physio.MediumViscosityTypical
	sections := []fluid.CrossSection{
		{Width: units.Micrometres(300), Height: units.Micrometres(150)},
		{Width: units.Micrometres(450), Height: units.Micrometres(150)},
		{Width: units.Millimetres(1), Height: units.Micrometres(150)},
	}
	want := make([]units.HydraulicResistance, len(sections))
	for i, cs := range sections {
		r, err := NumericResistance(cs, l, mu, 16)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	ResetCrossSectionCache()

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for si, cs := range sections {
					r, err := NumericResistance(cs, l, mu, 16)
					if err != nil {
						errs[gi] = err
						return
					}
					//ooclint:ignore floatcmp cache must be invisible: all callers see identical bits
					if r != want[si] {
						errs[gi] = errMismatch
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := CrossSectionCacheSize(); got != len(sections) {
		t.Fatalf("cache size %d after concurrent access, want %d", got, len(sections))
	}
}

var errMismatch = errDummy("concurrent caller observed different bits")

type errDummy string

func (e errDummy) Error() string { return string(e) }

// TestCrossSectionBackendBySize: the grid picks the Poisson backend.
// SOR runs below resolution 64, so the default resolution keeps its
// historical solver, and on odd n, whose grid multigrid cannot
// coarsen; multigrid runs on even n ≥ 64 and reports its per-level
// telemetry.
func TestCrossSectionBackendBySize(t *testing.T) {
	cs := fluid.CrossSection{Width: units.Micrometres(300), Height: units.Micrometres(100)}
	l, mu := units.Millimetres(1), units.PascalSeconds(1e-3)
	t.Cleanup(ResetCrossSectionCache)
	cases := []struct {
		n    int
		want string
	}{
		{n: 32, want: "sor"},
		{n: 48, want: "sor"},
		{n: 64, want: "mg"},
		{n: 65, want: "sor"},
		{n: 128, want: "mg"},
	}
	for _, tc := range cases {
		// Multigrid's own fallback also reports "sor" on a grid it cannot
		// coarsen, so pin the rule itself too: an odd n must never take
		// the multigrid path (and its extra column).
		if got := useMultigrid(tc.n); got != (tc.want == "mg") {
			t.Errorf("useMultigrid(%d) = %v, want %v", tc.n, got, tc.want == "mg")
		}
		ResetCrossSectionCache()
		col := obs.NewCollector()
		ctx := obs.WithCollector(context.Background(), col)
		if _, err := NumericResistanceContext(ctx, cs, l, mu, tc.n); err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		s := col.Snapshot()
		if len(s.Solvers) != 1 || s.Solvers[0].Solver != tc.want {
			t.Errorf("n=%d: solved with %+v, want %s", tc.n, s.Solvers, tc.want)
		}
		if levels := strings.Contains(s.Format(), "mg levels:"); levels != (tc.want == "mg") {
			t.Errorf("n=%d: telemetry reports mg levels = %v, want %v:\n%s", tc.n, levels, tc.want == "mg", s.Format())
		}
	}
}

// TestNumericResolutionBound: resolutions outside [8, 512] are
// rejected before any solve (an unbounded one would allocate the grid
// first); zero selects the default.
func TestNumericResolutionBound(t *testing.T) {
	for n, want := range map[int]int{0: defaultNumericResolution, 8: 8, MaxNumericResolution: MaxNumericResolution} {
		if got, err := resolveNumericResolution(n); err != nil || got != want {
			t.Errorf("resolveNumericResolution(%d) = %d, %v; want %d", n, got, err, want)
		}
	}
	d := mustDesign(t, maleSimpleSpec())
	cs := fluid.CrossSection{Width: units.Micrometres(300), Height: units.Micrometres(100)}
	ResetCrossSectionCache()
	for _, n := range []int{-1, 7, MaxNumericResolution + 1, 1000000} {
		if _, err := resolveNumericResolution(n); err == nil {
			t.Errorf("resolveNumericResolution(%d) accepted", n)
		}
		if _, err := Validate(d, Options{Model: ModelNumeric, NumericResolution: n}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("Validate at resolution %d: err = %v, want an out-of-range error", n, err)
		}
		if _, err := NumericResistance(cs, units.Millimetres(1), units.PascalSeconds(1e-3), n); err == nil {
			t.Errorf("NumericResistance at resolution %d accepted", n)
		}
	}
	if got := CrossSectionCacheSize(); got != 0 {
		t.Fatalf("rejected resolutions started %d solves", got)
	}
}

// TestValidateModelNumeric: the FDM-backed validation model must run
// end-to-end and land near the exact-series validation (the two are
// independent solutions of the same physics).
func TestValidateModelNumeric(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	exact, err := Validate(d, Options{Model: ModelExact})
	if err != nil {
		t.Fatal(err)
	}
	ResetCrossSectionCache()
	numeric, err := Validate(d, Options{Model: ModelNumeric})
	if err != nil {
		t.Fatal(err)
	}
	if len(numeric.Modules) != len(exact.Modules) {
		t.Fatalf("module count mismatch: %d vs %d", len(numeric.Modules), len(exact.Modules))
	}
	if diff := math.Abs(numeric.MaxFlowDeviation - exact.MaxFlowDeviation); diff > 0.02 {
		t.Fatalf("numeric model max flow deviation %.4f far from exact %.4f",
			numeric.MaxFlowDeviation, exact.MaxFlowDeviation)
	}
	// The cache should have collapsed the per-channel solves to the
	// handful of distinct similarity classes in the design.
	if got := CrossSectionCacheSize(); got == 0 || got >= len(d.Channels) {
		t.Fatalf("cache size %d after validating %d channels; want a small positive count",
			got, len(d.Channels))
	}
}

// TestValidateWorkersBitIdentical: Validate must produce identical
// reports for any worker count.
func TestValidateWorkersBitIdentical(t *testing.T) {
	d := mustDesign(t, maleSimpleSpec())
	for _, model := range []Model{ModelExact, ModelNumeric} {
		serial, err := Validate(d, Options{Model: model, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallelRep, err := Validate(d, Options{Model: model, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		// Bit-identity (not approximate equality) is the property
		// under test, so compare the raw float bits.
		bitEqual := func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}
		if !bitEqual(serial.MaxFlowDeviation, parallelRep.MaxFlowDeviation) ||
			!bitEqual(serial.AvgFlowDeviation, parallelRep.AvgFlowDeviation) ||
			!bitEqual(float64(serial.PumpPressure), float64(parallelRep.PumpPressure)) {
			t.Fatalf("model %d: parallel build diverged from serial", int(model))
		}
		for i := range serial.Modules {
			if !bitEqual(float64(serial.Modules[i].ActualFlow), float64(parallelRep.Modules[i].ActualFlow)) {
				t.Fatalf("model %d: module %d flow diverged", int(model), i)
			}
		}
	}
}

// TestJoinAbortNotCountedAsHit: a waiter that joins an in-flight solve
// and runs out of budget is recorded as a join abort, not a hit — and
// the owner still completes, so a later lookup is a genuine hit. Pins
// the hit/miss/abort determinism: 1 miss (owner), 1 abort (expired
// waiter), 1 hit (the retry), never 2 hits.
func TestJoinAbortNotCountedAsHit(t *testing.T) {
	ResetCrossSectionCache()
	key := crossSectionKey{aspect: 1.7, n: 16}

	// Install the in-flight slot the waiter will join.
	e := &csEntry{done: make(chan struct{})}
	crossSectionCache.Lock()
	crossSectionCache.m[key] = e
	crossSectionCache.Unlock()

	col := obs.NewCollector()
	expired, cancel := context.WithTimeout(obs.WithCollector(context.Background(), col), time.Nanosecond)
	defer cancel()
	<-expired.Done()
	if _, err := normalizedIntegral(expired, key); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter: err = %v, want a deadline abort", err)
	}
	snap := col.Snapshot()
	if snap.CacheHits != 0 || snap.CacheMisses != 0 || snap.CacheJoinAborts != 1 {
		t.Fatalf("expired waiter counted as hits=%d misses=%d aborts=%d, want 0/0/1",
			snap.CacheHits, snap.CacheMisses, snap.CacheJoinAborts)
	}

	// The owner completes; the same waiter context still aborts nothing
	// — a completed entry is a hit even under an expired context.
	e.val = 0.02
	close(e.done)
	//ooclint:ignore floatcmp the cached bits must replay exactly
	if v, err := normalizedIntegral(expired, key); err != nil || v != 0.02 {
		t.Fatalf("completed entry under expired ctx: v=%v err=%v", v, err)
	}
	snap = col.Snapshot()
	if snap.CacheHits != 1 || snap.CacheJoinAborts != 1 {
		t.Fatalf("completed-entry lookup: hits=%d aborts=%d, want 1/1", snap.CacheHits, snap.CacheJoinAborts)
	}
	ResetCrossSectionCache()
}

// TestResetDoesNotResurrectInFlightSuccess: a solve that completes
// *after* a concurrent ResetCrossSectionCache must not reinstall its
// slot into the fresh generation. The error path has the `cur == e`
// guard; this pins the success path (which must not re-insert at all),
// under -race.
func TestResetDoesNotResurrectInFlightSuccess(t *testing.T) {
	ResetCrossSectionCache()
	cs := fluid.CrossSection{Width: units.Micrometres(600), Height: units.Micrometres(150)}
	l := units.Millimetres(2)
	mu := physio.MediumViscosityTypical

	var wg sync.WaitGroup
	wg.Add(1)
	var solveErr error
	go func() {
		defer wg.Done()
		_, solveErr = NumericResistance(cs, l, mu, 64)
	}()

	// Wait until the owner's singleflight slot is visible, then reset
	// while the solve is still running.
	deadline := time.Now().Add(5 * time.Second)
	for CrossSectionCacheSize() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solver never inserted its in-flight slot")
		}
		time.Sleep(50 * time.Microsecond)
	}
	ResetCrossSectionCache()
	wg.Wait()
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	if got := CrossSectionCacheSize(); got != 0 {
		t.Fatalf("completed solve resurrected %d slots into the fresh generation", got)
	}

	// And the fresh generation recomputes from scratch: a miss, then
	// the entry exists.
	col := obs.NewCollector()
	ctx := obs.WithCollector(context.Background(), col)
	if _, err := NumericResistanceContext(ctx, cs, l, mu, 64); err != nil {
		t.Fatal(err)
	}
	if snap := col.Snapshot(); snap.CacheMisses != 1 || snap.CacheHits != 0 {
		t.Fatalf("post-reset lookup: %d hits / %d misses, want 0 / 1", snap.CacheHits, snap.CacheMisses)
	}
	if got := CrossSectionCacheSize(); got != 1 {
		t.Fatalf("post-reset recompute left cache size %d, want 1", got)
	}
}
