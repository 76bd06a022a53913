package sim

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"ooc/internal/cachesnap"
	"ooc/internal/fluid"
	"ooc/internal/obs"
	"ooc/internal/physio"
	"ooc/internal/units"
)

// TestCrossSectionExportImportRoundTrip: a warmed cache exports its
// completed entries, a cold process imports them, and the first lookup
// after import is a hit returning the exporter's exact bits — the
// property that makes snapshot-warmed replicas answer without solving.
func TestCrossSectionExportImportRoundTrip(t *testing.T) {
	ResetCrossSectionCache()
	l := units.Millimetres(2)
	mu := physio.MediumViscosityTypical
	sections := []fluid.CrossSection{
		{Width: units.Micrometres(300), Height: units.Micrometres(150)},
		{Width: units.Micrometres(450), Height: units.Micrometres(150)},
	}
	want := make([]units.HydraulicResistance, len(sections))
	for i, cs := range sections {
		r, err := NumericResistance(cs, l, mu, 16)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	entries := ExportCrossSectionCache()
	if len(entries) != len(sections) {
		t.Fatalf("exported %d entries, want %d", len(entries), len(sections))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Aspect >= entries[i].Aspect {
			t.Fatalf("export not sorted by aspect: %+v", entries)
		}
	}

	// Cold process: import, then look up without ever solving.
	ResetCrossSectionCache()
	if got := ImportCrossSectionCache(entries); got != len(entries) {
		t.Fatalf("imported %d entries, want %d", got, len(entries))
	}
	col := obs.NewCollector()
	ctx := obs.WithCollector(context.Background(), col)
	for i, cs := range sections {
		r, err := NumericResistanceContext(ctx, cs, l, mu, 16)
		if err != nil {
			t.Fatal(err)
		}
		//ooclint:ignore floatcmp imported entries must replay the exporter's exact bits
		if r != want[i] {
			t.Fatalf("section %d: imported cache returned %v, exporter computed %v", i, r, want[i])
		}
	}
	snap := col.Snapshot()
	if snap.CacheMisses != 0 || int(snap.CacheHits) != len(sections) {
		t.Fatalf("warm lookups after import: %d hits / %d misses, want %d / 0",
			snap.CacheHits, snap.CacheMisses, len(sections))
	}
}

// TestImportSkipsInvalidEntries: entries violating solver invariants
// (sub-unity aspect, n out of range, non-positive or non-finite
// values) and duplicates of live keys are skipped, not
// trusted — a snapshot can arrive from the network.
func TestImportSkipsInvalidEntries(t *testing.T) {
	ResetCrossSectionCache()
	valid := cachesnap.CrossSectionEntry{Aspect: 2, N: 16, Value: 0.03}
	bad := []cachesnap.CrossSectionEntry{
		{Aspect: 0.5, N: 16, Value: 0.03},
		{Aspect: math.NaN(), N: 16, Value: 0.03},
		{Aspect: math.Inf(1), N: 16, Value: 0.03},
		{Aspect: 2, N: 4, Value: 0.03},
		{Aspect: 2, N: MaxNumericResolution + 1, Value: 0.03},
		{Aspect: 2, N: 16, Value: 0},
		{Aspect: 2, N: 16, Value: -1},
		{Aspect: 2, N: 16, Value: math.Inf(1)},
		{Aspect: 2, N: 16, Value: math.NaN()},
	}
	if got := ImportCrossSectionCache(append(bad, valid)); got != 1 {
		t.Fatalf("imported %d entries, want only the valid one", got)
	}
	if got := CrossSectionCacheSize(); got != 1 {
		t.Fatalf("cache size %d after import, want 1", got)
	}
	// Re-importing the same entry (now a live key) adds nothing.
	if got := ImportCrossSectionCache([]cachesnap.CrossSectionEntry{valid}); got != 0 {
		t.Fatalf("duplicate import added %d entries", got)
	}
}

// TestCrossSectionCompletedCountExcludesInFlight: the completed count
// is the exportable population; an in-flight singleflight slot shows
// up in CrossSectionCacheSize but not in the completed count or the
// export.
func TestCrossSectionCompletedCountExcludesInFlight(t *testing.T) {
	ResetCrossSectionCache()
	// Install an in-flight slot by hand (owner never finishes).
	key := crossSectionKey{aspect: 3, n: 16}
	crossSectionCache.Lock()
	crossSectionCache.m[key] = &csEntry{done: make(chan struct{})}
	crossSectionCache.Unlock()

	if got := CrossSectionCacheSize(); got != 1 {
		t.Fatalf("total size %d, want 1 (the in-flight slot)", got)
	}
	if got := CrossSectionCacheSizeCompleted(); got != 0 {
		t.Fatalf("completed size %d, want 0 while the solve is in flight", got)
	}
	if got := ExportCrossSectionCache(); len(got) != 0 {
		t.Fatalf("export serialized %d in-flight entries: %+v", len(got), got)
	}

	// A completed entry counts everywhere.
	done := make(chan struct{})
	close(done)
	crossSectionCache.Lock()
	crossSectionCache.m[crossSectionKey{aspect: 4, n: 16}] = &csEntry{done: done, val: 0.01}
	crossSectionCache.Unlock()
	if total, completed := CrossSectionCacheSize(), CrossSectionCacheSizeCompleted(); total != 2 || completed != 1 {
		t.Fatalf("size %d / completed %d, want 2 / 1", total, completed)
	}
	if got := ExportCrossSectionCache(); len(got) != 1 {
		t.Fatalf("export serialized %d entries, want the 1 completed", len(got))
	}
	ResetCrossSectionCache()
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
