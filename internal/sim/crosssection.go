package sim

import (
	"context"
	"fmt"
	"sync"

	"ooc/internal/fluid"
	"ooc/internal/linalg"
	"ooc/internal/obs"
	"ooc/internal/units"
)

// mgMinResolution is the resolution from which the cross-section
// solve runs multigrid instead of SOR. Below it the SOR sweep count is
// modest and the V-cycle's setup overhead buys little; at and above it
// multigrid's resolution-independent cycle count wins. The default
// resolution (32) stays below the threshold.
const mgMinResolution = 64

// useMultigrid reports whether the cross-section solve at resolution n
// runs multigrid. The V-cycle needs odd grid dimensions to build its
// nested hierarchy (ny = n+1, so n must be even); every other grid
// runs SOR.
func useMultigrid(n int) bool {
	return n >= mgMinResolution && n%2 == 0
}

// crossSectionKey is the memoization key of the cross-section solve
// cache. The solve is performed on the *normalized* section (unit
// height, width w/h), so every channel in the same similarity class —
// the common case in a use-case grid, where all module channels share
// one aspect ratio — hits the same entry regardless of absolute size.
type crossSectionKey struct {
	// aspect is fluid.CrossSection.NormalizedAspect (w/h ≥ 1).
	aspect float64
	// n is the grid-resolution parameter of NumericResistance; it
	// also decides the Poisson backend (useMultigrid).
	n int
}

// csEntry is one in-flight or completed cache slot. The goroutine
// that created the entry performs the solve, stores val/err, and
// closes done; every other goroutine that finds the entry waits on
// done. This singleflight design makes the hit/miss counters
// deterministic: each unique key is a miss exactly once per cache
// generation, no matter how many goroutines race on it (the plain
// memo cache it replaces could miss the same key several times under
// concurrency, making -stats output schedule-dependent).
type csEntry struct {
	done chan struct{}
	val  float64
	err  error
}

// crossSectionCache maps keys to their singleflight slots.
var crossSectionCache = struct {
	sync.Mutex
	m map[crossSectionKey]*csEntry
}{m: make(map[crossSectionKey]*csEntry)}

// ResetCrossSectionCache empties the solve cache. Benchmarks use it to
// measure cold solves; production code never needs it.
func ResetCrossSectionCache() {
	crossSectionCache.Lock()
	defer crossSectionCache.Unlock()
	crossSectionCache.m = make(map[crossSectionKey]*csEntry)
}

// CrossSectionCacheSize reports the number of cache slots, completed
// *and* in flight.
func CrossSectionCacheSize() int {
	crossSectionCache.Lock()
	defer crossSectionCache.Unlock()
	return len(crossSectionCache.m)
}

// normalizedIntegral solves the normalized duct problem ∇²u = −1 on
// the unit-height rectangle [0, aspect] × [0, 1] and returns the
// velocity integral ∫∫u dA. The physical integral over a w×h section
// with w/h = aspect is h⁴ times this value (u scales with the square
// of length, the area element with another square).
//
// The solve itself is bit-deterministic (see SolvePoissonSOR), so a
// cache hit is bit-identical to recomputing — the cache is invisible
// in results. Lookups are counted as hits/misses in the obs collector
// carried by ctx; the singleflight protocol guarantees exactly one
// miss per unique key, so the counts are worker-count-independent.
// Failed solves (including cancellation/deadline aborts) are never
// cached: the owning goroutine removes its slot so a later call can
// retry with a fresh budget.
func normalizedIntegral(ctx context.Context, key crossSectionKey) (float64, error) {
	crossSectionCache.Lock()
	if e, ok := crossSectionCache.m[key]; ok {
		crossSectionCache.Unlock()
		// A completed entry is a hit no matter what state ctx is in:
		// without this fast path the select below would choose randomly
		// between a ready done and a ready ctx.Done(), making the
		// hit/abort split schedule-dependent for expired contexts.
		select {
		case <-e.done:
			obs.FromContext(ctx).RecordCacheHit()
			return e.val, e.err
		default:
		}
		select {
		case <-e.done:
			// Only now is this a hit: the waiter actually received the
			// memoized result. Recording the hit before the select used
			// to count ctx-expired waiters as hits, inflating the hit
			// rate that -stats reports and making the counter
			// schedule-dependent under deadline pressure.
			obs.FromContext(ctx).RecordCacheHit()
			return e.val, e.err
		case <-ctx.Done():
			// The owning solve keeps running under its own context; this
			// waiter just stops waiting for it — a join abort, not a hit.
			obs.FromContext(ctx).RecordCacheJoinAbort()
			return 0, fmt.Errorf("sim: waiting for cross-section solve: %w", ctx.Err())
		}
	}
	e := &csEntry{done: make(chan struct{})}
	crossSectionCache.m[key] = e
	crossSectionCache.Unlock()
	obs.FromContext(ctx).RecordCacheMiss()

	e.val, e.err = solveNormalized(ctx, key)
	if e.err != nil {
		crossSectionCache.Lock()
		// Only remove our own slot: a concurrent Reset may have replaced
		// the map or another goroutine re-created the key.
		if cur, ok := crossSectionCache.m[key]; ok && cur == e {
			delete(crossSectionCache.m, key)
		}
		crossSectionCache.Unlock()
	}
	close(e.done)
	return e.val, e.err
}

// solveNormalized performs the actual normalized cross-section solve.
func solveNormalized(ctx context.Context, key crossSectionKey) (float64, error) {
	aspect, n := key.aspect, key.n
	ny := n + 1
	nx := int(float64(n)*aspect) + 1
	if nx < 9 {
		nx = 9
	}
	// Cap the aspect-driven growth to keep the solve tractable for very
	// wide channels; accuracy there is dominated by the parallel-plate
	// limit anyway.
	if nx > 4097 {
		nx = 4097
	}
	mg := useMultigrid(n)
	if mg && nx%2 == 0 {
		// Multigrid's 2:1 hierarchy needs odd dimensions; one extra
		// column keeps the section shape (hx is recomputed below) while
		// making the grid nestable. ny = n+1 is odd because useMultigrid
		// only accepts even n.
		nx++
	}
	hx := aspect / float64(nx-1)
	hy := 1 / float64(ny-1)

	g, err := linalg.NewGrid2D(nx, ny)
	if err != nil {
		return 0, fmt.Errorf("sim: cross-section grid: %w", err)
	}
	f := make([]float64, nx*ny)
	for i := range f {
		f[i] = 1 // normalized source: ∇²u = −1
	}
	if mg {
		if _, err := linalg.SolvePoissonMGContext(ctx, g, f, hx, hy, linalg.MGPoissonOptions{Tol: 1e-11}); err != nil {
			return 0, fmt.Errorf("sim: cross-section solve: %w", err)
		}
	} else {
		if _, err := linalg.SolvePoissonSORContext(ctx, g, f, hx, hy, linalg.SORPoissonOptions{Tol: 1e-11}); err != nil {
			return 0, fmt.Errorf("sim: cross-section solve: %w", err)
		}
	}

	// Integrate u over the section (u vanishes on the boundary, so the
	// interior trapezoid sum is just the node sum times the cell area).
	var sum float64
	for j := 1; j < ny-1; j++ {
		for i := 1; i < nx-1; i++ {
			sum += g.At(i, j)
		}
	}
	integral := sum * hx * hy
	if integral <= 0 {
		return 0, fmt.Errorf("sim: degenerate cross-section integral")
	}
	return integral, nil
}

// NumericResistance computes the hydraulic resistance of a straight
// rectangular channel by solving the fully developed laminar duct-flow
// problem numerically — a 2D Poisson equation on the cross-section:
//
//	∂²w/∂y² + ∂²w/∂z² = −G/µ,   w = 0 on the walls,
//
// where w is the axial velocity and G = ΔP/L the pressure gradient.
// Integrating w over the cross-section yields Q and hence
// R = ΔP/Q = µ·L / ∫∫ u dA for the normalized problem ∇²u = −1.
//
// This is the "CFD-lite" leg of the validation pipeline: an
// independent numerical solution of the same physics OpenFOAM resolves
// for straight channels, used to validate both analytic resistance
// models (see the package tests, which reproduce the paper's
// observation that Eq. 6 is only an approximation).
//
// The solve runs on the aspect-normalized section and is memoized in
// a process-wide singleflight cache keyed by (normalized aspect ratio,
// grid resolution); repeated channels in the same similarity class
// solve once. Cached and uncached calls return bit-identical
// results.
//
// n sets the grid resolution across the channel height (the width gets
// proportionally more cells); 8 ≤ n ≤ MaxNumericResolution required.
// The resolution also picks the Poisson backend: multigrid for even
// n ≥ 64, where its resolution-independent cycle count pays off, and
// SOR everywhere else.
func NumericResistance(cs fluid.CrossSection, length units.Length, mu units.Viscosity, n int) (units.HydraulicResistance, error) {
	return NumericResistanceContext(context.Background(), cs, length, mu, n)
}

// NumericResistanceContext is NumericResistance with cooperative
// cancellation: the underlying Poisson solve checks ctx between sweeps
// (or within each V-cycle), and cache waiters stop waiting when ctx is
// done. Cancellation and deadline errors wrap context.Canceled /
// context.DeadlineExceeded and are therefore distinguishable from
// numeric failures.
func NumericResistanceContext(ctx context.Context, cs fluid.CrossSection, length units.Length, mu units.Viscosity, n int) (units.HydraulicResistance, error) {
	if err := cs.Validate(); err != nil {
		return 0, err
	}
	if length <= 0 || mu <= 0 {
		return 0, fmt.Errorf("sim: non-positive length or viscosity")
	}
	if err := checkNumericResolution(n); err != nil {
		return 0, err
	}
	integral, err := normalizedIntegral(ctx, crossSectionKey{
		aspect: cs.NormalizedAspect(),
		n:      n,
	})
	if err != nil {
		return 0, err
	}
	h := float64(cs.Height)
	scale := h * h * h * h // the normalized integral scales with h⁴
	return units.HydraulicResistance(float64(mu) * float64(length) / (integral * scale)), nil
}
