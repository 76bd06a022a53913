package sim

import (
	"context"
	"fmt"

	"ooc/internal/flight"
	"ooc/internal/fluid"
	"ooc/internal/linalg"
	"ooc/internal/obs"
	"ooc/internal/units"
)

// crossSectionKey is the memoization key of the cross-section solve
// cache. The solve is performed on the *normalized* section (unit
// height, width w/h), so every channel in the same similarity class —
// the common case in a use-case grid, where all module channels share
// one aspect ratio — hits the same entry regardless of absolute size.
type crossSectionKey struct {
	// aspect is fluid.CrossSection.NormalizedAspect (w/h ≥ 1).
	aspect float64
	// n is the grid-resolution parameter of NumericResistance.
	n int
}

// crossSections is the process-wide singleflight cache of normalized
// integrals. It is unbounded (there are few similarity classes) and
// keeps only successful solves: a failed solve, including a
// cancellation or deadline abort, is recomputed by the next call with
// a fresh budget.
var crossSections = flight.New[crossSectionKey, float64](0, flight.Counters{
	Hits:       obs.CrossSectionHits,
	Misses:     obs.CrossSectionMisses,
	JoinAborts: obs.CrossSectionJoinAborts,
}, "sim: waiting for cross-section solve", nil)

// ResetCrossSectionCache empties the solve cache. Benchmarks use it to
// measure cold solves; production code never needs it.
func ResetCrossSectionCache() { crossSections.Reset() }

// CrossSectionCacheSize reports the number of cache slots, completed
// *and* in flight.
func CrossSectionCacheSize() int { return crossSections.Len() }

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
func normalizedIntegral(ctx context.Context, key crossSectionKey) (float64, error) {
	v, _, err := crossSections.Do(ctx, obs.FromContext(ctx), key, func() (float64, error) {
		return solveNormalized(ctx, key)
	})
	return v, err
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
	if _, err := linalg.SolvePoissonSORContext(ctx, g, f, hx, hy, linalg.SORPoissonOptions{Tol: 1e-11}); err != nil {
		return 0, fmt.Errorf("sim: cross-section solve: %w", err)
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
// Every resolution solves with SOR (linalg.SolvePoissonSOR).
func NumericResistance(cs fluid.CrossSection, length units.Length, mu units.Viscosity, n int) (units.HydraulicResistance, error) {
	return NumericResistanceContext(context.Background(), cs, length, mu, n)
}

// NumericResistanceContext is NumericResistance with cooperative
// cancellation: the underlying Poisson solve checks ctx between sweeps,
// and cache waiters stop waiting when ctx is done. Cancellation and
// deadline errors wrap context.Canceled / context.DeadlineExceeded and
// are therefore distinguishable from numeric failures.
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
