package field

import (
	"context"
	"fmt"
	"math"

	"ooc/internal/linalg"
	"ooc/internal/obs"
	"ooc/internal/parallel"
)

// This file holds the pressure-solve backends. Both solve the same
// masked five-point system A·p = rhs, where A[c,c] = Σ g(c,nb) over
// masked neighbours and A[c,nb] = −g(c,nb) with the harmonic-mean face
// conductivities of faceG, starting from the seeded initial guess in
// f.P. The system is singular up to an additive constant and the
// sources balance, so rhs is compatible.
//
//   - solveMaskedCG: conjugate gradients — the solver SolveContext
//     runs. Needs no relaxation tuning and handles the long thin
//     channel domain (effectively a 1D chain of thousands of cells)
//     far better than relaxation sweeps.
//   - solveMaskedSOR: red-black SOR, kept as the tests' independent
//     oracle for the CG backend (two solvers agreeing on module flows
//     is worth more than one). On the chain-like masked domain it
//     leans on the designer-seeded initial guess; it converges, just
//     in more iterations than CG.
//
// There is no geometric multigrid backend: a V-cycle needs a 2:1
// nestable rectangular hierarchy, and the masked channel footprint has
// none — coarsening a one-cell-wide channel disconnects it.
//
// Both backends are bit-deterministic for every worker count: row
// ownership is disjoint, per-row maxima are reduced serially, and the
// CG inner products stay serial.

// solveMaskedCG runs conjugate gradients on the masked system and
// returns the iteration count. It records an obs.SolveStats under
// solver name "cg" for every outcome.
func solveMaskedCG(ctx context.Context, f *Field, rhs []float64, tol float64, maxIter, workers int) (int, error) {
	nx, ny := f.Nx, f.Ny

	// The masked Laplacian is applied row-parallel through the shared
	// pool: each row of y is owned by exactly one worker and x is
	// read-only, so the result is bit-identical to a serial sweep for
	// any worker count. The inner products and axpy updates of CG stay
	// serial — keeping every floating-point reduction in a fixed order
	// keeps the whole solve deterministic.
	applyA := func(x, y []float64) {
		parallel.Rows(ny-2, workers, func(lo, hi int) {
			for jj := lo; jj < hi; jj++ {
				j := jj + 1
				for i := 1; i < nx-1; i++ {
					idx := f.index(i, j)
					if !f.Mask[idx] {
						y[idx] = 0
						continue
					}
					var acc float64
					for _, nb := range [4]int{idx - 1, idx + 1, idx - nx, idx + nx} {
						if f.Mask[nb] {
							acc += f.faceG(idx, nb) * (x[idx] - x[nb])
						}
					}
					y[idx] = acc
				}
			}
		})
	}
	projectConstant := func(v []float64) {
		var mean float64
		for idx, m := range f.Mask {
			if m {
				mean += v[idx]
			}
		}
		mean /= float64(f.ChannelCells)
		for idx, m := range f.Mask {
			if m {
				v[idx] -= mean
			}
		}
	}
	dot := func(a, b []float64) float64 {
		var s float64
		for idx, m := range f.Mask {
			if m {
				s += a[idx] * b[idx]
			}
		}
		return s
	}

	n := nx * ny
	r := make([]float64, n)
	pv := make([]float64, n)
	ap := make([]float64, n)
	applyA(f.P, ap)
	for idx, m := range f.Mask {
		if m {
			r[idx] = rhs[idx] - ap[idx]
		}
	}
	projectConstant(r)
	copy(pv, r)
	rr := dot(r, r)
	bNorm := math.Sqrt(dot(rhs, rhs))
	if bNorm == 0 {
		bNorm = 1
	}

	recordCG := func(iters int, converged bool) {
		obs.FromContext(ctx).RecordSolve(obs.SolveStats{
			Solver:     "cg",
			Iterations: iters,
			Residual:   math.Sqrt(rr) / bNorm,
			Converged:  converged,
		})
	}
	var iter int
	for iter = 1; iter <= maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			recordCG(iter-1, false)
			return iter - 1, fmt.Errorf("field: CG solve aborted after %d iterations: %w", iter-1, err)
		}
		if math.Sqrt(rr) <= tol*bNorm {
			break
		}
		applyA(pv, ap)
		pap := dot(pv, ap)
		if pap <= 0 {
			break // numerical breakdown; accept the current iterate
		}
		alpha := rr / pap
		for idx, m := range f.Mask {
			if m {
				f.P[idx] += alpha * pv[idx]
				r[idx] -= alpha * ap[idx]
			}
		}
		projectConstant(r)
		rrNew := dot(r, r)
		beta := rrNew / rr
		rr = rrNew
		for idx, m := range f.Mask {
			if m {
				pv[idx] = r[idx] + beta*pv[idx]
			}
		}
	}
	if iter > maxIter {
		recordCG(maxIter, false)
		return maxIter, fmt.Errorf("field: CG after %d iterations (residual %.2e): %w",
			maxIter, math.Sqrt(rr)/bNorm, linalg.ErrNoConvergence)
	}
	recordCG(iter, true)
	return iter, nil
}

// fieldSOROmega is the fixed over-relaxation factor of the masked SOR
// backend. The optimal factor of an irregular masked domain has no
// closed form, but the long thin subdomains that dominate a chip
// footprint behave like 1D chains of thousands of cells, whose optimal
// factor 2/(1+sin(π/L)) sits just below 2. Measured on the Fig. 4
// design (150 µm raster, Tol 1e-9): 1.9 → 32 490 sweeps, 1.95 →
// 15 472, 1.98 → 7 660, 1.99 → 4 146.
const fieldSOROmega = 1.99

// solveMaskedSOR runs red-black SOR on the masked system and returns
// the sweep count. Convergence is judged on the relative max-norm
// update per sweep (matching the linalg SOR contract rather than CG's
// residual norm — the two backends' Tol values are therefore close but
// not identical in meaning). It records an obs.SolveStats under solver
// name "sor" for every outcome.
func solveMaskedSOR(ctx context.Context, f *Field, rhs []float64, tol float64, maxIter, workers int) (int, error) {
	nx, ny := f.Nx, f.Ny
	nRows := ny - 2
	rowUpd := make([]float64, nRows)
	rowVal := make([]float64, nRows)

	// One colour of a red-black sweep: cells with (i+j)%2 == color.
	// Same-colour cells never neighbour each other, so rows update in
	// parallel with disjoint ownership; per-row maxima land in
	// rowUpd/rowVal and are reduced serially by the caller.
	sweepColor := func(color int) {
		parallel.Rows(nRows, workers, func(lo, hi int) {
			for jj := lo; jj < hi; jj++ {
				j := jj + 1
				maxUpd, maxVal := rowUpd[jj], rowVal[jj]
				for i := 1 + (color+j+1)%2; i < nx-1; i += 2 {
					idx := j*nx + i
					if !f.Mask[idx] {
						continue
					}
					var g, acc float64
					for _, nb := range [4]int{idx - 1, idx + 1, idx - nx, idx + nx} {
						if f.Mask[nb] {
							w := f.faceG(idx, nb)
							g += w
							acc += w * f.P[nb]
						}
					}
					if g <= 0 {
						// Isolated cell (no conductive faces): nothing to
						// relax; the velocity pass renders it stagnant.
						continue
					}
					upd := fieldSOROmega * ((acc+rhs[idx])/g - f.P[idx])
					f.P[idx] += upd
					if u := math.Abs(upd); u > maxUpd {
						maxUpd = u
					}
					if v := math.Abs(f.P[idx]); v > maxVal {
						maxVal = v
					}
				}
				rowUpd[jj], rowVal[jj] = maxUpd, maxVal
			}
		})
	}

	rel := math.Inf(1)
	record := func(iters int, converged bool) {
		obs.FromContext(ctx).RecordSolve(obs.SolveStats{
			Solver:     "sor",
			Iterations: iters,
			Residual:   rel,
			Converged:  converged,
		})
	}
	for iter := 1; iter <= maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			record(iter-1, false)
			return iter - 1, fmt.Errorf("field: SOR solve aborted after %d iterations: %w", iter-1, err)
		}
		for jj := range rowUpd {
			rowUpd[jj], rowVal[jj] = 0, 0
		}
		sweepColor(0)
		sweepColor(1)
		var maxUpd, maxVal float64
		for jj := range rowUpd {
			if rowUpd[jj] > maxUpd {
				maxUpd = rowUpd[jj]
			}
			if rowVal[jj] > maxVal {
				maxVal = rowVal[jj]
			}
		}
		if maxVal == 0 {
			maxVal = 1
		}
		rel = maxUpd / maxVal
		if rel <= tol {
			record(iter, true)
			return iter, nil
		}
	}
	record(maxIter, false)
	return maxIter, fmt.Errorf("field: SOR after %d sweeps (relative update %.2e): %w",
		maxIter, rel, linalg.ErrNoConvergence)
}
