package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ooc/internal/obs"
	"ooc/internal/parallel"
)

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget before reaching the requested tolerance.
var ErrNoConvergence = errors.New("linalg: iterative solver did not converge")

// Grid2D is a rectangular finite-difference grid of unknowns used by
// the cross-section Poisson solver in internal/sim. Values are stored
// row-major with nx columns and ny rows; boundary handling is the
// caller's business (Dirichlet boundaries are simply cells the solver
// does not update).
type Grid2D struct {
	Nx, Ny int
	V      []float64
}

// NewGrid2D returns a zero grid with nx×ny cells. Like every other
// constructor in this package it reports invalid sizes as an error
// rather than panicking.
func NewGrid2D(nx, ny int) (*Grid2D, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("%w: invalid grid size %dx%d", ErrShape, nx, ny)
	}
	return &Grid2D{Nx: nx, Ny: ny, V: make([]float64, nx*ny)}, nil
}

// At returns the value at column i, row j.
func (g *Grid2D) At(i, j int) float64 { return g.V[j*g.Nx+i] }

// Set assigns the value at column i, row j.
func (g *Grid2D) Set(i, j int, v float64) { g.V[j*g.Nx+i] = v }

// SORPoissonOptions configures SolvePoissonSOR.
//
// The zero value requests an exact-convergence run: iterate until an
// entire sweep changes nothing (Tol 0) within the automatic iteration
// budget. Use DefaultSORPoissonOptions for the practical defaults the
// solver historically applied to the zero value.
type SORPoissonOptions struct {
	// Omega is the over-relaxation factor in (0, 2). Zero selects the
	// near-optimal value for a Laplacian on the given grid (zero is
	// never a valid relaxation factor, so it is safe as a sentinel).
	Omega float64
	// Tol is the max-norm update tolerance relative to the largest
	// solution magnitude. Tol 0 demands exact convergence (a sweep
	// whose largest update is exactly zero); negative or NaN values
	// are rejected.
	Tol float64
	// MaxIter bounds the iteration count; values ≤ 0 select the
	// automatic budget 100·(Nx+Ny).
	MaxIter int
	// Workers bounds the goroutines used by the parallel red-black
	// sweep on large grids; ≤ 0 selects GOMAXPROCS. The sweep
	// ordering — and therefore the numerical result — depends only on
	// the grid, never on Workers.
	Workers int
}

// DefaultSORPoissonOptions returns the solver's practical defaults:
// automatic omega, Tol 1e-10, automatic iteration budget. Earlier
// revisions conflated these defaults with the zero value of
// SORPoissonOptions, which made an explicit Tol 0 (exact convergence)
// unrequestable; callers that want the defaults must now say so.
func DefaultSORPoissonOptions() SORPoissonOptions {
	return SORPoissonOptions{Tol: 1e-10}
}

// redBlackThreshold is the cell count above which SolvePoissonSOR
// switches from the serial lexicographic sweep to the red-black
// ordered sweep that internal/parallel can partition across rows.
// Below it the parallel bookkeeping costs more than it buys.
const redBlackThreshold = 1 << 15

// SolvePoissonSOR solves the interior of the Poisson problem
//
//	∇²u = -f   (five-point stencil, grid spacings hx, hy)
//
// with homogeneous Dirichlet boundaries (u = 0 on the outermost cells)
// using successive over-relaxation. It returns the number of iterations
// performed. The grid g provides the initial guess and receives the
// solution; f must have the same shape as g.
//
// Grids with at least redBlackThreshold cells are swept in red-black
// order, which removes the loop-carried dependency of the
// lexicographic sweep and lets the pool in internal/parallel update
// each color concurrently by row blocks. The red-black result is
// bit-deterministic — it depends on the grid and options only, not on
// the worker count or goroutine schedule — but it is a different
// relaxation ordering, so its rounding differs from the serial sweep
// at the tolerance level.
//
// This is the numerical core of the duct-flow "CFD-lite" validator:
// fully developed laminar flow in a rectangular channel obeys
// ∇²w = -G/µ for the axial velocity w, which is exactly this problem.
func SolvePoissonSOR(g *Grid2D, f []float64, hx, hy float64, opt SORPoissonOptions) (int, error) {
	st, err := SolvePoissonSORContext(context.Background(), g, f, hx, hy, opt)
	return st.Iterations, err
}

// SolvePoissonSORContext is SolvePoissonSOR with cooperative
// cancellation and telemetry. The solver checks ctx between sweeps
// and aborts with an error wrapping ctx.Err() — distinct from
// ErrNoConvergence, so callers can tell "ran out of iterations" from
// "was cancelled" / "hit the deadline" with errors.Is. The returned
// obs.SolveStats always reports partial progress (sweeps performed,
// last relative update, wall time) and is also recorded into the
// obs collector carried by ctx (obs.Default when none), except when
// the arguments themselves are invalid.
func SolvePoissonSORContext(ctx context.Context, g *Grid2D, f []float64, hx, hy float64, opt SORPoissonOptions) (obs.SolveStats, error) {
	if len(f) != len(g.V) {
		return obs.SolveStats{}, fmt.Errorf("%w: grid %dx%d, source length %d", ErrShape, g.Nx, g.Ny, len(f))
	}
	if hx <= 0 || hy <= 0 {
		return obs.SolveStats{}, fmt.Errorf("linalg: non-positive grid spacing (%g, %g)", hx, hy)
	}
	nx, ny := g.Nx, g.Ny
	if nx < 3 || ny < 3 {
		return obs.SolveStats{}, fmt.Errorf("linalg: grid %dx%d has no interior", nx, ny)
	}
	omega := opt.Omega
	if omega == 0 {
		// Optimal omega for the 5-point Laplacian on an nx×ny grid.
		rho := (math.Cos(math.Pi/float64(nx-1)) + math.Cos(math.Pi/float64(ny-1))) / 2
		omega = 2 / (1 + math.Sqrt(1-rho*rho))
	}
	if omega <= 0 || omega >= 2 {
		return obs.SolveStats{}, fmt.Errorf("linalg: SOR omega %g out of (0,2)", omega)
	}
	tol := opt.Tol
	if tol < 0 || math.IsNaN(tol) {
		return obs.SolveStats{}, fmt.Errorf("linalg: invalid SOR tolerance %g", tol)
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 100 * (nx + ny)
	}
	if ctx == nil {
		ctx = context.Background()
	}

	ihx2 := 1 / (hx * hx)
	ihy2 := 1 / (hy * hy)
	diag := 2 * (ihx2 + ihy2)

	var it int
	var rel float64
	var err error
	if nx*ny >= redBlackThreshold {
		it, rel, err = solveSORRedBlack(ctx, g, f, ihx2, ihy2, diag, omega, tol, maxIter, opt.Workers)
	} else {
		it, rel, err = solveSORLex(ctx, g, f, ihx2, ihy2, diag, omega, tol, maxIter)
	}
	st := obs.SolveStats{
		Solver:     "sor",
		Iterations: it,
		Residual:   rel,
		Converged:  err == nil,
	}
	obs.FromContext(ctx).RecordSolve(st)
	return st, err
}

// sorAborted wraps the context error that cut a solve short, keeping
// the partial iteration count in the message while staying
// errors.Is-transparent for context.Canceled / DeadlineExceeded.
func sorAborted(done int, ctxErr error) error {
	return fmt.Errorf("linalg: SOR solve aborted after %d iterations: %w", done, ctxErr)
}

// solveSORLex is the classic serial lexicographic Gauss-Seidel SOR
// sweep. It returns the sweeps performed and the last sweep's relative
// max update (the convergence measure), so aborted and non-converged
// solves still report partial progress.
func solveSORLex(ctx context.Context, g *Grid2D, f []float64, ihx2, ihy2, diag, omega, tol float64, maxIter int) (int, float64, error) {
	nx, ny := g.Nx, g.Ny
	rel := math.Inf(1)
	for it := 1; it <= maxIter; it++ {
		if err := ctx.Err(); err != nil {
			return it - 1, rel, sorAborted(it-1, err)
		}
		var maxUpd, maxVal float64
		for j := 1; j < ny-1; j++ {
			row := j * nx
			for i := 1; i < nx-1; i++ {
				k := row + i
				gs := (ihx2*(g.V[k-1]+g.V[k+1]) + ihy2*(g.V[k-nx]+g.V[k+nx]) + f[k]) / diag
				upd := omega * (gs - g.V[k])
				g.V[k] += upd
				if a := math.Abs(upd); a > maxUpd {
					maxUpd = a
				}
				if a := math.Abs(g.V[k]); a > maxVal {
					maxVal = a
				}
			}
		}
		if maxVal == 0 {
			maxVal = 1
		}
		rel = maxUpd / maxVal
		if maxUpd <= tol*maxVal {
			return it, rel, nil
		}
	}
	return maxIter, rel, ErrNoConvergence
}

// rbSweeper is the red-black Gauss–Seidel relaxation kernel of
// SolvePoissonSOR's parallel path: one full sweep relaxes first every
// cell with even i+j, then every cell with odd i+j. Cells of one color
// depend only on the other color, so all updates within a color pass
// are independent — each row can be relaxed on any worker, in any
// schedule, and produce identical bits. Convergence statistics are
// reduced per row and combined with max(), which is order-insensitive,
// so everything a sweep reports is deterministic too.
type rbSweeper struct {
	nx, ny           int
	ihx2, ihy2, diag float64
	omega            float64
	workers          int
	rowUpd, rowVal   []float64
}

// newRBSweeper builds a kernel for an nx×ny grid. workers must already
// be resolved (parallel.Workers).
func newRBSweeper(nx, ny int, ihx2, ihy2, diag, omega float64, workers int) *rbSweeper {
	return &rbSweeper{
		nx: nx, ny: ny,
		ihx2: ihx2, ihy2: ihy2, diag: diag, omega: omega,
		workers: workers,
		rowUpd:  make([]float64, ny),
		rowVal:  make([]float64, ny),
	}
}

// color relaxes every interior cell of one color ((i+j)%2 == color),
// accumulating per-row max-update / max-value statistics.
func (s *rbSweeper) color(u, f []float64, color int) {
	nx := s.nx
	parallel.Rows(s.ny-2, s.workers, func(lo, hi int) {
		for jj := lo; jj < hi; jj++ {
			j := jj + 1
			row := j * nx
			// First interior column of this color: i ≥ 1 with
			// (i+j) % 2 == color.
			i0 := 1 + (color+j+1)%2
			maxUpd, maxVal := s.rowUpd[j], s.rowVal[j]
			for i := i0; i < nx-1; i += 2 {
				k := row + i
				gs := (s.ihx2*(u[k-1]+u[k+1]) + s.ihy2*(u[k-nx]+u[k+nx]) + f[k]) / s.diag
				upd := s.omega * (gs - u[k])
				u[k] += upd
				if a := math.Abs(upd); a > maxUpd {
					maxUpd = a
				}
				if a := math.Abs(u[k]); a > maxVal {
					maxVal = a
				}
			}
			s.rowUpd[j], s.rowVal[j] = maxUpd, maxVal
		}
	})
}

// sweep performs one full red-black sweep over u with source f and
// returns the sweep's max update and max solution magnitude.
func (s *rbSweeper) sweep(u, f []float64) (maxUpd, maxVal float64) {
	for j := range s.rowUpd {
		s.rowUpd[j], s.rowVal[j] = 0, 0
	}
	s.color(u, f, 0)
	s.color(u, f, 1)
	for j := 1; j < s.ny-1; j++ {
		if s.rowUpd[j] > maxUpd {
			maxUpd = s.rowUpd[j]
		}
		if s.rowVal[j] > maxVal {
			maxVal = s.rowVal[j]
		}
	}
	return maxUpd, maxVal
}

// solveSORRedBlack sweeps the grid in red-black (checkerboard) order
// through the rbSweeper kernel until the relative max update meets
// tol.
func solveSORRedBlack(ctx context.Context, g *Grid2D, f []float64, ihx2, ihy2, diag, omega, tol float64, maxIter, workers int) (int, float64, error) {
	sw := newRBSweeper(g.Nx, g.Ny, ihx2, ihy2, diag, omega, parallel.Workers(workers))
	rel := math.Inf(1)
	for it := 1; it <= maxIter; it++ {
		if err := ctx.Err(); err != nil {
			return it - 1, rel, sorAborted(it-1, err)
		}
		maxUpd, maxVal := sw.sweep(g.V, f)
		if maxVal == 0 {
			maxVal = 1
		}
		rel = maxUpd / maxVal
		if maxUpd <= tol*maxVal {
			return it, rel, nil
		}
	}
	return maxIter, rel, ErrNoConvergence
}
