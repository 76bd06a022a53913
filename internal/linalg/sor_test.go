package linalg

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"ooc/internal/obs"
)

// mustGrid builds a grid or fails the test.
func mustGrid(t *testing.T, nx, ny int) *Grid2D {
	t.Helper()
	g, err := NewGrid2D(nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// eigenSource fills f with the source of the manufactured solution
// u = sin(πx)·sin(πy) on an nx×ny grid of the unit square.
func eigenSource(nx, ny int, hx, hy float64) []float64 {
	f := make([]float64, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			x := float64(i) * hx
			y := float64(j) * hy
			f[j*nx+i] = 2 * math.Pi * math.Pi * math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
		}
	}
	return f
}

// TestPoissonManufacturedSolution verifies the SOR solver against the
// analytic eigenfunction u = sin(πx)·sin(πy) on the unit square, for
// which ∇²u = -2π²·u.
func TestPoissonManufacturedSolution(t *testing.T) {
	nx, ny := 65, 65
	hx := 1.0 / float64(nx-1)
	hy := 1.0 / float64(ny-1)
	g := mustGrid(t, nx, ny)
	f := eigenSource(nx, ny, hx, hy)
	iters, err := SolvePoissonSOR(g, f, hx, hy, SORPoissonOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("after %d iters: %v", iters, err)
	}
	var maxErr float64
	for j := 1; j < ny-1; j++ {
		for i := 1; i < nx-1; i++ {
			x := float64(i) * hx
			y := float64(j) * hy
			want := math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
			if e := math.Abs(g.At(i, j) - want); e > maxErr {
				maxErr = e
			}
		}
	}
	// Second-order scheme on h=1/64: discretization error ~ (πh)²/12.
	if maxErr > 5e-3 {
		t.Fatalf("max error %g too large (iters=%d)", maxErr, iters)
	}
}

// TestPoissonGridConvergence checks second-order convergence: halving h
// should cut the error by about 4x.
func TestPoissonGridConvergence(t *testing.T) {
	errAt := func(n int) float64 {
		h := 1.0 / float64(n-1)
		g := mustGrid(t, n, n)
		f := eigenSource(n, n, h, h)
		if _, err := SolvePoissonSOR(g, f, h, h, SORPoissonOptions{Tol: 1e-13}); err != nil {
			t.Fatal(err)
		}
		var mx float64
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				x := float64(i) * h
				y := float64(j) * h
				want := math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
				if e := math.Abs(g.At(i, j) - want); e > mx {
					mx = e
				}
			}
		}
		return mx
	}
	e1 := errAt(17)
	e2 := errAt(33)
	ratio := e1 / e2
	if ratio < 3 || ratio > 5 {
		t.Fatalf("convergence ratio %.2f, want ≈4 (e1=%g e2=%g)", ratio, e1, e2)
	}
}

func TestPoissonZeroSource(t *testing.T) {
	g := mustGrid(t, 9, 9)
	f := make([]float64, 81)
	// The zero-value options now request exact convergence, which the
	// homogeneous problem satisfies after its first unchanged sweep.
	iters, err := SolvePoissonSOR(g, f, 0.125, 0.125, SORPoissonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if iters != 1 {
		t.Fatalf("zero problem should converge immediately, took %d iters", iters)
	}
	for _, v := range g.V {
		if v != 0 {
			t.Fatal("solution of homogeneous problem must be zero")
		}
	}
}

func TestPoissonArgumentValidation(t *testing.T) {
	g := mustGrid(t, 9, 9)
	if _, err := SolvePoissonSOR(g, make([]float64, 5), 0.1, 0.1, DefaultSORPoissonOptions()); !errors.Is(err, ErrShape) {
		t.Errorf("short source: %v", err)
	}
	if _, err := SolvePoissonSOR(g, make([]float64, 81), 0, 0.1, DefaultSORPoissonOptions()); err == nil {
		t.Error("zero spacing accepted")
	}
	if _, err := SolvePoissonSOR(g, make([]float64, 81), 0.1, 0.1, SORPoissonOptions{Omega: 2.5}); err == nil {
		t.Error("omega out of range accepted")
	}
	if _, err := SolvePoissonSOR(g, make([]float64, 81), 0.1, 0.1, SORPoissonOptions{Tol: -1e-9}); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := SolvePoissonSOR(g, make([]float64, 81), 0.1, 0.1, SORPoissonOptions{Tol: math.NaN()}); err == nil {
		t.Error("NaN tolerance accepted")
	}
	small := mustGrid(t, 2, 2)
	if _, err := SolvePoissonSOR(small, make([]float64, 4), 0.1, 0.1, DefaultSORPoissonOptions()); err == nil {
		t.Error("grid without interior accepted")
	}
	if _, err := NewGrid2D(0, 4); !errors.Is(err, ErrShape) {
		t.Error("NewGrid2D accepted zero width")
	}
	if _, err := NewGrid2D(4, -1); !errors.Is(err, ErrShape) {
		t.Error("NewGrid2D accepted negative height")
	}
}

func TestPoissonIterationBudget(t *testing.T) {
	n := 33
	h := 1.0 / float64(n-1)
	g := mustGrid(t, n, n)
	f := make([]float64, n*n)
	for i := range f {
		f[i] = 1
	}
	_, err := SolvePoissonSOR(g, f, h, h, SORPoissonOptions{MaxIter: 2, Tol: 1e-14})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
}

// TestExactConvergenceIsRequestable: Tol 0 must mean "iterate until a
// sweep changes nothing", not silently fall back to the 1e-10 default
// (the historical sentinel bug). On this problem the default tolerance
// converges well inside 60 iterations, so an exact-convergence request
// is distinguishable by its refusal to stop there.
func TestExactConvergenceIsRequestable(t *testing.T) {
	build := func() (*Grid2D, []float64) {
		g := mustGrid(t, 9, 9)
		f := make([]float64, 81)
		for i := range f {
			f[i] = 1
		}
		return g, f
	}
	g, f := build()
	iters, err := SolvePoissonSOR(g, f, 0.125, 0.125, DefaultSORPoissonOptions())
	if err != nil {
		t.Fatal(err)
	}
	if iters >= 60 {
		t.Fatalf("default tolerance unexpectedly slow (%d iters); test premise broken", iters)
	}
	g2, f2 := build()
	iters2, err2 := SolvePoissonSOR(g2, f2, 0.125, 0.125, SORPoissonOptions{Tol: 0, MaxIter: 60})
	if err2 == nil && iters2 <= iters {
		t.Fatalf("Tol 0 behaved like the default tolerance (%d vs %d iters); exact convergence not honoured", iters2, iters)
	}
	if err2 != nil && !errors.Is(err2, ErrNoConvergence) {
		t.Fatalf("unexpected error: %v", err2)
	}
}

func TestDefaultSORPoissonOptions(t *testing.T) {
	opt := DefaultSORPoissonOptions()
	//ooclint:ignore floatcmp the default must be exactly the documented constant
	if opt.Tol != 1e-10 {
		t.Fatalf("default Tol = %g, want 1e-10", opt.Tol)
	}
	if opt.Omega != 0 || opt.MaxIter != 0 || opt.Workers != 0 {
		t.Fatal("defaults should leave the automatic sentinels in place")
	}
}

// TestRedBlackAgreesWithLex: the red-black ordering is a different
// relaxation schedule but must converge to the same solution within
// the requested tolerance.
func TestRedBlackAgreesWithLex(t *testing.T) {
	nx, ny := 65, 65
	hx := 1.0 / float64(nx-1)
	hy := 1.0 / float64(ny-1)
	f := eigenSource(nx, ny, hx, hy)

	ihx2 := 1 / (hx * hx)
	ihy2 := 1 / (hy * hy)
	diag := 2 * (ihx2 + ihy2)
	rho := (math.Cos(math.Pi/float64(nx-1)) + math.Cos(math.Pi/float64(ny-1))) / 2
	omega := 2 / (1 + math.Sqrt(1-rho*rho))

	lex := mustGrid(t, nx, ny)
	if _, _, err := solveSORLex(context.Background(), lex, f, ihx2, ihy2, diag, omega, 1e-12, 100*(nx+ny)); err != nil {
		t.Fatal(err)
	}
	rb := mustGrid(t, nx, ny)
	if _, _, err := solveSORRedBlack(context.Background(), rb, f, ihx2, ihy2, diag, omega, 1e-12, 100*(nx+ny), 4); err != nil {
		t.Fatal(err)
	}
	var maxDiff float64
	for k := range lex.V {
		if d := math.Abs(lex.V[k] - rb.V[k]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-9 {
		t.Fatalf("red-black and lexicographic solutions differ by %g", maxDiff)
	}
}

// TestRedBlackBitDeterministicAcrossWorkers: the parallel sweep must
// produce identical bits for every worker count — the property the
// cross-section solve cache's "bit-identical to uncached" guarantee
// builds on.
func TestRedBlackBitDeterministicAcrossWorkers(t *testing.T) {
	nx, ny := 65, 33
	hx := 1.0 / float64(nx-1)
	hy := 1.0 / float64(ny-1)
	f := eigenSource(nx, ny, hx, hy)
	ihx2 := 1 / (hx * hx)
	ihy2 := 1 / (hy * hy)
	diag := 2 * (ihx2 + ihy2)

	solve := func(workers int) ([]float64, int) {
		g := mustGrid(t, nx, ny)
		iters, _, err := solveSORRedBlack(context.Background(), g, f, ihx2, ihy2, diag, 1.5, 1e-11, 100*(nx+ny), workers)
		if err != nil {
			t.Fatal(err)
		}
		return g.V, iters
	}
	ref, refIters := solve(1)
	for _, workers := range []int{2, 3, 8} {
		got, iters := solve(workers)
		if iters != refIters {
			t.Fatalf("workers=%d: iteration count %d differs from serial %d", workers, iters, refIters)
		}
		for k := range ref {
			//ooclint:ignore floatcmp bit-identity across worker counts is the property under test
			if got[k] != ref[k] {
				t.Fatalf("workers=%d: cell %d diverged", workers, k)
			}
		}
	}
}

// TestLargeGridUsesRedBlack: above the threshold SolvePoissonSOR must
// still deliver a correct solution through the red-black path.
func TestLargeGridUsesRedBlack(t *testing.T) {
	nx, ny := 257, 129 // 33153 cells ≥ redBlackThreshold
	if nx*ny < redBlackThreshold {
		t.Fatal("test grid no longer exercises the red-black path; enlarge it")
	}
	hx := 1.0 / float64(nx-1)
	hy := 1.0 / float64(ny-1)
	g := mustGrid(t, nx, ny)
	f := eigenSource(nx, ny, hx, hy)
	if _, err := SolvePoissonSOR(g, f, hx, hy, SORPoissonOptions{Tol: 1e-10}); err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for j := 1; j < ny-1; j++ {
		for i := 1; i < nx-1; i++ {
			x := float64(i) * hx
			y := float64(j) * hy
			want := math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
			if e := math.Abs(g.At(i, j) - want); e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr > 5e-4 {
		t.Fatalf("max error %g too large on the red-black path", maxErr)
	}
}

func TestGrid2DAccessors(t *testing.T) {
	g := mustGrid(t, 4, 3)
	g.Set(2, 1, 7.5)
	//ooclint:ignore floatcmp storage round-trip is bit-exact
	if g.At(2, 1) != 7.5 {
		t.Fatal("Set/At mismatch")
	}
	//ooclint:ignore floatcmp storage round-trip is bit-exact
	if g.V[1*4+2] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

// sorTestProblem is a small well-posed Poisson problem for the
// context/cancellation tests.
func sorTestProblem(t *testing.T) (*Grid2D, []float64, float64, float64) {
	t.Helper()
	nx, ny := 33, 33
	hx := 1.0 / float64(nx-1)
	hy := 1.0 / float64(ny-1)
	g := mustGrid(t, nx, ny)
	f := eigenSource(nx, ny, hx, hy)
	return g, f, hx, hy
}

func TestSORContextPreCancelled(t *testing.T) {
	g, f, hx, hy := sorTestProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := SolvePoissonSORContext(ctx, g, f, hx, hy, DefaultSORPoissonOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if errors.Is(err, ErrNoConvergence) {
		t.Fatal("cancellation must not be conflated with ErrNoConvergence")
	}
	if st.Iterations != 0 || st.Converged {
		t.Fatalf("pre-cancelled solve reported progress: %+v", st)
	}
}

func TestSORContextExpiredDeadline(t *testing.T) {
	g, f, hx, hy := sorTestProblem(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := SolvePoissonSORContext(ctx, g, f, hx, hy, DefaultSORPoissonOptions())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatal("deadline and cancellation must be distinguishable")
	}
}

func TestSORContextRecordsStats(t *testing.T) {
	g, f, hx, hy := sorTestProblem(t)
	c := obs.NewCollector()
	ctx := obs.WithCollector(context.Background(), c)
	st, err := SolvePoissonSORContext(ctx, g, f, hx, hy, DefaultSORPoissonOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iterations <= 0 {
		t.Fatalf("converged solve stats: %+v", st)
	}
	if st.Residual < 0 || st.Residual > 1e-10 {
		t.Fatalf("converged residual %g out of range", st.Residual)
	}
	s := c.Snapshot().Solvers()
	if len(s) != 1 || s[0].Solver != "sor" {
		t.Fatalf("collector solvers: %+v", s)
	}
	if s[0].Solves != 1 || s[0].Converged != 1 {
		t.Fatalf("collector counts: %+v", s[0])
	}
	if s[0].TotalIterations != st.Iterations {
		t.Fatalf("collector iterations %d vs stats %d", s[0].TotalIterations, st.Iterations)
	}
}

// countdownCtx reports Canceled after a fixed number of Err calls,
// giving a deterministic mid-solve abort without timers.
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

func TestSORContextMidSolveAbortKeepsPartialProgress(t *testing.T) {
	g, f, hx, hy := sorTestProblem(t)
	const sweeps = 5
	ctx := &countdownCtx{Context: context.Background(), remaining: sweeps}
	c := obs.NewCollector()
	st, err := SolvePoissonSORContext(obs.WithCollector(ctx, c), g, f, hx, hy, DefaultSORPoissonOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if st.Iterations != sweeps {
		t.Fatalf("partial progress: %d sweeps, want %d", st.Iterations, sweeps)
	}
	if st.Converged {
		t.Fatal("aborted solve must not report convergence")
	}
	if math.IsInf(st.Residual, 1) || st.Residual <= 0 {
		t.Fatalf("aborted solve must report the last sweep's residual, got %g", st.Residual)
	}
	if s := c.Snapshot().Solvers(); s[0].Converged != 0 || s[0].Solves != 1 {
		t.Fatalf("collector recorded aborted solve wrong: %+v", s[0])
	}
	// The grid must hold the partial iterate, not be reset.
	var nonzero bool
	for _, v := range g.V {
		if v != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("aborted solve discarded partial iterate")
	}
}
