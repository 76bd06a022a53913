package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ooc/internal/testutil"
)

// mustMatrix builds a matrix whose size is known-valid in the test.
func mustMatrix(t testing.TB, r, c int) *Matrix {
	t.Helper()
	m, err := NewMatrix(r, c)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustIdentity(t testing.TB, n int) *Matrix {
	t.Helper()
	m, err := Identity(n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMatrixRejectsInvalidSizes(t *testing.T) {
	for _, sz := range [][2]int{{0, 3}, {3, 0}, {-1, 2}, {0, 0}} {
		if _, err := NewMatrix(sz[0], sz[1]); !errors.Is(err, ErrShape) {
			t.Errorf("NewMatrix(%d, %d): want ErrShape, got %v", sz[0], sz[1], err)
		}
	}
	if _, err := Identity(0); !errors.Is(err, ErrShape) {
		t.Errorf("Identity(0): want ErrShape, got %v", err)
	}
	if _, err := Identity(-4); !errors.Is(err, ErrShape) {
		t.Errorf("Identity(-4): want ErrShape, got %v", err)
	}
}

func TestSolve2x2(t *testing.T) {
	a := mustMatrix(t, 2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5, x + 3y = 10 -> x = 1, y = 3.
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveIdentity(t *testing.T) {
	n := 7
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i) - 2.5
	}
	x, err := Solve(mustIdentity(t, n), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if !testutil.Approx(x[i], b[i]) {
			t.Fatalf("identity solve changed b: %v vs %v", x, b)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := mustMatrix(t, 2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := mustMatrix(t, 2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := Solve(a, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-4) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [4 3]", x)
	}
}

func TestShapeErrors(t *testing.T) {
	a := mustMatrix(t, 2, 3)
	if _, err := Factorize(a); !errors.Is(err, ErrShape) {
		t.Errorf("Factorize non-square: %v", err)
	}
	sq := mustIdentity(t, 3)
	if _, err := Solve(sq, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("Solve wrong rhs length: %v", err)
	}
	if _, err := sq.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("MulVec wrong length: %v", err)
	}
}

func TestDet(t *testing.T) {
	a := mustMatrix(t, 3, 3)
	vals := [][]float64{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-24) > 1e-12 {
		t.Fatalf("det = %g, want 24", f.Det())
	}
	// Swapping two rows flips the sign.
	a.Set(0, 0, 0)
	a.Set(0, 1, 3)
	a.Set(1, 0, 2)
	a.Set(1, 1, 0)
	f, err = Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()+24) > 1e-12 {
		t.Fatalf("det = %g, want -24", f.Det())
	}
}

// randomDiagDominant builds a well-conditioned random system; property
// tests verify A·x ≈ b after solving.
func randomDiagDominant(rng *rand.Rand, n int) *Matrix {
	a, _ := NewMatrix(n, n) // n ≥ 2 at every call site
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.Float64()*2 - 1
			a.Set(i, j, v)
			rowSum += math.Abs(v)
		}
		a.Set(i, i, rowSum+1+rng.Float64())
	}
	return a
}

func TestSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		a := randomDiagDominant(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64()*20 - 10
		}
		// Solve factors its argument in place; the residual needs A.
		x, err := Solve(a.Clone(), b)
		if err != nil {
			return false
		}
		res, err := Residual(a, x, b)
		if err != nil {
			return false
		}
		return res < 1e-9
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLUReusableForMultipleRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomDiagDominant(rng, 12)
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		b := make([]float64, 12)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Residual(a, x, b)
		if err != nil {
			t.Fatal(err)
		}
		if res > 1e-9 {
			t.Fatalf("rhs %d residual %g", k, res)
		}
	}
}

func TestFactorizeDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDiagDominant(rng, 5)
	before := a.Clone()
	if _, err := Factorize(a); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			//ooclint:ignore floatcmp untouched values must match bit-for-bit
			if a.At(i, j) != before.At(i, j) {
				t.Fatalf("Factorize mutated input at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatrixAddAndMaxAbs(t *testing.T) {
	m := mustMatrix(t, 2, 2)
	m.Add(0, 1, 2.5)
	m.Add(0, 1, -1.0)
	if !testutil.Approx(m.At(0, 1), 1.5) {
		t.Fatalf("Add: got %g", m.At(0, 1))
	}
	m.Set(1, 0, -9)
	if !testutil.Approx(m.MaxAbs(), 9) {
		t.Fatalf("MaxAbs: got %g", m.MaxAbs())
	}
}

// TestRefactorReusesStorage pins the in-place LU: refactoring a matrix
// of the factorization's size allocates nothing, a new size resizes,
// and solving into a caller's buffer allocates nothing either.
func TestRefactorReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := randomDiagDominant(rng, 9), randomDiagDominant(rng, 9)
	rhs, x := make([]float64, 9), make([]float64, 9)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	var f LU
	if err := f.Refactor(a); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := f.Refactor(b); err != nil {
			t.Fatal(err)
		}
		if err := f.SolveTo(x, rhs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("same-size Refactor + SolveTo: %g allocations per run, want 0", n)
	}
	if res, err := Residual(b, x, rhs); err != nil || res > 1e-9 {
		t.Errorf("reused factorization: residual %g, err %v", res, err)
	}

	c := randomDiagDominant(rng, 4)
	if err := f.Refactor(c); err != nil {
		t.Fatal(err)
	}
	small := []float64{1, -2, 3, -4}
	y := make([]float64, 4)
	if err := f.SolveTo(y, small); err != nil {
		t.Fatalf("SolveTo after resizing to 4: %v", err)
	}
	if res, err := Residual(c, y, small); err != nil || res > 1e-9 {
		t.Errorf("resized factorization: residual %g, err %v", res, err)
	}
}

// TestRefactorMatchesFactorize checks that a reused LU gives the same
// bits as a fresh Factorize/Solve, pivoting included, so callers may
// switch between them without changing any output.
func TestRefactorMatchesFactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var f LU
	x := make([]float64, 12)
	for trial := 0; trial < 20; trial++ {
		a := randomDiagDominant(rng, 12)
		// Scramble the rows so partial pivoting has to swap.
		for i := 11; i > 0; i-- {
			j := rng.Intn(i + 1)
			for k := 0; k < 12; k++ {
				vi, vj := a.At(i, k), a.At(j, k)
				a.Set(i, k, vj)
				a.Set(j, k, vi)
			}
		}
		b := make([]float64, 12)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		// Solve factors a copy in place, Refactor factors into its own
		// storage: the bits must not depend on which.
		want, err := Solve(a.Clone(), b)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Factorize(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Refactor(a); err != nil {
			t.Fatal(err)
		}
		if err := f.SolveTo(x, b); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: x[%d] = %v via Refactor/SolveTo, %v via Solve", trial, i, x[i], want[i])
			}
		}
		if math.Float64bits(f.Det()) != math.Float64bits(fresh.Det()) {
			t.Fatalf("trial %d: det %v via Refactor, %v via Factorize", trial, f.Det(), fresh.Det())
		}
	}
}

func TestRefactorSingular(t *testing.T) {
	a := mustMatrix(t, 2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	var f LU
	if err := f.Refactor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular Refactor: want ErrSingular, got %v", err)
	}
	// A failed factorization does not poison the next one.
	if err := f.Refactor(mustIdentity(t, 2)); err != nil {
		t.Fatalf("Refactor after a singular matrix: %v", err)
	}
	x := make([]float64, 2)
	if err := f.SolveTo(x, []float64{5, 7}); err != nil || !testutil.Approx(x[0], 5) || !testutil.Approx(x[1], 7) {
		t.Errorf("identity solve after recovery: x = %v, err %v", x, err)
	}
}

func TestSolveToShapeErrors(t *testing.T) {
	f, err := Factorize(mustIdentity(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	ok := []float64{1, 2, 3}
	if err := f.SolveTo(make([]float64, 2), ok); !errors.Is(err, ErrShape) {
		t.Errorf("SolveTo short x: want ErrShape, got %v", err)
	}
	if err := f.SolveTo(make([]float64, 3), []float64{1, 2, 3, 4}); !errors.Is(err, ErrShape) {
		t.Errorf("SolveTo long b: want ErrShape, got %v", err)
	}
}
