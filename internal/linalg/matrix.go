// Package linalg provides the small dense linear-algebra kernel used by
// the lumped-element network solver and the finite-difference
// cross-section solver.
//
// The Go standard library has no numeric linear algebra, and the OoC
// designer needs to solve the nodal-analysis systems arising from
// Kirchhoff's laws (tens of unknowns, dense-ish) as well as large
// sparse grid systems for the cross-section Poisson solve (handled by
// the iterative SOR solver in this package). Everything here is written
// from scratch against the stdlib only.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible dimensions")

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-initialized r×c matrix. Non-positive
// dimensions are reported as an error wrapping ErrShape — like every
// other constructor in this package — rather than a panic, so a bad
// size computed from untrusted design input cannot crash a server or
// a long batch run.
func NewMatrix(r, c int) (*Matrix, error) {
	if r <= 0 || c <= 0 {
		return nil, fmt.Errorf("%w: invalid matrix size %dx%d", ErrShape, r, c)
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) (*Matrix, error) {
	m, err := NewMatrix(n, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add adds v to the element at row i, column j. Nodal-analysis stamping
// is naturally additive, so this is the hot path when assembling
// conductance matrices.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, data: make([]float64, len(m.data))}
	copy(c.data, m.data)
	return c
}

// MulVec computes y = A·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("%w: %dx%d by vector of length %d", ErrShape, m.rows, m.cols, len(x))
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// MaxAbs returns the largest absolute entry (the max-norm of the matrix
// viewed as a vector).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// LU holds an LU factorization with partial pivoting: P·A = L·U.
// The zero value holds no factorization; Refactor fills it, so one LU
// can be refactored over and over without allocating.
type LU struct {
	lu   *Matrix
	piv  []int
	sign int
}

// Factorize computes the LU factorization of the square matrix a with
// partial pivoting. The input is not modified.
func Factorize(a *Matrix) (*LU, error) {
	f := &LU{}
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor computes the LU factorization of the square matrix a with
// partial pivoting into f, replacing whatever f held. The input is not
// modified. f's storage is reused when a has the size of the previous
// factorization, so refactoring same-size matrices allocates nothing.
// After an error f holds no usable factorization until the next
// successful Refactor.
func (f *LU) Refactor(a *Matrix) error {
	if a.rows != a.cols {
		return fmt.Errorf("%w: LU of %dx%d", ErrShape, a.rows, a.cols)
	}
	if f.lu == nil || f.lu.rows != a.rows {
		f.lu = a.Clone()
		f.piv = make([]int, a.rows)
	} else {
		copy(f.lu.data, a.data)
	}
	return f.factor()
}

// factor overwrites f.lu, a square matrix, with its LU factors and
// fills f.piv and f.sign.
func (f *LU) factor() error {
	lu, piv := f.lu, f.piv
	n := lu.rows
	for i := range piv {
		piv[i] = i
	}
	f.sign = 1
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest entry in column k.
		p, mx := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > mx {
				p, mx = i, a
			}
		}
		if mx == 0 {
			return fmt.Errorf("%w: zero pivot in column %d", ErrSingular, k)
		}
		if p != k {
			rk := lu.data[k*n : (k+1)*n]
			rp := lu.data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			f.sign = -f.sign
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			l := lu.At(i, k) / pivVal
			lu.Set(i, k, l)
			if l == 0 {
				continue
			}
			ri := lu.data[i*n : (i+1)*n]
			rk := lu.data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= l * rk[j]
			}
		}
	}
	return nil
}

// Solve solves A·x = b using the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.lu.rows)
	if err := f.SolveTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveTo solves A·x = b using the factorization, writing the solution
// into x without allocating. x and b must both have the system's size
// and must not share storage.
func (f *LU) SolveTo(x, b []float64) error {
	n := f.lu.rows
	if len(x) != n || len(b) != n {
		return fmt.Errorf("%w: system of size %d, solution of length %d, rhs of length %d", ErrShape, n, len(x), len(b))
	}
	// Apply the permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		row := f.lu.data[i*n : (i+1)*n]
		var s float64
		for j := 0; j < i; j++ {
			s += row[j] * x[j]
		}
		x[i] -= s
	}
	// Backward substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.data[i*n : (i+1)*n]
		var s float64
		for j := i + 1; j < n; j++ {
			s += row[j] * x[j]
		}
		d := row[i]
		if d == 0 {
			return ErrSingular
		}
		x[i] = (x[i] - s) / d
	}
	return nil
}

// Det returns the determinant of the factorized matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve solves the square system A·x = b in one call. It factors a in
// place, without copying it: afterwards a holds the LU factors (or, after
// an error, a partial elimination), not A.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: LU of %dx%d", ErrShape, a.rows, a.cols)
	}
	f := &LU{lu: a, piv: make([]int, a.rows)}
	if err := f.factor(); err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Residual returns the max-norm of A·x − b, a cheap a-posteriori check
// the tests run on solutions.
func Residual(a *Matrix, x, b []float64) (float64, error) {
	ax, err := a.MulVec(x)
	if err != nil {
		return 0, err
	}
	if len(b) != len(ax) {
		return 0, ErrShape
	}
	var mx float64
	for i := range ax {
		if r := math.Abs(ax[i] - b[i]); r > mx {
			mx = r
		}
	}
	return mx, nil
}
