package linalg

import (
	"fmt"
	"math"
)

// CholFactor is a cached Cholesky factorization of a symmetric positive
// definite matrix, prepared once and reused across many solves — the shape
// of the template-attack hot path, where one pooled covariance is solved
// against every classified sub-trace. Besides the lower factor L it keeps a
// row-major copy of L^T (so back substitution walks memory sequentially
// instead of striding down a column), the diagonal, and the log-determinant.
//
// Every solve performs exactly the floating-point operations of
// SolveCholesky in the same order, so results are bitwise identical to a
// fresh factor-and-solve; the caching is purely a throughput optimization.
type CholFactor struct {
	n      int
	lower  []float64 // row-major n×n lower-triangular factor L
	upper  []float64 // row-major n×n L^T: row i holds column i of L
	diag   []float64
	logDet float64
}

// NewCholFactor factors m (symmetric positive definite) and prepares the
// cached solve structures.
func NewCholFactor(m *Matrix) (*CholFactor, error) {
	l, err := Cholesky(m)
	if err != nil {
		return nil, err
	}
	return CholFactorOf(l), nil
}

// CholFactorOf wraps an existing lower-triangular Cholesky factor (as
// produced by Cholesky) without re-factoring.
func CholFactorOf(l *Matrix) *CholFactor {
	n := l.Rows
	f := &CholFactor{
		n:     n,
		lower: append([]float64(nil), l.Data...),
		upper: make([]float64, n*n),
		diag:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		f.diag[i] = l.Data[i*n+i]
		f.logDet += 2 * math.Log(f.diag[i])
		for k := 0; k <= i; k++ {
			f.upper[k*n+i] = l.Data[i*n+k]
		}
	}
	return f
}

// N returns the dimension of the factored matrix.
func (f *CholFactor) N() int { return f.n }

// LogDet returns log(det(m)) of the factored matrix.
func (f *CholFactor) LogDet() float64 { return f.logDet }

// Lower returns a copy of the lower-triangular factor as a Matrix.
func (f *CholFactor) Lower() *Matrix {
	m := NewMatrix(f.n, f.n)
	copy(m.Data, f.lower)
	return m
}

// ForwardInto solves L y = b by forward substitution into the
// caller-owned y, i.e. y = L⁻¹b. This is the whitening transform of the
// factored covariance m = L Lᵀ: for any u, v the Mahalanobis form
// (u−v)ᵀ m⁻¹ (u−v) equals ‖L⁻¹u − L⁻¹v‖². y and b must have length n and
// y may not alias b. The arithmetic is the first half of SolveInto.
func (f *CholFactor) ForwardInto(y, b []float64) error {
	n := f.n
	if len(b) != n {
		return fmt.Errorf("linalg: rhs length %d, want %d", len(b), n)
	}
	if len(y) != n {
		return fmt.Errorf("linalg: forward buffer %d, want %d", len(y), n)
	}
	for i := 0; i < n; i++ {
		s := b[i]
		row := f.lower[i*n : i*n+i]
		for k, v := range row {
			s -= v * y[k]
		}
		y[i] = s / f.diag[i]
	}
	return nil
}

// SolveInto solves m x = b into caller-owned buffers: x receives the
// solution, y is forward-substitution scratch. x, y and b must all have
// length n (x and y may not alias b). No allocation happens on this path,
// and the arithmetic matches SolveCholesky operation for operation.
func (f *CholFactor) SolveInto(x, y, b []float64) error {
	n := f.n
	if len(b) != n {
		return fmt.Errorf("linalg: rhs length %d, want %d", len(b), n)
	}
	if len(x) != n || len(y) != n {
		return fmt.Errorf("linalg: solve buffers %d/%d, want %d", len(x), len(y), n)
	}
	// Forward substitution L y = b.
	_ = f.ForwardInto(y, b) // shapes checked above: cannot fail
	// Back substitution L^T x = y, reading L^T rows sequentially.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		row := f.upper[i*n+i+1 : (i+1)*n]
		for k, v := range row {
			s -= v * x[i+1+k]
		}
		x[i] = s / f.diag[i]
	}
	return nil
}

// Solve solves m x = b, allocating fresh buffers.
func (f *CholFactor) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	y := make([]float64, f.n)
	if err := f.SolveInto(x, y, b); err != nil {
		return nil, err
	}
	return x, nil
}

// Inverse returns m^-1, computed column by column through the cached
// factor. Intended for train-time precomputation (the inverse covariance a
// template serializes), not for per-classification use.
func (f *CholFactor) Inverse() *Matrix {
	n := f.n
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	x := make([]float64, n)
	y := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		// The factor is known-good, buffers are sized: SolveInto cannot fail.
		_ = f.SolveInto(x, y, e)
		for i := 0; i < n; i++ {
			inv.Set(i, j, x[i])
		}
		e[j] = 0
	}
	return inv
}
