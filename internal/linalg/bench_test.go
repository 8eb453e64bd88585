package linalg

import "testing"

// Layer benchmarks for the dense kernels on the template-attack hot path:
// matrix product (covariance work) and the Cholesky solve (Mahalanobis
// distances), cached versus fresh.
//
//	go test -bench . ./internal/linalg

func benchmarkMul(b *testing.B, n int) {
	a := seededSPD(n, 1)
	c := seededSPD(n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Mul(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMul12(b *testing.B)  { benchmarkMul(b, 12) }
func BenchmarkMul128(b *testing.B) { benchmarkMul(b, 128) }

// BenchmarkSolveFresh is the pre-optimization scoring pattern: factor and
// allocate on every solve.
func BenchmarkSolveFresh(b *testing.B) {
	m := seededSPD(24, 5)
	rhs := seededVec(24, 6)
	l, err := Cholesky(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveCholesky(l, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveCached is the cached-factor path with reusable buffers.
func BenchmarkSolveCached(b *testing.B) {
	m := seededSPD(24, 5)
	rhs := seededVec(24, 6)
	f, err := newCholFactor(m)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 24)
	y := make([]float64, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.SolveInto(x, y, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskyFactor24(b *testing.B) {
	m := seededSPD(24, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(m); err != nil {
			b.Fatal(err)
		}
	}
}
