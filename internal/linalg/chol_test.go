package linalg

import (
	"math"
	"testing"
)

// seededSPD builds a deterministic symmetric positive definite matrix:
// A A^T + n·I over a cheap LCG fill.
func seededSPD(n int, seed uint64) *Matrix {
	a := NewMatrix(n, n)
	s := seed
	for i := range a.Data {
		s = s*6364136223846793005 + 1442695040888963407
		a.Data[i] = float64(int64(s>>33))/float64(1<<30) - 0.5
	}
	at := a.Transpose()
	spd, err := a.Mul(at)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n))
	}
	return spd
}

func seededVec(n int, seed uint64) []float64 {
	v := make([]float64, n)
	s := seed
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = float64(int64(s>>33)) / float64(1<<31)
	}
	return v
}

// newCholFactor factors m and wraps the factor, the way the template
// trainer does.
func newCholFactor(m *Matrix) (*CholFactor, error) {
	l, err := Cholesky(m)
	if err != nil {
		return nil, err
	}
	return CholFactorOf(l), nil
}

// solve solves m x = b through f with fresh buffers.
func solve(f *CholFactor, b []float64) ([]float64, error) {
	x, y := make([]float64, f.n), make([]float64, f.n)
	if err := f.SolveInto(x, y, b); err != nil {
		return nil, err
	}
	return x, nil
}

// TestCholFactorSolveBitwiseIdentical: the cached factor's solve must agree
// with a fresh Cholesky + SolveCholesky to exact float equality — the
// determinism contract the template scorer and the replay selftest rely on.
func TestCholFactorSolveBitwiseIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 12, 24, 33} {
		m := seededSPD(n, uint64(n)*977)
		l, err := Cholesky(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		f, err := newCholFactor(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for rep := 0; rep < 3; rep++ {
			b := seededVec(n, uint64(n*100+rep))
			want, err := SolveCholesky(l, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := solve(f, b)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, n)
			y := make([]float64, n)
			if err := f.SolveInto(x, y, b); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("n=%d rep=%d: Solve[%d] = %x, want %x", n, rep, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
				if math.Float64bits(want[i]) != math.Float64bits(x[i]) {
					t.Fatalf("n=%d rep=%d: SolveInto[%d] = %x, want %x", n, rep, i,
						math.Float64bits(x[i]), math.Float64bits(want[i]))
				}
			}
		}
		// The cached log-determinant must match the per-index accumulation
		// the template trainer historically used.
		wantLD := 0.0
		for i := 0; i < n; i++ {
			wantLD += 2 * math.Log(l.At(i, i))
		}
		if math.Float64bits(f.LogDet()) != math.Float64bits(wantLD) {
			t.Fatalf("n=%d: LogDet %v, want %v", n, f.LogDet(), wantLD)
		}
	}
}

func TestCholFactorSolveShapeErrors(t *testing.T) {
	f, err := newCholFactor(seededSPD(4, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solve(f, make([]float64, 5)); err == nil {
		t.Fatal("want rhs length error")
	}
	if err := f.SolveInto(make([]float64, 3), make([]float64, 4), make([]float64, 4)); err == nil {
		t.Fatal("want buffer length error")
	}
	if _, err := newCholFactor(NewMatrix(3, 3)); err == nil {
		t.Fatal("want not-positive-definite error for the zero matrix")
	}
}

func TestCholFactorInverse(t *testing.T) {
	for _, n := range []int{1, 4, 12} {
		m := seededSPD(n, uint64(n)+5)
		f, err := newCholFactor(m)
		if err != nil {
			t.Fatal(err)
		}
		inv := f.Inverse()
		prod, err := m.Mul(inv)
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxAbsDiff(prod, Identity(n)); d > 1e-9 {
			t.Fatalf("n=%d: |m·inv − I| = %g", n, d)
		}
		// Against the LU-based general inverse.
		luInv, err := Inverse(m)
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxAbsDiff(inv, luInv); d > 1e-9 {
			t.Fatalf("n=%d: Cholesky inverse deviates from LU inverse by %g", n, d)
		}
	}
}

// TestMulBlockedMatchesNaive: the blocked product must match the naive
// i-k-j accumulation bit for bit, including the zero-skip semantics.
func TestMulBlockedMatchesNaive(t *testing.T) {
	for _, shape := range [][3]int{{1, 1, 1}, {3, 4, 5}, {12, 12, 12}, {9, 70, 6}, {5, 130, 7}} {
		ra, ca, cb := shape[0], shape[1], shape[2]
		a := NewMatrix(ra, ca)
		b := NewMatrix(ca, cb)
		s := uint64(ra*7 + ca*11 + cb)
		fill := func(m *Matrix) {
			for i := range m.Data {
				s = s*6364136223846793005 + 1442695040888963407
				if s%17 == 0 {
					m.Data[i] = 0 // exercise the zero-skip path
					continue
				}
				m.Data[i] = float64(int64(s>>33)) / float64(1<<31)
			}
		}
		fill(a)
		fill(b)
		want := NewMatrix(ra, cb)
		for i := 0; i < ra; i++ {
			for k := 0; k < ca; k++ {
				av := a.At(i, k)
				if av == 0 {
					continue
				}
				for j := 0; j < cb; j++ {
					want.Set(i, j, want.At(i, j)+av*b.At(k, j))
				}
			}
		}
		got, err := a.Mul(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("%v: Mul data[%d] = %x, want %x", shape, i,
					math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
	}
}

// TestCholFactorForwardInto: ForwardInto is the forward half of SolveInto
// bit for bit, and whitening preserves the Mahalanobis form:
// (u−v)ᵀ m⁻¹ (u−v) = ‖L⁻¹u − L⁻¹v‖².
func TestCholFactorForwardInto(t *testing.T) {
	for _, n := range []int{1, 2, 3, 12, 28} {
		m := seededSPD(n, uint64(n)*31)
		f, err := newCholFactor(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		u, v := seededVec(n, uint64(n)+1), seededVec(n, uint64(n)+2)
		x, y, w := make([]float64, n), make([]float64, n), make([]float64, n)
		if err := f.SolveInto(x, y, u); err != nil {
			t.Fatal(err)
		}
		if err := f.ForwardInto(w, u); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Float64bits(w[i]) != math.Float64bits(y[i]) {
				t.Fatalf("n=%d: ForwardInto[%d] = %v, SolveInto forward half %v", n, i, w[i], y[i])
			}
		}
		d := make([]float64, n)
		for i := range d {
			d[i] = u[i] - v[i]
		}
		md, err := solve(f, d)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for i := range d {
			want += d[i] * md[i]
		}
		wv := make([]float64, n)
		if err := f.ForwardInto(wv, v); err != nil {
			t.Fatal(err)
		}
		got := 0.0
		for i := range w {
			e := w[i] - wv[i]
			got += e * e
		}
		if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Fatalf("n=%d: whitened distance %v, Mahalanobis %v", n, got, want)
		}
	}
	f, err := newCholFactor(seededSPD(4, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ForwardInto(make([]float64, 4), make([]float64, 5)); err == nil {
		t.Fatal("want rhs length error")
	}
	if err := f.ForwardInto(make([]float64, 3), make([]float64, 4)); err == nil {
		t.Fatal("want buffer length error")
	}
}
