package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds a random symmetric positive definite matrix A A^T + I.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	at := a.Transpose()
	spd, _ := a.Mul(at)
	return RegularizeSPD(spd, 1)
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 20} {
		m := randomSPD(rng, n)
		l, err := Cholesky(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		lt := l.Transpose()
		recon, _ := l.Mul(lt)
		if d := MaxAbsDiff(recon, m); d > 1e-9*float64(n) {
			t.Errorf("n=%d: reconstruction error %g", n, d)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(m); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("want ErrNotPositiveDefinite, got %v", err)
	}
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Error("non-square should fail")
	}
}

func TestLogDetSPD(t *testing.T) {
	m := fromRows([][]float64{{4, 0}, {0, 9}})
	ld, err := LogDetSPD(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ld-math.Log(36)) > 1e-12 {
		t.Errorf("logdet=%v want %v", ld, math.Log(36))
	}
	// Tiny determinant must not underflow to -Inf erroneously.
	tiny := Identity(100).Scale(1e-30)
	ld, err = LogDetSPD(tiny)
	if err != nil {
		t.Fatal(err)
	}
	want := 100 * math.Log(1e-30)
	if math.Abs(ld-want) > 1e-6*math.Abs(want) {
		t.Errorf("tiny logdet=%v want %v", ld, want)
	}
}

func TestSolveCholeskyAgainstLU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 3, 10} {
		m := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		l, err := Cholesky(m)
		if err != nil {
			t.Fatal(err)
		}
		x1, err := SolveCholesky(l, b)
		if err != nil {
			t.Fatal(err)
		}
		x2, err := Solve(m, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-8 {
				t.Errorf("n=%d: solutions disagree at %d: %v vs %v", n, i, x1[i], x2[i])
			}
		}
		if _, err := SolveCholesky(l, make([]float64, n+1)); err == nil {
			t.Error("rhs length mismatch should fail")
		}
	}
}

func TestLUSolveResidual(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(m, b)
		if err != nil {
			// Singular random matrices are measure-zero; accept the error path.
			return errors.Is(err, ErrSingular)
		}
		ax, _ := m.MulVec(x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDetKnown(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	d, err := Det(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-(-2)) > 1e-12 {
		t.Errorf("det=%v want -2", d)
	}
	sing := fromRows([][]float64{{1, 2}, {2, 4}})
	d, err = Det(sing)
	if err != nil || d != 0 {
		t.Errorf("singular det=%v err=%v want 0, nil", d, err)
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 6} {
		m := randomSPD(rng, n)
		inv, err := Inverse(m)
		if err != nil {
			t.Fatal(err)
		}
		prod, _ := m.Mul(inv)
		if d := MaxAbsDiff(prod, Identity(n)); d > 1e-8 {
			t.Errorf("n=%d: m*m^-1 differs from I by %g", n, d)
		}
	}
	sing := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Inverse(sing); !errors.Is(err, ErrSingular) {
		t.Errorf("singular inverse: want ErrSingular, got %v", err)
	}
	if _, err := NewLU(NewMatrix(2, 3)); err == nil {
		t.Error("non-square LU should fail")
	}
}

func TestDetSignFromPivoting(t *testing.T) {
	// A permutation matrix with one swap has determinant -1.
	m := fromRows([][]float64{{0, 1}, {1, 0}})
	d, err := Det(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-(-1)) > 1e-12 {
		t.Errorf("det(swap)=%v want -1", d)
	}
}

func TestRegularizeSPD(t *testing.T) {
	m := NewMatrix(2, 2)
	RegularizeSPD(m, 0.5)
	if m.At(0, 0) != 0.5 || m.At(1, 1) != 0.5 || m.At(0, 1) != 0 {
		t.Errorf("RegularizeSPD wrong: %v", m.Data)
	}
}

func TestEigSymDiagonal(t *testing.T) {
	m := fromRows([][]float64{{3, 0}, {0, 1}})
	vals, vecs, err := EigSym(m, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Errorf("eigenvalues=%v", vals)
	}
	if math.Abs(math.Abs(vecs.At(0, 0))-1) > 1e-9 {
		t.Errorf("first eigenvector=%v", vecs.Data)
	}
}

func TestEigSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{2, 5, 12} {
		m := randomSPD(rng, n)
		vals, vecs, err := EigSym(m, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct V diag(λ) Vᵀ.
		d := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, vals[i])
			if vals[i] <= 0 {
				t.Errorf("SPD matrix has non-positive eigenvalue %v", vals[i])
			}
			if i > 0 && vals[i] > vals[i-1]+1e-12 {
				t.Error("eigenvalues not sorted descending")
			}
		}
		vd, _ := vecs.Mul(d)
		recon, _ := vd.Mul(vecs.Transpose())
		if diff := MaxAbsDiff(recon, m); diff > 1e-8*float64(n) {
			t.Errorf("n=%d: reconstruction error %g", n, diff)
		}
		// Orthonormal eigenvectors: VᵀV = I.
		vtv, _ := vecs.Transpose().Mul(vecs)
		if diff := MaxAbsDiff(vtv, Identity(n)); diff > 1e-9*float64(n) {
			t.Errorf("n=%d: eigenvectors not orthonormal (%g)", n, diff)
		}
	}
}

func TestEigSymMatchesDeterminantAndTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := randomSPD(rng, 6)
	vals, _, err := EigSym(m, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	prodEig, sumEig := 1.0, 0.0
	for _, v := range vals {
		prodEig *= v
		sumEig += v
	}
	det, err := Det(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(det-prodEig)/math.Abs(det) > 1e-8 {
		t.Errorf("det %v vs eigen product %v", det, prodEig)
	}
	tr := 0.0
	for i := 0; i < 6; i++ {
		tr += m.At(i, i)
	}
	if math.Abs(tr-sumEig) > 1e-8*math.Abs(tr) {
		t.Errorf("trace %v vs eigen sum %v", tr, sumEig)
	}
}

func TestEigSymValidation(t *testing.T) {
	if _, _, err := EigSym(NewMatrix(2, 3), 0, 0); err == nil {
		t.Error("non-square should fail")
	}
	asym := fromRows([][]float64{{1, 5}, {0, 1}})
	if _, _, err := EigSym(asym, 0, 0); err == nil {
		t.Error("asymmetric should fail")
	}
}
