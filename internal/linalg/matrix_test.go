package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

func TestMulIdentity(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	id := Identity(3)
	got, err := m.Mul(id)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(m, got) != 0 {
		t.Errorf("m*I != m: %v", got.Data)
	}
	if _, err := m.Mul(Identity(2)); err == nil {
		t.Error("shape mismatch should fail")
	}
}

func TestMulKnown(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	if MaxAbsDiff(got, want) > 1e-12 {
		t.Errorf("got %v want %v", got.Data, want.Data)
	}
}

func TestScale(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	if MaxAbsDiff(a.Scale(2), fromRows([][]float64{{2, 4}, {6, 8}})) != 0 {
		t.Error("Scale wrong")
	}
}

func TestTransposeInvolution(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return MaxAbsDiff(m.Transpose().Transpose(), m) == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMulVec(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got, err := m.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MulVec got %v", got)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestIsSymmetric(t *testing.T) {
	s := fromRows([][]float64{{2, 1}, {1, 3}})
	if !s.IsSymmetric(0) {
		t.Error("should be symmetric")
	}
	a := fromRows([][]float64{{2, 1}, {0, 3}})
	if a.IsSymmetric(0.5) {
		t.Error("should not be symmetric")
	}
	if fromRows([][]float64{{1, 2, 3}}).IsSymmetric(0) {
		t.Error("non-square is never symmetric")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone must be deep")
	}
}

func TestMaxAbsDiffShapeMismatch(t *testing.T) {
	if !math.IsInf(MaxAbsDiff(Identity(2), Identity(3)), 1) {
		t.Error("shape mismatch should give +Inf")
	}
}
