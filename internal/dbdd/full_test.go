package dbdd

import (
	"math"
	"testing"
)

func fullTestInstance(t *testing.T) *FullInstance {
	t.Helper()
	in, err := NewFullLWEInstance(96, 96, 3329, 2.0/3.0, 2.56)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func diagTestInstance(t *testing.T) *Instance {
	t.Helper()
	in, err := NewLWEInstance(96, 96, 3329, 2.0/3.0, 2.56)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// With only coordinate hints, the dense and diagonal paths must agree.
func TestFullMatchesDiagonalOnCoordinateHints(t *testing.T) {
	full := fullTestInstance(t)
	diag := diagTestInstance(t)

	b1, err := full.EstimateBikz()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := diag.EstimateBikz()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b1-b2) > 0.01 {
		t.Fatalf("baseline mismatch: full %.4f vs diag %.4f", b1, b2)
	}

	// A few perfect hints on error coordinates.
	for _, c := range []int{96, 100, 120, 190} {
		if err := full.PerfectHint(c, 1); err != nil {
			t.Fatal(err)
		}
		if err := diag.PerfectHint(c, 1); err != nil {
			t.Fatal(err)
		}
	}
	// And approximate coordinate hints (vector form vs diagonal form).
	for _, c := range []int{97, 121} {
		v := make([]float64, 192)
		v[c] = 1
		if err := full.ApproximateHintVec(v, 0.5, 0.25); err != nil {
			t.Fatal(err)
		}
		if err := diag.ApproximateHint(c, 0.5, 0.25); err != nil {
			t.Fatal(err)
		}
	}
	b1, err = full.EstimateBikz()
	if err != nil {
		t.Fatal(err)
	}
	b2, err = diag.EstimateBikz()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b1-b2) > 0.05 {
		t.Errorf("hinted mismatch: full %.4f vs diag %.4f", b1, b2)
	}
	if full.dim != diag.dim {
		t.Errorf("dims diverged: %d vs %d", full.dim, diag.dim)
	}
	if len(full.coords) != 188 {
		t.Errorf("remaining=%d want 188", len(full.coords))
	}
}

// A hint along a non-axis direction must reduce hardness — something the
// diagonal instance cannot express.
func TestVectorHintReducesHardness(t *testing.T) {
	in := fullTestInstance(t)
	base, err := in.EstimateBikz()
	if err != nil {
		t.Fatal(err)
	}
	// Leak e_48 + e_49 (sum of two error coefficients) with small noise.
	v := make([]float64, 192)
	v[96], v[97] = 1, 1
	if err := in.ApproximateHintVec(v, 0, 0.01); err != nil {
		t.Fatal(err)
	}
	after, err := in.EstimateBikz()
	if err != nil {
		t.Fatal(err)
	}
	if after >= base {
		t.Errorf("vector hint did not reduce hardness: %.3f -> %.3f", base, after)
	}
	if in.nHints != 1 {
		t.Error("hint count wrong")
	}
}

// Conditioning on ⟨s,v⟩ must make a later identical hint nearly worthless
// (information is consumed once).
func TestRepeatedHintDiminishingReturns(t *testing.T) {
	in := fullTestInstance(t)
	v := make([]float64, 192)
	v[50], v[51] = 1, -1
	if err := in.ApproximateHintVec(v, 0.3, 0.1); err != nil {
		t.Fatal(err)
	}
	first, err := in.EstimateBikz()
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ApproximateHintVec(v, 0.3, 0.1); err != nil {
		t.Fatal(err)
	}
	second, err := in.EstimateBikz()
	if err != nil {
		t.Fatal(err)
	}
	if first-second > 0.5 {
		t.Errorf("second identical hint gained too much: %.3f -> %.3f", first, second)
	}
}

func TestFullInstanceValidation(t *testing.T) {
	in := fullTestInstance(t)
	if err := in.PerfectHint(999, 0); err == nil {
		t.Error("unknown coordinate should fail")
	}
	if err := in.PerfectHint(96, 1); err != nil {
		t.Fatal(err)
	}
	if err := in.PerfectHint(96, 1); err == nil {
		t.Error("double elimination should fail")
	}
	v := make([]float64, 192)
	v[96] = 1 // eliminated
	if err := in.ApproximateHintVec(v, 0, 0.1); err == nil {
		t.Error("hint touching an eliminated coordinate should fail")
	}
	zero := make([]float64, 192)
	if err := in.ApproximateHintVec(zero, 0, 0.1); err == nil {
		t.Error("zero direction should fail")
	}
	if err := in.ApproximateHintVec(v, 0, 0); err == nil {
		t.Error("zero hint variance should fail for vector hints")
	}
	if _, err := NewFullLWEInstance(0, 1, 7, 1, 1); err == nil {
		t.Error("invalid dimensions should fail")
	}
}

// Perfect hints with correlations: after conditioning on a correlated
// coordinate, the means of the others must move.
func TestPerfectHintUpdatesCorrelatedMeans(t *testing.T) {
	in := fullTestInstance(t)
	// Correlate coordinates 10 and 11 via a vector hint on their sum.
	v := make([]float64, 192)
	v[10], v[11] = 1, 1
	if err := in.ApproximateHintVec(v, 2, 0.01); err != nil {
		t.Fatal(err)
	}
	// Σ now has off-diagonal (10,11) < 0.
	i10, err := in.indexOf(10)
	if err != nil {
		t.Fatal(err)
	}
	i11, err := in.indexOf(11)
	if err != nil {
		t.Fatal(err)
	}
	if in.Sigma.At(i10, i11) >= 0 {
		t.Fatalf("expected negative correlation, got %v", in.Sigma.At(i10, i11))
	}
	// Conditioning coordinate 10 on a high value must pull 11's mean down.
	before := in.Mu[i11]
	if err := in.PerfectHint(10, 3); err != nil {
		t.Fatal(err)
	}
	i11, err = in.indexOf(11)
	if err != nil {
		t.Fatal(err)
	}
	if !(in.Mu[i11] < before) {
		t.Errorf("mean of correlated coordinate did not decrease: %v -> %v", before, in.Mu[i11])
	}
}
