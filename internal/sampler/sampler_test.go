package sampler

import (
	"math"
	"testing"

	"reveal/internal/modular"
)

func TestXoshiroDeterminism(t *testing.T) {
	a := NewXoshiro256(42)
	b := NewXoshiro256(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewXoshiro256(43)
	same := 0
	a = NewXoshiro256(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	p := NewXoshiro256(1)
	for i := 0; i < 10000; i++ {
		f := Float64(p)
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestUint64Below(t *testing.T) {
	p := NewXoshiro256(2)
	counts := make([]int, 5)
	const draws = 50000
	for i := 0; i < draws; i++ {
		v := Uint64Below(p, 5)
		if v >= 5 {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		// Expect ~10000 each; allow 5 sigma ≈ ±450.
		if c < 9500 || c > 10500 {
			t.Errorf("value %d drawn %d times, expected ~10000", v, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("zero bound should panic")
		}
	}()
	Uint64Below(p, 0)
}

func TestClippedNormalValidation(t *testing.T) {
	if _, err := NewClippedNormal(0, 1); err == nil {
		t.Error("sigma 0 should fail")
	}
	if _, err := NewClippedNormal(-1, 1); err == nil {
		t.Error("negative sigma should fail")
	}
	if _, err := NewClippedNormal(math.NaN(), 1); err == nil {
		t.Error("NaN sigma should fail")
	}
	if _, err := NewClippedNormal(3, 1); err == nil {
		t.Error("maxDev < sigma should fail")
	}
	cn := DefaultClippedNormal()
	if math.Abs(cn.Sigma-3.1915) > 0.001 {
		t.Errorf("default sigma %v, want ≈3.19 (=8/sqrt(2π))", cn.Sigma)
	}
	if got := math.Round(cn.MaxDeviation); got != 41 {
		t.Errorf("rounded MaxDeviation=%v, want 41 per the paper", got)
	}
}

func TestClippedNormalBounds(t *testing.T) {
	cn := DefaultClippedNormal()
	p := NewXoshiro256(3)
	for i := 0; i < 100000; i++ {
		v, meta := cn.Sample(p)
		if v < -41 || v > 41 {
			t.Fatalf("sample %d outside [-41, 41]", v)
		}
		if math.Abs(meta.Raw) > cn.MaxDeviation {
			t.Fatalf("raw %v above clip bound", meta.Raw)
		}
		if meta.Rejections < 0 {
			t.Fatal("negative rejection count")
		}
	}
}

func TestClippedNormalMoments(t *testing.T) {
	cn := DefaultClippedNormal()
	p := NewXoshiro256(4)
	const nSamples = 200000
	var sum, sumSq float64
	for i := 0; i < nSamples; i++ {
		v, _ := cn.Sample(p)
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	mean := sum / nSamples
	variance := sumSq/nSamples - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean %v should be ≈0", mean)
	}
	// Rounded continuous Gaussian: Var ≈ σ² + 1/12.
	wantVar := cn.Sigma*cn.Sigma + 1.0/12
	if math.Abs(variance-wantVar)/wantVar > 0.03 {
		t.Errorf("variance %v, want ≈%v", variance, wantVar)
	}
}

func TestClippedNormalObservedRange(t *testing.T) {
	// The paper observed values in [-14, 14] across 220k draws; the tails
	// beyond ±15 must be negligible but the clip bound must allow ±41.
	cn := DefaultClippedNormal()
	p := NewXoshiro256(5)
	over14 := 0
	const draws = 220000
	for i := 0; i < draws; i++ {
		v, _ := cn.Sample(p)
		if v > 14 || v < -14 {
			over14++
		}
	}
	if over14 > 20 {
		t.Errorf("%d of %d samples beyond ±14; paper observed none", over14, draws)
	}
}

func TestSamplePoly(t *testing.T) {
	cn := DefaultClippedNormal()
	p := NewXoshiro256(6)
	vals, metas := cn.SamplePoly(p, 1024)
	if len(vals) != 1024 || len(metas) != 1024 {
		t.Fatal("wrong lengths")
	}
	nonzero := 0
	for _, v := range vals {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 800 {
		t.Errorf("suspiciously many zeros: %d nonzero of 1024", nonzero)
	}
}

func TestTernaryPoly(t *testing.T) {
	p := NewXoshiro256(7)
	vals := TernaryPoly(p, 30000)
	counts := map[int64]int{}
	for _, v := range vals {
		if v < -1 || v > 1 {
			t.Fatalf("ternary out of range: %d", v)
		}
		counts[v]++
	}
	for v := int64(-1); v <= 1; v++ {
		if counts[v] < 9000 || counts[v] > 11000 {
			t.Errorf("value %d appeared %d times, want ~10000", v, counts[v])
		}
	}
}

func TestUniformPoly(t *testing.T) {
	p := NewXoshiro256(8)
	const q = 132120577
	vals := UniformPoly(p, 10000, q)
	var mean float64
	for _, v := range vals {
		if v >= q {
			t.Fatalf("uniform out of range: %d", v)
		}
		mean += float64(v)
	}
	mean /= float64(len(vals))
	if math.Abs(mean-q/2)/q > 0.02 {
		t.Errorf("uniform mean %v far from q/2", mean)
	}
}

func TestAssignSignedMatchesSpec(t *testing.T) {
	moduli := []uint64{132120577, 1152921504606584833}
	cases := []struct {
		noise  int64
		branch Branch
	}{
		{0, BranchZero}, {1, BranchPositive}, {41, BranchPositive},
		{-1, BranchNegative}, {-41, BranchNegative},
	}
	for _, c := range cases {
		out, br := AssignSigned(c.noise, moduli)
		if br != c.branch {
			t.Errorf("noise %d: branch %v want %v", c.noise, br, c.branch)
		}
		for j, q := range moduli {
			if got := modular.CenteredRep(out[j], q); got != c.noise {
				t.Errorf("noise %d mod %d: stored %d lifts to %d", c.noise, q, out[j], got)
			}
		}
	}
}

func TestNormFloat64Statistics(t *testing.T) {
	p := NewXoshiro256(10)
	var sum, sumSq float64
	totalRej := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v, rej := NormFloat64(p)
		sum += v
		sumSq += v * v
		totalRej += rej
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v", variance)
	}
	// Polar method rejects ~21.5% of pairs; the count must be plausible.
	rate := float64(totalRej) / float64(draws+totalRej)
	if rate < 0.15 || rate < 0.0 || rate > 0.30 {
		t.Errorf("rejection rate %v implausible for polar method", rate)
	}
}

func BenchmarkClippedNormalSample(b *testing.B) {
	cn := DefaultClippedNormal()
	p := NewXoshiro256(11)
	var v int64
	for i := 0; i < b.N; i++ {
		v, _ = cn.Sample(p)
	}
	sinkI64 = v
}

var sinkI64 int64
