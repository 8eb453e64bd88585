package sca

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"reveal/internal/trace"
)

// syntheticSet builds a two-class set whose means separate only at sample
// `leakAt`, with Gaussian noise of the given sigma everywhere.
func syntheticSet(n, length, leakAt int, sep, sigma float64, rng *rand.Rand) *trace.Set {
	set := &trace.Set{}
	for i := 0; i < n; i++ {
		label := i % 2
		tr := make(trace.Trace, length)
		for s := range tr {
			tr[s] = rng.NormFloat64() * sigma
		}
		tr[leakAt] += float64(label) * sep
		set.Append(tr, label)
	}
	return set
}

func TestSNRPeaksAtLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	set := syntheticSet(200, 32, 11, 4.0, 0.5, rng)
	snr, err := SNR(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(snr) != 32 {
		t.Fatalf("SNR length = %d, want 32", len(snr))
	}
	argmax := 0
	for i, v := range snr {
		if v > snr[argmax] {
			argmax = i
		}
	}
	if argmax != 11 {
		t.Fatalf("SNR argmax = %d, want 11 (curve %v)", argmax, snr)
	}
	// sep=4σ·0.5... signal variance ≈ (sep/2)² = 4, noise ≈ 0.25 → SNR ≫ 1.
	if snr[11] < 4 {
		t.Fatalf("SNR at leak = %v, want > 4", snr[11])
	}
	if snr[3] > 0.5 {
		t.Fatalf("SNR off leak = %v, want ≈ 0", snr[3])
	}
}

func TestSNRRejectsSingleClass(t *testing.T) {
	set := &trace.Set{}
	set.Append(trace.Trace{1, 2}, 0)
	set.Append(trace.Trace{1, 2}, 0)
	if _, err := SNR(set); err == nil {
		t.Fatal("single-class set must be rejected")
	}
}

func TestSummarizeCurve(t *testing.T) {
	s := SummarizeCurve([]float64{0.5, 6.0, 1.0, 5.0}, 4.5, false)
	if s.Max != 6.0 || s.ArgMax != 1 {
		t.Fatalf("max=%v argmax=%d", s.Max, s.ArgMax)
	}
	if s.AboveThreshold != 2 {
		t.Fatalf("above = %d, want 2", s.AboveThreshold)
	}
	if math.Abs(s.Mean-3.125) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Curve != nil {
		t.Fatal("curve must be omitted unless requested")
	}
	if s = SummarizeCurve([]float64{1, 2}, 0, true); len(s.Curve) != 2 {
		t.Fatalf("kept curve = %v", s.Curve)
	}
	// All-negative curves must still report the true max via the i==0 seed.
	if s = SummarizeCurve([]float64{-3, -1, -2}, 0, false); s.Max != -1 || s.ArgMax != 1 {
		t.Fatalf("negative curve max=%v argmax=%d", s.Max, s.ArgMax)
	}
}

func TestTTestPairDetectsLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	set := syntheticSet(400, 16, 5, 2.0, 0.3, rng)
	p, err := TTestPair(set, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Leaky {
		t.Fatalf("separated classes must be leaky: %+v", p)
	}
	if p.Summary.ArgMax != 5 {
		t.Fatalf("t-test argmax = %d, want 5", p.Summary.ArgMax)
	}
	if p.Summary.Threshold != TVLATTestThreshold {
		t.Fatalf("threshold = %v", p.Summary.Threshold)
	}

	// Identically-distributed classes: no leak.
	flat := &trace.Set{}
	for i := 0; i < 400; i++ {
		flat.Append(trace.Trace{rng.NormFloat64(), rng.NormFloat64()}, i%2)
	}
	if p, err = TTestPair(flat, 0, 1, false); err != nil {
		t.Fatal(err)
	} else if p.Leaky {
		t.Fatalf("iid classes must not be leaky: %+v", p)
	}
}

func TestOverlapPOIs(t *testing.T) {
	shared, jac := OverlapPOIs([]int{1, 2, 3}, []int{2, 3, 4})
	if shared != 2 || math.Abs(jac-0.5) > 1e-12 {
		t.Fatalf("shared=%d jaccard=%v", shared, jac)
	}
	if shared, jac = OverlapPOIs(nil, nil); shared != 0 || jac != 0 {
		t.Fatalf("empty overlap = %d/%v", shared, jac)
	}
}

func TestComparePOISelectors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	set := syntheticSet(300, 24, 7, 3.0, 0.4, rng)
	o, err := ComparePOISelectors(set, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.SOSD) == 0 || len(o.SNR) == 0 {
		t.Fatalf("selector outputs empty: %+v", o)
	}
	// Both selectors must pick the single dominant leak point (SelectPOIs
	// returns index order, so membership is the invariant).
	contains := func(pois []int, want int) bool {
		for _, p := range pois {
			if p == want {
				return true
			}
		}
		return false
	}
	if !contains(o.SOSD, 7) || !contains(o.SNR, 7) {
		t.Fatalf("leak point 7 not selected: sosd=%v snr=%v", o.SOSD, o.SNR)
	}
	if o.Shared < 1 || o.Jaccard <= 0 {
		t.Fatalf("overlap = %+v", o)
	}
}

func TestTemplateHealthWellConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	set := syntheticSet(400, 24, 7, 3.0, 0.4, rng)
	tpl, err := BuildTemplates(set, TemplateOptions{POICount: 3, MinSpacing: 2, Ridge: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := tpl.Health()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Warnings) != 0 {
		t.Fatalf("well-conditioned templates flagged: %+v", h)
	}
	if h.Classes != 2 || h.POICount != 3 {
		t.Fatalf("health shape = %+v", h)
	}
	if h.TotalCount != 400 || h.MinClassCount != 200 {
		t.Fatalf("counts = %+v", h)
	}
	if h.ConditionNumber < 1 || math.IsInf(h.ConditionNumber, 1) {
		t.Fatalf("condition = %v", h.ConditionNumber)
	}
	if h.MinEigenvalue <= 0 || h.MinEigenvalue > h.MaxEigenvalue {
		t.Fatalf("eigen range = [%v, %v]", h.MinEigenvalue, h.MaxEigenvalue)
	}
}

func TestTemplateHealthFlagsStarvedClasses(t *testing.T) {
	// 4 traces per class for 3 POIs: count ≤ d+1 boundary → rank warning.
	rng := rand.New(rand.NewSource(11))
	set := syntheticSet(6, 24, 7, 3.0, 0.4, rng)
	tpl, err := BuildTemplates(set, TemplateOptions{POICount: 3, MinSpacing: 2, Ridge: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := tpl.Health()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Warnings) == 0 {
		t.Fatalf("3 traces/class for 3 POIs must warn: %+v", h)
	}
	found := false
	for _, w := range h.Warnings {
		if strings.Contains(w, "rank-deficient") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing rank warning: %v", h.Warnings)
	}
}

func TestTemplateHealthFlagsIllConditioned(t *testing.T) {
	// Two POIs carrying (nearly) the same signal with a tiny ridge produce a
	// near-singular covariance.
	rng := rand.New(rand.NewSource(12))
	set := &trace.Set{}
	for i := 0; i < 200; i++ {
		label := i % 2
		base := rng.NormFloat64()*0.5 + float64(label)*3
		tr := trace.Trace{base, base + 1e-9*rng.NormFloat64(), rng.NormFloat64()}
		set.Append(tr, label)
	}
	tpl, err := BuildTemplatesAtPOIs(set, []int{0, 1}, TemplateOptions{POICount: 2, Ridge: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	h, err := tpl.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.ConditionNumber < HealthMaxCondition {
		t.Fatalf("duplicated POI should blow up conditioning, got %v", h.ConditionNumber)
	}
	if len(h.Warnings) == 0 {
		t.Fatalf("ill-conditioned templates must warn: %+v", h)
	}
}
