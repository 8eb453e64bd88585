package sca

import (
	"testing"

	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// bitLeakSet synthesizes traces leaking a bit-weighted sum of the label's
// bits at sample 4 (plus a constant and noise): the exact model class the
// stochastic approach fits.
func bitLeakSet(seed uint64, labels []int, perLabel int, weights []float64, noise float64) *trace.Set {
	prng := sampler.NewXoshiro256(seed)
	s := &trace.Set{}
	for _, l := range labels {
		for i := 0; i < perLabel; i++ {
			tr := make(trace.Trace, 10)
			for t := range tr {
				n, _ := sampler.NormFloat64(prng)
				tr[t] = 1.0 + n*noise
			}
			v := uint32(l)
			for b, w := range weights {
				tr[4] += w * float64((v>>b)&1)
				// A second leaky sample with permuted weights (the V3
				// analogue) breaks weighted-sum collisions between labels.
				tr[7] += weights[(b+1)%len(weights)] * float64((v>>b)&1)
			}
			s.Append(tr, l)
		}
	}
	return s
}

func TestStochasticRecoversBitWeights(t *testing.T) {
	weights := []float64{0.11, 0.08, 0.14, 0.09}
	labels := []int{0, 1, 2, 3, 5, 6, 7, 9, 10, 12, 15}
	set := bitLeakSet(1, labels, 30, weights, 0.01)
	basis := BitBasis(4, func(l int) uint32 { return uint32(l) })
	m, err := FitStochastic(set, basis, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The fitted coefficients at the leaking sample must match the planted
	// weights.
	for b, w := range weights {
		got := m.Beta.At(b+1, 4)
		if got < w-0.02 || got > w+0.02 {
			t.Errorf("bit %d weight %.3f want %.3f", b, got, w)
		}
	}
	// Classification: fresh traces of every label, including values NEVER
	// seen in profiling (4, 8, 11, 13, 14) — the stochastic model
	// extrapolates where plain templates cannot.
	m.Labels = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	all := make([]int, 16)
	for i := range all {
		all[i] = i
	}
	test := bitLeakSet(2, all, 6, weights, 0.01)
	ok := 0
	for i, tr := range test.Traces {
		pred, err := m.Classify(tr)
		if err != nil {
			t.Fatal(err)
		}
		if pred == test.Labels[i] {
			ok++
		}
	}
	if acc := float64(ok) / float64(test.Len()); acc < 0.9 {
		t.Errorf("stochastic accuracy %.3f (including unseen labels)", acc)
	}
}

func TestStochasticValidation(t *testing.T) {
	basis := BitBasis(4, func(l int) uint32 { return uint32(l) })
	if _, err := FitStochastic(&trace.Set{}, basis, 3); err == nil {
		t.Error("empty set should fail")
	}
	set := bitLeakSet(3, []int{0, 1, 2, 3, 5, 7}, 10, []float64{0.1, 0.1, 0.1, 0.1}, 0.01)
	if _, err := FitStochastic(set, nil, 3); err == nil {
		t.Error("nil basis should fail")
	}
	if _, err := FitStochastic(set, basis, 0); err == nil {
		t.Error("poiCount 0 should fail")
	}
	// A constant-label set has a degenerate design matrix.
	degenerate := bitLeakSet(4, []int{5}, 20, []float64{0.1, 0.1, 0.1, 0.1}, 0.01)
	if _, err := FitStochastic(degenerate, basis, 3); err == nil {
		t.Error("single-label set should fail")
	}
	m, err := FitStochastic(set, basis, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Classify(trace.Trace{1}); err == nil {
		t.Error("short trace should fail")
	}
}

// The stochastic model needs fewer profiling traces than per-class
// templates at equal accuracy (it shares statistical strength across
// classes through the basis).
func TestStochasticBeatsTemplatesAtLowProfile(t *testing.T) {
	weights := []float64{0.12, 0.07, 0.15, 0.1}
	labels := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	// Tiny profiling budget: 4 traces per class.
	train := bitLeakSet(5, labels, 4, weights, 0.02)
	basis := BitBasis(4, func(l int) uint32 { return uint32(l) })
	sm, err := FitStochastic(train, basis, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultTemplateOptions()
	opts.POICount = 3
	opts.MinSpacing = 1
	tm, err := BuildTemplates(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	test := bitLeakSet(6, labels, 10, weights, 0.02)
	smOK, tmOK := 0, 0
	for i, tr := range test.Traces {
		if p, err := sm.Classify(tr); err == nil && p == test.Labels[i] {
			smOK++
		}
		if p, err := classify(tm, tr); err == nil && p == test.Labels[i] {
			tmOK++
		}
	}
	if smOK < tmOK {
		t.Errorf("stochastic %d/%d should not trail templates %d/%d at this profiling budget",
			smOK, test.Len(), tmOK, test.Len())
	}
	if smOK < test.Len()*3/4 {
		t.Errorf("stochastic accuracy too low: %d/%d", smOK, test.Len())
	}
}
