package sca_test

// Property-based tests of the template-attack posterior math: softmax
// normalization, combination, and bitwise determinism — the invariants the
// replay gate and the paper's probability-ranked key repair rely on.

import (
	"math"
	"testing"

	"reveal/internal/sca"
	"reveal/internal/testkit"
	"reveal/internal/trace"
)

// synthSet builds a labeled set of three well-separated classes with mild
// seeded Gaussian-ish noise.
func synthSet(r *testkit.RNG, perClass, length int) *trace.Set {
	set := &trace.Set{}
	for label := -1; label <= 1; label++ {
		for k := 0; k < perClass; k++ {
			tr := make(trace.Trace, length)
			for i := range tr {
				base := float64(label) * math.Sin(float64(i)/3)
				tr[i] = base + 0.1*(r.Float64()-0.5)
			}
			set.Append(tr, label)
		}
	}
	return set
}

func buildSynthTemplates(t *testing.T, r *testkit.RNG) *sca.Templates {
	t.Helper()
	set := synthSet(r, 30, 40)
	opts := sca.DefaultTemplateOptions()
	opts.POICount = 8
	tpl, err := sca.BuildTemplates(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

// posterior scores tr and returns its softmax posterior keyed by label.
func posterior(tpl *sca.Templates, tr trace.Trace) (map[int]float64, error) {
	s := tpl.NewScorer()
	ll, err := s.ScoreTrace(tr)
	if err != nil {
		return nil, err
	}
	p := make([]float64, s.Classes())
	s.PosteriorValues(ll, p)
	out := make(map[int]float64, len(p))
	for ci, v := range p {
		out[s.Label(ci)] = v
	}
	return out, nil
}

func TestProbabilitiesNormalized(t *testing.T) {
	r := testkit.NewRNG(61)
	tpl := buildSynthTemplates(t, r)
	labels := tpl.Labels()
	for iter := 0; iter < 50; iter++ {
		tr := make(trace.Trace, 40)
		for i := range tr {
			tr[i] = 4 * (r.Float64() - 0.5) // arbitrary, not class-shaped
		}
		probs, err := posterior(tpl, tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(probs) != len(labels) {
			t.Fatalf("posterior has %d classes, templates have %d", len(probs), len(labels))
		}
		sum := 0.0
		for _, l := range labels {
			p, ok := probs[l]
			if !ok {
				t.Fatalf("posterior missing label %d", l)
			}
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("posterior[%d] = %v", l, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("posterior sums to %v", sum)
		}
	}
}

// TestProbabilitiesBitwiseDeterministic: scoring the same trace twice must
// give bit-identical posteriors — the invariant PR 3's map-order fix
// established and the replay-determinism gate depends on.
func TestProbabilitiesBitwiseDeterministic(t *testing.T) {
	r := testkit.NewRNG(62)
	tpl := buildSynthTemplates(t, r)
	tr := make(trace.Trace, 40)
	for i := range tr {
		tr[i] = 2 * (r.Float64() - 0.5)
	}
	first, err := posterior(tpl, tr)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 20; rep++ {
		again, err := posterior(tpl, tr)
		if err != nil {
			t.Fatal(err)
		}
		for l, p := range first {
			if math.Float64bits(again[l]) != math.Float64bits(p) {
				t.Fatalf("rep %d label %d: %x != %x", rep, l,
					math.Float64bits(again[l]), math.Float64bits(p))
			}
		}
	}
}

func TestClassifyRecoversClassShape(t *testing.T) {
	r := testkit.NewRNG(63)
	tpl := buildSynthTemplates(t, r)
	for label := -1; label <= 1; label++ {
		tr := make(trace.Trace, 40)
		for i := range tr {
			tr[i] = float64(label) * math.Sin(float64(i)/3)
		}
		s := tpl.NewScorer()
		ll, err := s.ScoreTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		got := s.ArgMaxLabel(ll)
		if got != label {
			t.Errorf("noiseless class-%d trace classified as %d", label, got)
		}
	}
}
