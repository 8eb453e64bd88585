package sca

import (
	"math"
	"testing"

	"reveal/internal/trace"
)

func TestFitLDASeparatesClasses(t *testing.T) {
	// Three classes separated along a diagonal direction the axes miss.
	set := synthSet(61, []int{-1, 0, 1}, 80, 12, 0.05)
	lda, err := FitLDA(set, 2, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if lda.Components() != 2 {
		t.Fatalf("components=%d want 2 (3 classes)", lda.Components())
	}
	// Projected class means must be well separated relative to scatter.
	proj, err := lda.TransformSet(set)
	if err != nil {
		t.Fatal(err)
	}
	groups := proj.ByLabel()
	means := map[int]float64{}
	for label, idxs := range groups {
		m := 0.0
		for _, idx := range idxs {
			m += proj.Traces[idx][0]
		}
		means[label] = m / float64(len(idxs))
	}
	spread := math.Abs(means[-1]-means[1]) + math.Abs(means[0]-means[1])
	if spread < 1 {
		t.Errorf("projected class means too close: %v", means)
	}
	// Templates on LDA components classify accurately.
	tmpl, err := BuildTemplatesAtPOIs(proj, lda.AllPOIs(), DefaultTemplateOptions())
	if err != nil {
		t.Fatal(err)
	}
	test := synthSet(62, []int{-1, 0, 1}, 20, 12, 0.05)
	testProj, err := lda.TransformSet(test)
	if err != nil {
		t.Fatal(err)
	}
	conf := NewConfusion()
	for i, tr := range testProj.Traces {
		pred, err := classify(tmpl, tr)
		if err != nil {
			t.Fatal(err)
		}
		conf.Add(testProj.Labels[i], pred)
	}
	if acc := conf.OverallAccuracy(); acc < 0.9 {
		t.Errorf("LDA-template accuracy %.3f too low", acc)
	}
}

func TestLDAComponentCap(t *testing.T) {
	set := synthSet(63, []int{0, 1}, 40, 12, 0.05)
	lda, err := FitLDA(set, 10, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if lda.Components() != 1 {
		t.Errorf("2 classes allow only 1 component, got %d", lda.Components())
	}
}

func TestLDAValidation(t *testing.T) {
	if _, err := FitLDA(&trace.Set{}, 1, 0); err == nil {
		t.Error("empty set should fail")
	}
	one := &trace.Set{}
	one.Append(trace.Trace{1, 2}, 0)
	if _, err := FitLDA(one, 1, 0); err == nil {
		t.Error("single class should fail")
	}
	set := synthSet(64, []int{0, 1}, 10, 12, 0.05)
	if _, err := FitLDA(set, 0, 0); err == nil {
		t.Error("0 components should fail")
	}
	lda, err := FitLDA(set, 1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lda.Transform(trace.Trace{1}); err == nil {
		t.Error("wrong-length trace should fail")
	}
}
