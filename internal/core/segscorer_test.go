package core

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"

	"reveal/internal/sca"
	"reveal/internal/testkit"
	"reveal/internal/trace"
)

// legacyClassifier holds a classifier's template sets as the per-class
// solve reference of internal/testkit, decoded from their serialized bytes.
type legacyClassifier struct {
	length         int
	sign, pos, neg *testkit.RefTemplates
}

func legacyOf(t *testing.T, c *CoefficientClassifier) *legacyClassifier {
	t.Helper()
	ref := func(tpl *sca.Templates) *testkit.RefTemplates {
		if tpl == nil {
			return nil
		}
		var buf bytes.Buffer
		if err := sca.WriteTemplates(&buf, tpl); err != nil {
			t.Fatal(err)
		}
		r, err := testkit.DecodeRefTemplates(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	return &legacyClassifier{length: c.Length, sign: ref(c.Sign), pos: ref(c.Pos), neg: ref(c.Neg)}
}

// classification is one coefficient's outcome with its posterior in the
// map form of the oracle.
type classification struct {
	Value, Sign int
	Probs       map[int]float64
}

// legacyClassifySegment replicates the pre-scorer classification pipeline —
// one Cholesky solve per class, map-based posteriors, duplicate template
// evaluations and all — as the tolerance oracle for the segScorer path.
func legacyClassifySegment(c *legacyClassifier, seg trace.Trace) (*classification, error) {
	aligned := tailAlign(seg, c.length)
	signProbs, err := c.sign.Probabilities(aligned)
	if err != nil {
		return nil, fmt.Errorf("core: sign classification: %w", err)
	}
	sign, err := c.sign.Classify(aligned)
	if err != nil {
		return nil, err
	}
	probs := map[int]float64{0: signProbs[0]}
	if c.pos != nil {
		posProbs, err := c.pos.Probabilities(aligned)
		if err != nil {
			return nil, err
		}
		for v, p := range posProbs {
			probs[v] = signProbs[1] * p
		}
	}
	if c.neg != nil {
		negProbs, err := c.neg.Probabilities(aligned)
		if err != nil {
			return nil, err
		}
		for v, p := range negProbs {
			probs[v] = signProbs[-1] * p
		}
	}
	labels := make([]int, 0, len(probs))
	for v := range probs {
		labels = append(labels, v)
	}
	sort.Ints(labels)
	total := 0.0
	for _, v := range labels {
		total += probs[v]
	}
	if total > 0 {
		for v := range probs {
			probs[v] /= total
		}
	}
	value := 0
	switch sign {
	case 1:
		if c.pos == nil {
			return nil, fmt.Errorf("core: no positive templates")
		}
		value, err = c.pos.Classify(aligned)
	case -1:
		if c.neg == nil {
			return nil, fmt.Errorf("core: no negative templates")
		}
		value, err = c.neg.Classify(aligned)
	}
	if err != nil {
		return nil, err
	}
	return &classification{Value: value, Sign: sign, Probs: probs}, nil
}

// matchesLegacy checks a classification against the oracle's: the same
// value and sign, the same posterior labels, and every posterior within
// testkit.OracleTol.
func matchesLegacy(got, want *classification) error {
	if got.Value != want.Value || got.Sign != want.Sign {
		return fmt.Errorf("value/sign (%d,%d), want (%d,%d)", got.Value, got.Sign, want.Value, want.Sign)
	}
	if len(got.Probs) != len(want.Probs) {
		return fmt.Errorf("%d posterior entries, want %d", len(got.Probs), len(want.Probs))
	}
	for v, p := range want.Probs {
		gp, ok := got.Probs[v]
		if !ok {
			return fmt.Errorf("posterior missing value %d", v)
		}
		if math.Abs(gp-p) > testkit.OracleTol {
			return fmt.Errorf("posterior[%d] = %v, want %v", v, gp, p)
		}
	}
	return nil
}

// classifyOne classifies one sub-trace on a pooled scoring context and
// returns its posterior row as a map over the classifier's labels.
func classifyOne(c *CoefficientClassifier, seg trace.Trace) (*classification, error) {
	ss := c.scorer()
	defer c.release(ss)
	labels := c.posteriorLabels()
	row := make([]float64, len(labels))
	value, sign, err := ss.classify(seg, row)
	if err != nil {
		return nil, err
	}
	return &classification{Value: value, Sign: sign, Probs: rowMap(labels, row)}, nil
}

// TestClassifySegmentMatchesLegacy: the whitened scorer reproduces the
// per-class-solve algorithm's decisions exactly and its posteriors within
// testkit.OracleTol, for every coefficient of a real captured encryption,
// on 12-, 24- and 28-POI classifiers.
func TestClassifySegmentMatchesLegacy(t *testing.T) {
	fixtures := []struct {
		name        string
		dev         *Device
		pois, space int
		seed        uint64
	}{
		{"24 POIs", NewDevice(21), 24, 1, 21},
		{"12 POIs default device", NewDevice(23), 12, 2, 23},
		{"28 POIs low-noise device", NewLowNoiseDevice(24), 28, 1, 24},
	}
	for _, fx := range fixtures {
		cls, cap, params := captureOn(t, fx.dev, smallProfileAt(t, fx.dev, fx.pois, fx.space), fx.seed)
		legacy := legacyOf(t, cls)
		for _, tr := range []trace.Trace{cap.TraceE1, cap.TraceE2} {
			segs, err := trace.NewSegmenter(params.N+1).Segment(tr, params.N+1, 8)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range segs[:params.N] {
				want, err := legacyClassifySegment(legacy, s.Samples)
				if err != nil {
					t.Fatalf("%s coefficient %d: legacy: %v", fx.name, i, err)
				}
				got, err := classifyOne(cls, s.Samples)
				if err != nil {
					t.Fatalf("%s coefficient %d: %v", fx.name, i, err)
				}
				if err := matchesLegacy(got, want); err != nil {
					t.Fatalf("%s coefficient %d: %v", fx.name, i, err)
				}
			}
		}
	}
}

// TestSegScorerMissingSide: a classifier without one value side must still
// classify the covered signs and fail cleanly on the missing one, exactly
// like the historical path.
func TestSegScorerMissingSide(t *testing.T) {
	cls, cap, params := captureSmall(t, 22)
	segs, err := trace.NewSegmenter(params.N+1).Segment(cap.TraceE2, params.N+1, 8)
	if err != nil {
		t.Fatal(err)
	}
	segs = segs[:params.N]
	onlyPos := &CoefficientClassifier{
		Length: cls.Length, MaxAbsValue: cls.MaxAbsValue,
		Sign: cls.Sign, Pos: cls.Pos,
	}
	legacy := legacyOf(t, onlyPos)
	sawErr, sawOK := false, false
	for _, s := range segs {
		want, legacyErr := legacyClassifySegment(legacy, s.Samples)
		got, gotErr := classifyOne(onlyPos, s.Samples)
		if (legacyErr == nil) != (gotErr == nil) {
			t.Fatalf("error behavior diverged: legacy=%v new=%v", legacyErr, gotErr)
		}
		if gotErr != nil {
			sawErr = true
			continue
		}
		sawOK = true
		if err := matchesLegacy(got, want); err != nil {
			t.Fatal(err)
		}
	}
	if !sawOK {
		t.Error("expected at least one classifiable segment without negative templates")
	}
	_ = sawErr // negative coefficients may or may not appear at this scale
}
