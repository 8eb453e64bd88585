// Leakage-assessment diagnostics: SNR curves, Welch t-test (TVLA-style)
// summaries, POI-selection overlap, and template-health checks. These are
// the standard side-channel quality gauges (SNR as in RTL power-analysis
// practice, TVLA t-tests, template conditioning) surfaced so a campaign can
// tell whether its profiling set actually carries the paper's leakage
// before spending a full attack on it.
package sca

import (
	"fmt"
	"math"

	"reveal/internal/linalg"
	"reveal/internal/obs"
	"reveal/internal/trace"
)

// SNR returns the per-sample signal-to-noise ratio of a labeled set: the
// count-weighted variance of the class-conditional means over the
// count-weighted mean of the within-class variances. Samples where the
// class means separate far beyond the noise floor are the exploitable
// points of interest.
func SNR(set *trace.Set) ([]float64, error) {
	stats, err := computeClassStats(set)
	if err != nil {
		return nil, err
	}
	if len(stats) < 2 {
		return nil, fmt.Errorf("sca: SNR needs at least 2 classes, got %d", len(stats))
	}
	n := len(stats[0].mean)
	total := 0
	for i := range stats {
		total += stats[i].count
	}
	const eps = 1e-12
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		grand := 0.0
		for i := range stats {
			grand += float64(stats[i].count) * stats[i].mean[t]
		}
		grand /= float64(total)
		signal, noise := 0.0, 0.0
		for i := range stats {
			w := float64(stats[i].count) / float64(total)
			d := stats[i].mean[t] - grand
			signal += w * d * d
			noise += w * stats[i].variance(t)
		}
		out[t] = signal / (noise + eps)
	}
	return out, nil
}

// CurveSummary condenses a per-sample diagnostic curve (SNR, |t|) into the
// numbers a report keeps: the peak, its location, the mean, and how many
// samples clear the given threshold. The full curve rides along only when
// requested, so reports stay small by default.
type CurveSummary struct {
	Max            float64   `json:"max"`
	ArgMax         int       `json:"argmax"`
	Mean           float64   `json:"mean"`
	Threshold      float64   `json:"threshold,omitempty"`
	AboveThreshold int       `json:"above_threshold,omitempty"`
	Curve          []float64 `json:"curve,omitempty"`
}

// SummarizeCurve builds a CurveSummary; keepCurve embeds the raw samples.
func SummarizeCurve(curve []float64, threshold float64, keepCurve bool) CurveSummary {
	s := CurveSummary{Threshold: threshold}
	sum := 0.0
	for i, v := range curve {
		sum += v
		if v > s.Max || i == 0 {
			s.Max, s.ArgMax = v, i
		}
		if threshold > 0 && v > threshold {
			s.AboveThreshold++
		}
	}
	if len(curve) > 0 {
		s.Mean = sum / float64(len(curve))
	}
	if keepCurve {
		s.Curve = append([]float64(nil), curve...)
	}
	return s
}

// PairTTest is the Welch t-test summary between two class labels of the
// profiling set — the TVLA-style evidence that the two values are
// distinguishable in a single trace.
type PairTTest struct {
	LabelA  int          `json:"label_a"`
	LabelB  int          `json:"label_b"`
	Summary CurveSummary `json:"summary"`
	// Leaky reports Summary.Max above the conventional 4.5 TVLA bound.
	Leaky bool `json:"leaky"`
}

// TVLATTestThreshold is the conventional |t| pass/fail bound.
const TVLATTestThreshold = 4.5

// TTestPair runs the Welch t-test between two labels and summarizes it
// against the TVLA threshold.
func TTestPair(set *trace.Set, labelA, labelB int, keepCurve bool) (PairTTest, error) {
	curve, err := TTest(set, labelA, labelB)
	if err != nil {
		return PairTTest{}, err
	}
	p := PairTTest{
		LabelA:  labelA,
		LabelB:  labelB,
		Summary: SummarizeCurve(curve, TVLATTestThreshold, keepCurve),
	}
	p.Leaky = p.Summary.Max > TVLATTestThreshold
	return p, nil
}

// POIOverlap reports how well two POI selectors agree on the top-k sample
// indices — e.g. the paper's SOSD choice against the SNR ranking. Low
// overlap means the selector choice matters and deserves an ablation.
type POIOverlap struct {
	K       int     `json:"k"`
	SOSD    []int   `json:"sosd"`
	SNR     []int   `json:"snr"`
	Shared  int     `json:"shared"`
	Jaccard float64 `json:"jaccard"`
}

// OverlapPOIs computes the intersection size and Jaccard index of two POI
// index sets.
func OverlapPOIs(a, b []int) (shared int, jaccard float64) {
	inA := make(map[int]bool, len(a))
	for _, p := range a {
		inA[p] = true
	}
	for _, p := range b {
		if inA[p] {
			shared++
		}
	}
	union := len(a) + len(b) - shared
	if union > 0 {
		jaccard = float64(shared) / float64(union)
	}
	return shared, jaccard
}

// ComparePOISelectors selects top-k POIs by SOSD and by SNR under the same
// spacing constraint and reports their overlap.
func ComparePOISelectors(set *trace.Set, k, minSpacing int) (*POIOverlap, error) {
	sosd, err := SOSD(set)
	if err != nil {
		return nil, err
	}
	snr, err := SNR(set)
	if err != nil {
		return nil, err
	}
	o := &POIOverlap{
		K:    k,
		SOSD: SelectPOIs(sosd, k, minSpacing),
		SNR:  SelectPOIs(snr, k, minSpacing),
	}
	o.Shared, o.Jaccard = OverlapPOIs(o.SOSD, o.SNR)
	return o, nil
}

// Template-health bounds: past these the Gaussian templates are considered
// ill-conditioned and the attack's posteriors unreliable.
const (
	// HealthMaxCondition flags a covariance whose eigenvalue spread makes
	// the Mahalanobis solve numerically fragile.
	HealthMaxCondition = 1e8
	// HealthMinEigenvalue flags a covariance that has collapsed (POIs
	// linearly dependent despite the ridge).
	HealthMinEigenvalue = 1e-12
)

// TemplateHealth is the conditioning report of a trained template set: the
// covariance spectrum, the per-class trace counts, and the structured
// warnings a campaign should act on before trusting the classifier.
type TemplateHealth struct {
	Classes       int `json:"classes"`
	POICount      int `json:"poi_count"`
	TotalCount    int `json:"total_count"`
	MinClassCount int `json:"min_class_count"`
	MinClassLabel int `json:"min_class_label"`
	// ConditionNumber is the pooled covariance's eigenvalue ratio
	// λmax/λmin.
	ConditionNumber float64 `json:"condition_number"`
	MinEigenvalue   float64 `json:"min_eigenvalue"`
	MaxEigenvalue   float64 `json:"max_eigenvalue"`
	// PerClassCount maps label → profiling traces behind its template.
	PerClassCount map[int]int `json:"per_class_count"`
	Warnings      []string    `json:"warnings,omitempty"`
}

// Health checks the conditioning of a trained template set: condition
// number and minimum eigenvalue of the pooled covariance, per-class trace
// counts against the feature dimension, and emits structured warnings —
// also mirrored to the observability log — when the templates are
// ill-conditioned.
func (t *Templates) Health() (*TemplateHealth, error) {
	if len(t.classes) == 0 {
		return nil, fmt.Errorf("sca: health check on empty template set")
	}
	d := len(t.POIs)
	h := &TemplateHealth{
		Classes:       len(t.classes),
		POICount:      d,
		PerClassCount: make(map[int]int, len(t.classes)),
	}
	first := true
	for _, c := range t.classes {
		h.TotalCount += c.count
		h.PerClassCount[c.label] = c.count
		if first || c.count < h.MinClassCount {
			h.MinClassCount, h.MinClassLabel = c.count, c.label
		}
		first = false
	}
	// All classes share one covariance; one spectrum covers them.
	cov, err := t.chol.Mul(t.chol.Transpose())
	if err != nil {
		return nil, err
	}
	vals, _, err := linalg.EigSym(cov, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("sca: covariance spectrum: %w", err)
	}
	h.MaxEigenvalue, h.MinEigenvalue = vals[0], vals[len(vals)-1]
	h.ConditionNumber = math.Inf(1)
	if h.MinEigenvalue > 0 {
		h.ConditionNumber = h.MaxEigenvalue / h.MinEigenvalue
	}

	if h.Classes < 2 {
		h.Warnings = append(h.Warnings, fmt.Sprintf(
			"only %d class: nothing to discriminate", h.Classes))
	}
	if h.MinClassCount <= d {
		h.Warnings = append(h.Warnings, fmt.Sprintf(
			"class %d has %d traces for %d POIs: covariance estimate is rank-deficient without pooling/ridge",
			h.MinClassLabel, h.MinClassCount, d))
	}
	if h.ConditionNumber > HealthMaxCondition {
		h.Warnings = append(h.Warnings, fmt.Sprintf(
			"covariance condition number %.3g exceeds %.0e: Mahalanobis distances are numerically fragile",
			h.ConditionNumber, HealthMaxCondition))
	}
	if h.MinEigenvalue < HealthMinEigenvalue {
		h.Warnings = append(h.Warnings, fmt.Sprintf(
			"minimum covariance eigenvalue %.3g below %.0e: POIs nearly linearly dependent, raise Ridge or MinSpacing",
			h.MinEigenvalue, HealthMinEigenvalue))
	}
	for _, w := range h.Warnings {
		obs.Log().Warn("template health", "warning", w,
			"classes", h.Classes, "pois", d, "condition", h.ConditionNumber)
	}
	return h, nil
}
