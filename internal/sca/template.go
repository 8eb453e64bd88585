package sca

import (
	"fmt"
	"sort"

	"reveal/internal/linalg"
	"reveal/internal/obs"
	"reveal/internal/trace"
)

// TemplateOptions configures template construction.
type TemplateOptions struct {
	// POICount is how many points of interest to keep.
	POICount int
	// MinSpacing is the minimum distance between selected POIs.
	MinSpacing int
	// Ridge is added to the covariance diagonal for numerical stability.
	Ridge float64
	// Selector chooses the POI score ("sosd" — the paper's method — or
	// "sost"). Empty means "sosd".
	Selector string
}

// DefaultTemplateOptions mirror the paper's setup: SOSD-selected POIs.
func DefaultTemplateOptions() TemplateOptions {
	return TemplateOptions{POICount: 12, MinSpacing: 2, Ridge: 1e-6, Selector: "sosd"}
}

// classTemplate is one label's Gaussian mean. The covariance is pooled:
// every class shares the factor held by Templates.
type classTemplate struct {
	label int
	count int
	mean  []float64
	white []float64 // L⁻¹·mean: the mean in whitened coordinates
}

// Templates is a trained template attack: one multivariate Gaussian per
// label over the POI features, all sharing one pooled covariance Σ = L·Lᵀ.
// Everything scoring needs is prepared once, at training or load time, so
// classification never factors, inverts or back-solves anything.
type Templates struct {
	POIs    []int
	classes []classTemplate
	chol    *linalg.Matrix     // Cholesky factor L of the pooled covariance
	fact    *linalg.CholFactor // cached solve structures over chol
	invCov  *linalg.Matrix     // Σ⁻¹, kept because the v2 format stores it
	logDet  float64            // log det Σ
}

// whiten prepares the scoring structures over the shared factor: the
// cached solver and every class mean in whitened coordinates, L⁻¹·μ.
func (t *Templates) whiten() {
	t.fact = linalg.CholFactorOf(t.chol)
	for ci := range t.classes {
		c := &t.classes[ci]
		c.white = make([]float64, len(c.mean))
		// Every mean has the factor's dimension: cannot fail.
		_ = t.fact.ForwardInto(c.white, c.mean)
	}
}

// BuildTemplates trains templates from a labeled profiling set (the
// 220,000-trace campaign of §IV-B, at whatever scale the caller chose).
func BuildTemplates(set *trace.Set, opts TemplateOptions) (*Templates, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if set.Len() == 0 {
		return nil, fmt.Errorf("sca: empty profiling set")
	}
	if opts.POICount <= 0 {
		return nil, fmt.Errorf("sca: POICount must be positive")
	}
	psp := obs.StartSpan("poi")
	var scores []float64
	var err error
	switch opts.Selector {
	case "", "sosd":
		scores, err = SOSD(set)
	case "sost":
		scores, err = SOST(set)
	default:
		err = fmt.Errorf("sca: unknown POI selector %q", opts.Selector)
	}
	if err != nil {
		psp.End()
		return nil, err
	}
	pois := SelectPOIs(scores, opts.POICount, opts.MinSpacing)
	psp.AddItems(len(pois))
	psp.End()
	if len(pois) == 0 {
		return nil, fmt.Errorf("sca: no POIs selected")
	}
	tsp := obs.StartSpan("template")
	tsp.AddItems(set.Len())
	defer tsp.End()
	return BuildTemplatesAtPOIs(set, pois, opts)
}

// BuildTemplatesAtPOIs trains templates using caller-chosen POIs.
func BuildTemplatesAtPOIs(set *trace.Set, pois []int, opts TemplateOptions) (*Templates, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	for _, p := range pois {
		if p < 0 || (set.Len() > 0 && p >= len(set.Traces[0])) {
			return nil, fmt.Errorf("sca: POI %d out of range", p)
		}
	}
	d := len(pois)
	groups := set.ByLabel()
	labels := make([]int, 0, len(groups))
	for l := range groups {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	if len(labels) < 2 {
		return nil, fmt.Errorf("sca: need at least 2 classes, got %d", len(labels))
	}

	// Per-class means, over one reusable feature buffer.
	t := &Templates{POIs: append([]int(nil), pois...)}
	f := make([]float64, d)
	for _, l := range labels {
		mean := make([]float64, d)
		for _, idx := range groups[l] {
			ExtractInto(f, set.Traces[idx], pois)
			for i, v := range f {
				mean[i] += v
			}
		}
		for i := range mean {
			mean[i] /= float64(len(groups[l]))
		}
		t.classes = append(t.classes, classTemplate{label: l, count: len(groups[l]), mean: mean})
	}

	// Pooled covariance. The scatter update works on row slices with the
	// centered features computed once per trace — the same f[j]−mean[j] and
	// di·diff[j] operations, in the same order, as the historical
	// element-wise At/Set loop.
	cov := linalg.NewMatrix(d, d)
	diff := make([]float64, d)
	for _, c := range t.classes {
		for _, idx := range groups[c.label] {
			ExtractInto(f, set.Traces[idx], pois)
			for j := 0; j < d; j++ {
				diff[j] = f[j] - c.mean[j]
			}
			for i := 0; i < d; i++ {
				di := diff[i]
				row := cov.Data[i*d : (i+1)*d]
				for j := 0; j < d; j++ {
					row[j] += di * diff[j]
				}
			}
		}
	}
	cov = cov.Scale(1 / float64(set.Len()-1))
	linalg.RegularizeSPD(cov, opts.Ridge)
	var err error
	if t.chol, err = linalg.Cholesky(cov); err != nil {
		return nil, fmt.Errorf("sca: covariance not PD (add ridge): %w", err)
	}
	t.whiten()
	t.invCov, t.logDet = t.fact.Inverse(), t.fact.LogDet()
	return t, nil
}

// Labels returns the class labels in ascending order.
func (t *Templates) Labels() []int {
	out := make([]int, len(t.classes))
	for i, c := range t.classes {
		out[i] = c.label
	}
	return out
}
