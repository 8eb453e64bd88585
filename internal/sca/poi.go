// Package sca implements the template-attack statistics of the paper:
// point-of-interest selection via the sum-of-squared-differences method
// (SOSD, [30] in the paper) and its normalized variant SOST, multivariate
// Gaussian templates with pooled covariance (Chari et al., [28]),
// maximum-likelihood classification, score calibration into the per-value
// probabilities the DBDD hint integration consumes, and confusion-matrix
// bookkeeping for Table I.
package sca

import (
	"fmt"
	"math"
	"sort"

	"reveal/internal/trace"
)

// classStats holds per-class per-sample mean and variance.
type classStats struct {
	label int
	count int
	mean  []float64
	m2    []float64 // sum of squared deviations (Welford)
}

func computeClassStats(set *trace.Set) ([]classStats, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if set.Len() == 0 {
		return nil, fmt.Errorf("sca: empty trace set")
	}
	n := len(set.Traces[0])
	byLabel := map[int]*classStats{}
	var order []int
	for i, tr := range set.Traces {
		l := set.Labels[i]
		cs, ok := byLabel[l]
		if !ok {
			cs = &classStats{label: l, mean: make([]float64, n), m2: make([]float64, n)}
			byLabel[l] = cs
			order = append(order, l)
		}
		cs.count++
		invN := 1.0 / float64(cs.count)
		for t, v := range tr {
			d := v - cs.mean[t]
			cs.mean[t] += d * invN
			cs.m2[t] += d * (v - cs.mean[t])
		}
	}
	sort.Ints(order)
	out := make([]classStats, 0, len(order))
	for _, l := range order {
		out = append(out, *byLabel[l])
	}
	return out, nil
}

func (cs *classStats) variance(t int) float64 {
	if cs.count < 2 {
		return 0
	}
	return cs.m2[t] / float64(cs.count-1)
}

// SOSD returns the sum-of-squared-differences score per sample index:
// Σ_{a<b} (μ_a[t] − μ_b[t])², the POI selection method the paper uses.
func SOSD(set *trace.Set) ([]float64, error) {
	stats, err := computeClassStats(set)
	if err != nil {
		return nil, err
	}
	if len(stats) < 2 {
		return nil, fmt.Errorf("sca: SOSD needs at least 2 classes, got %d", len(stats))
	}
	n := len(stats[0].mean)
	scores := make([]float64, n)
	for a := 0; a < len(stats); a++ {
		for b := a + 1; b < len(stats); b++ {
			for t := 0; t < n; t++ {
				d := stats[a].mean[t] - stats[b].mean[t]
				scores[t] += d * d
			}
		}
	}
	return scores, nil
}

// SOST returns the normalized variant: Σ_{a<b} (μ_a−μ_b)² / (σ²_a/n_a + σ²_b/n_b).
func SOST(set *trace.Set) ([]float64, error) {
	stats, err := computeClassStats(set)
	if err != nil {
		return nil, err
	}
	if len(stats) < 2 {
		return nil, fmt.Errorf("sca: SOST needs at least 2 classes, got %d", len(stats))
	}
	n := len(stats[0].mean)
	scores := make([]float64, n)
	const eps = 1e-12
	for a := 0; a < len(stats); a++ {
		for b := a + 1; b < len(stats); b++ {
			for t := 0; t < n; t++ {
				d := stats[a].mean[t] - stats[b].mean[t]
				denom := stats[a].variance(t)/float64(stats[a].count) +
					stats[b].variance(t)/float64(stats[b].count) + eps
				scores[t] += d * d / denom
			}
		}
	}
	return scores, nil
}

// TTest returns Welch's t statistic (absolute value) per sample between the
// two given labels, a standard leakage-assessment curve.
func TTest(set *trace.Set, labelA, labelB int) ([]float64, error) {
	stats, err := computeClassStats(set)
	if err != nil {
		return nil, err
	}
	var a, b *classStats
	for i := range stats {
		if stats[i].label == labelA {
			a = &stats[i]
		}
		if stats[i].label == labelB {
			b = &stats[i]
		}
	}
	if a == nil || b == nil {
		return nil, fmt.Errorf("sca: labels %d/%d not present", labelA, labelB)
	}
	n := len(a.mean)
	out := make([]float64, n)
	const eps = 1e-12
	for t := 0; t < n; t++ {
		denom := a.variance(t)/float64(a.count) + b.variance(t)/float64(b.count) + eps
		out[t] = math.Abs((a.mean[t] - b.mean[t]) / math.Sqrt(denom))
	}
	return out, nil
}

// SelectPOIs picks up to count sample indices with the highest scores while
// enforcing a minimum spacing (the paper's practicality constraint: using
// the full trace as a template is impractical [29]).
func SelectPOIs(scores []float64, count, minSpacing int) []int {
	if count <= 0 {
		return nil
	}
	if minSpacing < 1 {
		minSpacing = 1
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	var pois []int
	for _, i := range idx {
		ok := true
		for _, p := range pois {
			d := i - p
			if d < 0 {
				d = -d
			}
			if d < minSpacing {
				ok = false
				break
			}
		}
		if ok {
			pois = append(pois, i)
			if len(pois) == count {
				break
			}
		}
	}
	sort.Ints(pois)
	return pois
}

// ExtractInto gathers the POI samples of a trace into a caller-provided
// feature buffer (which must have len(pois) entries) and returns it.
func ExtractInto(dst []float64, tr trace.Trace, pois []int) []float64 {
	for i, p := range pois {
		dst[i] = tr[p]
	}
	return dst
}

// SecondOrderPreprocess computes centered-product features for
// second-order analysis of masked implementations: for every pair of
// sample indices (i, j) with 0 < j−i ≤ window, feature = (x_i − μ_i)·(x_j
// − μ_j), with μ the per-sample mean over the population. First-order
// statistics on a (properly) masked implementation are flat; the centered
// products recombine the shares and expose the joint leakage.
func SecondOrderPreprocess(traces []trace.Trace, window int) ([]trace.Trace, error) {
	if len(traces) < 2 {
		return nil, fmt.Errorf("sca: second-order preprocessing needs at least 2 traces")
	}
	if window < 1 {
		return nil, fmt.Errorf("sca: window must be at least 1")
	}
	n := len(traces[0])
	for i, tr := range traces {
		if len(tr) != n {
			return nil, fmt.Errorf("sca: trace %d has %d samples, want %d", i, len(tr), n)
		}
	}
	mean := make([]float64, n)
	for _, tr := range traces {
		for t, v := range tr {
			mean[t] += v
		}
	}
	for t := range mean {
		mean[t] /= float64(len(traces))
	}
	// Feature layout: for each i, pairs (i, i+1) .. (i, i+window).
	var nFeat int
	for i := 0; i < n; i++ {
		hi := i + window
		if hi >= n {
			hi = n - 1
		}
		nFeat += hi - i
	}
	out := make([]trace.Trace, len(traces))
	for k, tr := range traces {
		f := make(trace.Trace, 0, nFeat)
		for i := 0; i < n; i++ {
			hi := i + window
			if hi >= n {
				hi = n - 1
			}
			ci := tr[i] - mean[i]
			for j := i + 1; j <= hi; j++ {
				f = append(f, ci*(tr[j]-mean[j]))
			}
		}
		out[k] = f
	}
	return out, nil
}
