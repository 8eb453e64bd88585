package sca

import (
	"fmt"
	"math"

	"reveal/internal/trace"
)

// Scorer is a reusable scoring context over one trained template set: the
// POI feature vector, the whitened features and the per-class scores are
// allocated once and reused across every scored sub-trace. One Scorer
// serves one goroutine; create one per worker for parallel classification.
//
// Scoring whitens once: with the pooled covariance Σ = L·Lᵀ, the
// Mahalanobis distance of features f to class mean μ_c is
// (f−μ_c)ᵀ Σ⁻¹ (f−μ_c) = ‖L⁻¹f − L⁻¹μ_c‖². The whitened means L⁻¹μ_c are
// precomputed on Templates, so a trace costs one forward substitution
// y = L⁻¹f plus one squared distance per class, instead of a full
// forward-and-back solve per class. The arithmetic is a fixed sequence of
// operations, so the same trace always yields the same bits.
type Scorer struct {
	t        *Templates
	logTwoPi float64 // d·log(2π), shared additive constant of every score
	f, y     []float64
	ll       []float64
}

// NewScorer prepares a reusable scoring context for the template set.
func (t *Templates) NewScorer() *Scorer {
	d := len(t.POIs)
	return &Scorer{
		t:        t,
		logTwoPi: float64(d) * math.Log(2*math.Pi),
		f:        make([]float64, d),
		y:        make([]float64, d),
		ll:       make([]float64, len(t.classes)),
	}
}

// Classes returns the number of trained classes.
func (s *Scorer) Classes() int { return len(s.t.classes) }

// Label returns the class label at index ci (classes are in ascending
// label order, matching the rows of ScoreTrace's result).
func (s *Scorer) Label(ci int) int { return s.t.classes[ci].label }

// ScoreTrace extracts the POI features of tr and returns the per-class
// Gaussian log-likelihoods in class (ascending label) order. The returned
// slice is owned by the Scorer and overwritten by the next scoring call.
func (s *Scorer) ScoreTrace(tr trace.Trace) ([]float64, error) {
	pois := s.t.POIs
	if len(tr) <= pois[len(pois)-1] {
		return nil, fmt.Errorf("sca: trace of %d samples shorter than POI range", len(tr))
	}
	for i, p := range pois {
		s.f[i] = tr[p]
	}
	return s.ScoreVector(s.f)
}

// ScoreVector scores an already-extracted POI feature vector. The returned
// slice is owned by the Scorer and overwritten by the next scoring call.
func (s *Scorer) ScoreVector(f []float64) ([]float64, error) {
	if len(f) != len(s.t.POIs) {
		return nil, fmt.Errorf("sca: feature vector of %d entries, want %d", len(f), len(s.t.POIs))
	}
	if err := s.t.fact.ForwardInto(s.y, f); err != nil {
		return nil, err
	}
	for ci := range s.t.classes {
		w := s.t.classes[ci].white
		dist := 0.0
		for i, v := range s.y {
			e := v - w[i]
			dist += e * e
		}
		s.ll[ci] = -0.5 * (dist + s.t.logDet + s.logTwoPi)
	}
	return s.ll, nil
}

// ArgMaxLabel returns the label of the highest score: the first strict
// maximum in ascending class order, so ties and NaN scores resolve
// deterministically.
func (s *Scorer) ArgMaxLabel(ll []float64) int {
	best, bestLL := 0, math.Inf(-1)
	first := true
	for ci := range s.t.classes {
		v := ll[ci]
		if first || v > bestLL {
			best, bestLL = s.t.classes[ci].label, v
			first = false
		}
	}
	return best
}

// PosteriorValues converts scores into a softmax posterior (uniform prior)
// written into a per-class slice: dst[ci] = P(class ci), ascending label
// order. The exp is max-shifted and the normalizing sum accumulates in
// class order. dst must have len(ll) entries.
func (s *Scorer) PosteriorValues(ll, dst []float64) {
	max := math.Inf(-1)
	for _, v := range ll {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for ci, v := range ll {
		e := math.Exp(v - max)
		dst[ci] = e
		sum += e
	}
	for ci := range dst {
		dst[ci] /= sum
	}
}
