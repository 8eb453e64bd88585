package core

import (
	"fmt"
	"sort"

	"reveal/internal/sca"
	"reveal/internal/trace"
)

// segScorer is a per-goroutine classification context over one trained
// CoefficientClassifier: one reusable sca.Scorer per template set (sign,
// positive values, negative values), a reusable tail-alignment buffer, and
// the precomputed sorted label set of the combined posterior. It computes
// each class log-likelihood exactly once per segment — the map-based path
// scored the sign templates twice (posterior + argmax) and the recovered
// side's value templates twice more — while keeping every floating-point
// operation in the same order, so results are bitwise identical.
type segScorer struct {
	c              *CoefficientClassifier
	sign, pos, neg *sca.Scorer
	alignBuf       trace.Trace
	// Posterior scratch per template set, indexed by class.
	signPost, posPost, negPost []float64
	// Indices of the −1/0/+1 labels in the sign scorer's class order
	// (−1 when the label is absent — its posterior then reads as 0,
	// matching the historical map lookup of a missing key).
	idxNeg, idxZero, idxPos int
	// sortedLabels is the ascending label set of the combined posterior:
	// negative labels, 0, positive labels. Precomputed once so the
	// normalization sum runs in the same order the map-based path produced
	// by sorting per segment.
	sortedLabels []int
}

func newSegScorer(c *CoefficientClassifier) *segScorer {
	ss := &segScorer{
		c:        c,
		sign:     c.Sign.NewScorer(),
		alignBuf: make(trace.Trace, c.Length),
		idxNeg:   -1, idxZero: -1, idxPos: -1,
	}
	ss.signPost = make([]float64, ss.sign.Classes())
	for ci := 0; ci < ss.sign.Classes(); ci++ {
		switch ss.sign.Label(ci) {
		case -1:
			ss.idxNeg = ci
		case 0:
			ss.idxZero = ci
		case 1:
			ss.idxPos = ci
		}
	}
	labels := []int{0}
	if c.Pos != nil {
		ss.pos = c.Pos.NewScorer()
		ss.posPost = make([]float64, ss.pos.Classes())
		labels = append(labels, c.Pos.Labels()...)
	}
	if c.Neg != nil {
		ss.neg = c.Neg.NewScorer()
		ss.negPost = make([]float64, ss.neg.Classes())
		labels = append(labels, c.Neg.Labels()...)
	}
	sort.Ints(labels)
	// Dedupe: the combined posterior is a map, so a label shared between
	// template sets must contribute to the normalization sum only once.
	uniq := labels[:0]
	for i, l := range labels {
		if i == 0 || l != labels[i-1] {
			uniq = append(uniq, l)
		}
	}
	ss.sortedLabels = uniq
	return ss
}

// tailAlignInto aligns a segment by its end without copying: segments at
// least Length long yield a view of their last Length samples; shorter
// ones are stretched into the reusable buffer with the exact interpolation
// of Trace.Resample.
func (ss *segScorer) tailAlignInto(seg trace.Trace) trace.Trace {
	if len(seg) >= ss.c.Length {
		return seg[len(seg)-ss.c.Length:]
	}
	return seg.ResampleInto(ss.alignBuf)
}

// classify classifies one per-coefficient sub-trace over the reusable
// scoring context: branch first (V1), then the value template of the
// recovered side (V2/V3), with the combined posterior
// P(v) = P(sign)·P(v | sign).
func (ss *segScorer) classify(seg trace.Trace) (*Classification, error) {
	aligned := ss.tailAlignInto(seg)
	signLL, err := ss.sign.ScoreTrace(aligned)
	if err != nil {
		return nil, fmt.Errorf("core: sign classification: %w", err)
	}
	ss.sign.PosteriorValues(signLL, ss.signPost)
	sign := ss.sign.ArgMaxLabel(signLL)

	postAt := func(idx int) float64 {
		if idx < 0 {
			return 0
		}
		return ss.signPost[idx]
	}
	probs := make(map[int]float64, len(ss.sortedLabels))
	probs[0] = postAt(ss.idxZero)
	var posLL, negLL []float64
	if ss.pos != nil {
		posLL, err = ss.pos.ScoreTrace(aligned)
		if err != nil {
			return nil, fmt.Errorf("core: positive value classification: %w", err)
		}
		ss.pos.PosteriorValues(posLL, ss.posPost)
		pSign := postAt(ss.idxPos)
		for ci, p := range ss.posPost {
			probs[ss.pos.Label(ci)] = pSign * p
		}
	}
	if ss.neg != nil {
		negLL, err = ss.neg.ScoreTrace(aligned)
		if err != nil {
			return nil, fmt.Errorf("core: negative value classification: %w", err)
		}
		ss.neg.PosteriorValues(negLL, ss.negPost)
		nSign := postAt(ss.idxNeg)
		for ci, p := range ss.negPost {
			probs[ss.neg.Label(ci)] = nSign * p
		}
	}
	// Normalize in ascending label order (float addition is
	// order-sensitive; map order would make reruns drift in the last bits).
	total := 0.0
	for _, v := range ss.sortedLabels {
		total += probs[v]
	}
	if total > 0 {
		for v := range probs {
			probs[v] /= total
		}
	}

	// Maximum-likelihood value within the recovered sign class, reusing the
	// already-computed value scores (the map-based path recomputed them).
	value := 0
	switch sign {
	case 1:
		if ss.pos == nil {
			return nil, fmt.Errorf("core: no positive templates")
		}
		value = ss.pos.ArgMaxLabel(posLL)
	case -1:
		if ss.neg == nil {
			return nil, fmt.Errorf("core: no negative templates")
		}
		value = ss.neg.ArgMaxLabel(negLL)
	}
	return &Classification{Value: value, Sign: sign, Probs: probs}, nil
}
