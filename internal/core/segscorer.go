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
// the precomputed label layout of the combined posterior. It computes each
// class log-likelihood exactly once per segment and fills the posterior
// map in one insertion pass.
type segScorer struct {
	c              *CoefficientClassifier
	sign, pos, neg *sca.Scorer
	alignBuf       trace.Trace
	// Posterior scratch per template set, indexed by class.
	signPost, posPost, negPost []float64
	// Indices of the −1/0/+1 labels in the sign scorer's class order
	// (−1 when the label is absent — its posterior then reads as 0).
	idxNeg, idxZero, idxPos int
	// sortedLabels is the ascending label set of the combined posterior:
	// negative labels, 0, positive labels. The normalization sum runs in
	// this order (float addition is order-sensitive).
	sortedLabels []int
	// posSlot/negSlot map each value scorer's class index to its entry of
	// sortedLabels; zeroSlot is label 0's entry. combined is the per-label
	// scratch the posterior is assembled in before it becomes a map.
	posSlot, negSlot []int
	zeroSlot         int
	combined         []float64
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
	// template sets gets one slot and contributes to the normalization sum
	// only once.
	uniq := labels[:0]
	for i, l := range labels {
		if i == 0 || l != labels[i-1] {
			uniq = append(uniq, l)
		}
	}
	ss.sortedLabels = uniq
	ss.combined = make([]float64, len(uniq))
	slot := func(l int) int { return sort.SearchInts(uniq, l) }
	ss.zeroSlot = slot(0)
	slots := func(s *sca.Scorer) []int {
		out := make([]int, s.Classes())
		for ci := range out {
			out[ci] = slot(s.Label(ci))
		}
		return out
	}
	if ss.pos != nil {
		ss.posSlot = slots(ss.pos)
	}
	if ss.neg != nil {
		ss.negSlot = slots(ss.neg)
	}
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
	// Assemble P(v) = P(sign)·P(v | sign) per label slot. Writes go 0,
	// positive, negative, so a label shared between template sets keeps
	// the last writer's value.
	comb := ss.combined
	comb[ss.zeroSlot] = postAt(ss.idxZero)
	var posLL, negLL []float64
	if ss.pos != nil {
		posLL, err = ss.pos.ScoreTrace(aligned)
		if err != nil {
			return nil, fmt.Errorf("core: positive value classification: %w", err)
		}
		ss.pos.PosteriorValues(posLL, ss.posPost)
		pSign := postAt(ss.idxPos)
		for ci, p := range ss.posPost {
			comb[ss.posSlot[ci]] = pSign * p
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
			comb[ss.negSlot[ci]] = nSign * p
		}
	}
	// Normalize in ascending label order, then insert each label once.
	total := 0.0
	for _, v := range comb {
		total += v
	}
	probs := make(map[int]float64, len(comb))
	for i, l := range ss.sortedLabels {
		p := comb[i]
		if total > 0 {
			p /= total
		}
		probs[l] = p
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
