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
// the slot of each class in the classifier's posterior labels. It computes
// each class log-likelihood exactly once per segment and writes the
// posterior straight into the caller's row.
type segScorer struct {
	c              *CoefficientClassifier
	sign, pos, neg *sca.Scorer
	alignBuf       trace.Trace
	// Posterior scratch per template set, indexed by class.
	signPost, posPost, negPost []float64
	// Indices of the −1/0/+1 labels in the sign scorer's class order
	// (−1 when the label is absent — its posterior then reads as 0).
	idxNeg, idxZero, idxPos int
	// posSlot/negSlot map each value scorer's class index to its entry of
	// the classifier's posterior labels; zeroSlot is label 0's entry.
	posSlot, negSlot []int
	zeroSlot         int
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
	labels := c.posteriorLabels()
	ss.zeroSlot = sort.SearchInts(labels, 0)
	slots := func(s *sca.Scorer) []int {
		out := make([]int, s.Classes())
		for ci := range out {
			out[ci] = sort.SearchInts(labels, s.Label(ci))
		}
		return out
	}
	if c.Pos != nil {
		ss.pos = c.Pos.NewScorer()
		ss.posPost = make([]float64, ss.pos.Classes())
		ss.posSlot = slots(ss.pos)
	}
	if c.Neg != nil {
		ss.neg = c.Neg.NewScorer()
		ss.negPost = make([]float64, ss.neg.Classes())
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
// recovered side (V2/V3). It writes the normalised posterior
// P(v) = P(sign)·P(v | sign) into row, one entry per posterior label, and
// returns the maximum-likelihood value and the sign.
func (ss *segScorer) classify(seg trace.Trace, row []float64) (value, sign int, err error) {
	aligned := ss.tailAlignInto(seg)
	signLL, err := ss.sign.ScoreTrace(aligned)
	if err != nil {
		return 0, 0, fmt.Errorf("core: sign classification: %w", err)
	}
	ss.sign.PosteriorValues(signLL, ss.signPost)
	sign = ss.sign.ArgMaxLabel(signLL)

	postAt := func(idx int) float64 {
		if idx < 0 {
			return 0
		}
		return ss.signPost[idx]
	}
	// Assemble P(v) = P(sign)·P(v | sign) per label slot. Writes go 0,
	// positive, negative, so a label shared between template sets keeps
	// the last writer's value.
	row[ss.zeroSlot] = postAt(ss.idxZero)
	var posLL, negLL []float64
	if ss.pos != nil {
		posLL, err = ss.pos.ScoreTrace(aligned)
		if err != nil {
			return 0, 0, fmt.Errorf("core: positive value classification: %w", err)
		}
		ss.pos.PosteriorValues(posLL, ss.posPost)
		pSign := postAt(ss.idxPos)
		for ci, p := range ss.posPost {
			row[ss.posSlot[ci]] = pSign * p
		}
	}
	if ss.neg != nil {
		negLL, err = ss.neg.ScoreTrace(aligned)
		if err != nil {
			return 0, 0, fmt.Errorf("core: negative value classification: %w", err)
		}
		ss.neg.PosteriorValues(negLL, ss.negPost)
		nSign := postAt(ss.idxNeg)
		for ci, p := range ss.negPost {
			row[ss.negSlot[ci]] = nSign * p
		}
	}
	// Normalize in ascending label order (float addition is
	// order-sensitive).
	total := 0.0
	for _, p := range row {
		total += p
	}
	if total > 0 {
		for i := range row {
			row[i] /= total
		}
	}

	// Maximum-likelihood value within the recovered sign class, reusing the
	// already-computed value scores.
	switch sign {
	case 1:
		if ss.pos == nil {
			return 0, 0, fmt.Errorf("core: no positive templates")
		}
		value = ss.pos.ArgMaxLabel(posLL)
	case -1:
		if ss.neg == nil {
			return 0, 0, fmt.Errorf("core: no negative templates")
		}
		value = ss.neg.ArgMaxLabel(negLL)
	}
	return value, sign, nil
}
