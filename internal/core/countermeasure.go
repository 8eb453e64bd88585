package core

import (
	"context"
	"fmt"

	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// CaptureShuffled simulates the shuffling countermeasure the paper
// recommends (§V-A): the device samples the coefficients in a secret
// random order, so the attacker's k-th sub-trace no longer corresponds to
// coefficient k. Returns the trace and the secret permutation (perm[k] is
// the coefficient index sampled k-th), which only the evaluation harness
// may inspect.
func CaptureShuffled(dev *Device, firmware []byte, values []int64,
	metas []sampler.SampleMeta, shufflePRNG sampler.PRNG) (trace.Trace, []int, error) {
	if len(values) != len(metas) {
		return nil, nil, fmt.Errorf("core: %d values but %d metas", len(values), len(metas))
	}
	n := len(values)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	// Fisher-Yates with the device's secret randomness.
	for i := n - 1; i > 0; i-- {
		j := int(sampler.Uint64Below(shufflePRNG, uint64(i+1)))
		perm[i], perm[j] = perm[j], perm[i]
	}
	shuffledValues := make([]int64, n)
	shuffledMetas := make([]sampler.SampleMeta, n)
	for k, idx := range perm {
		shuffledValues[k] = values[idx]
		shuffledMetas[k] = metas[idx]
	}
	tr, err := dev.Capture(firmware, shuffledValues, shuffledMetas)
	if err != nil {
		return nil, nil, err
	}
	return tr, perm, nil
}

// ShuffleEvaluation quantifies what shuffling costs the attacker: the
// per-position accuracy collapses to chance while the per-value (multiset)
// information survives.
type ShuffleEvaluation struct {
	// PositionalAccuracy is the fraction of positions whose recovered
	// value matches the true coefficient at that position.
	PositionalAccuracy float64
	// MultisetAccuracy compares the sorted recovered values with the
	// sorted truth — the information shuffling cannot hide.
	MultisetAccuracy float64
}

// EvaluateShuffledAttack runs the classifier on a shuffled capture and
// scores it against the unshuffled truth.
func EvaluateShuffledAttack(c *CoefficientClassifier, tr trace.Trace, truth []int64, perm []int) (*ShuffleEvaluation, error) {
	segs, err := segmentTrace(context.Background(), trace.NewSegmenter(len(truth)), tr, len(truth))
	if err != nil {
		return nil, err
	}
	res, err := c.AttackSegmentsCtx(context.Background(), segs)
	if err != nil {
		return nil, err
	}
	if len(perm) != len(truth) {
		return nil, fmt.Errorf("core: perm length %d vs truth %d", len(perm), len(truth))
	}
	posOK := 0
	for i, v := range res.Values {
		// The attacker assigns sub-trace i to coefficient i; the device
		// actually sampled coefficient perm[i] there.
		if int64(v) == truth[i] {
			posOK++
		}
	}
	// Multiset comparison: histogram intersection.
	histT := map[int64]int{}
	histR := map[int64]int{}
	for i := range truth {
		histT[truth[i]]++
		histR[int64(res.Values[i])]++
	}
	common := 0
	for v, ct := range histT {
		cr := histR[v]
		if cr < ct {
			common += cr
		} else {
			common += ct
		}
	}
	n := float64(len(truth))
	return &ShuffleEvaluation{
		PositionalAccuracy: float64(posOK) / n,
		MultisetAccuracy:   float64(common) / n,
	}, nil
}
