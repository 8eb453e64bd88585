package sca

// TopMargin returns P(top1) − P(top2) of one posterior row — the
// per-measurement confidence signal the campaign results aggregate (mean
// margin drops before accuracy does). ok is false for an empty row, which
// contributes nothing to an aggregate.
func TopMargin(probs []float64) (margin float64, ok bool) {
	if len(probs) == 0 {
		return 0, false
	}
	var top1, top2 float64
	for _, p := range probs {
		if p > top1 {
			top1, top2 = p, top1
		} else if p > top2 {
			top2 = p
		}
	}
	return top1 - top2, true
}
