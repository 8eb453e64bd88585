package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles latency_tail_s may report, lowest
// first. The reported tail is the highest rung that leaves at least
// minBeyond samples above it, so the figure never rests on a handful of
// outliers.
var tailLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// percentile returns the p-quantile of samples by linear interpolation
// between closest ranks (the "type 7" estimator), computed from the raw
// samples; samples need not be sorted. It returns NaN for an empty input.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

// samplesBeyond is how many of n samples rank strictly above the
// p-quantile's rank ceil(p·n).
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)-1e-9))
}

// tailPercentile picks the highest ladder rung with at least minBeyond of
// n samples beyond it, falling back to the median when n is too small for
// any rung to qualify.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// latencySummary is the latency part of a workload's end-to-end report.
type latencySummary struct {
	N          int
	P50        float64
	TailP      float64
	Tail       float64
	TailBeyond int
}

// summarizeLatency reports the median and the tail at the workload's
// planned rung: the highest rung with minBeyond samples beyond it at the
// run length BENCHMARK.json sets. Keeping the rung fixed keeps runs
// comparable when their sample counts differ a little; a run too short for
// the planned rung steps down to the rung its samples support.
func summarizeLatency(samples []float64, planned float64) latencySummary {
	p := min(planned, tailPercentile(len(samples)))
	return latencySummary{
		N:          len(samples),
		P50:        median(samples),
		TailP:      p,
		Tail:       percentile(samples, p),
		TailBeyond: samplesBeyond(len(samples), p),
	}
}
