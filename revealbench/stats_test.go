package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolatesRawSamples(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5},
	} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	// Not a power of two: the figure comes from the samples, not buckets.
	if got := median([]float64{0.0300, 0.0301, 0.0302}); got != 0.0301 {
		t.Errorf("median = %v, want 0.0301", got)
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.50},    // too few for any rung: fall back to the median
		{39, 0.50},   // p75 would leave 9
		{40, 0.75},   // p75 leaves exactly 10
		{99, 0.75},   // p90 would leave 9
		{100, 0.90},  // p90 leaves 10
		{200, 0.95},  // p95 leaves 10
		{999, 0.95},  // p99 would leave 9
		{1000, 0.99}, // p99 leaves 10
		{20000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n >= 20 {
			if b := samplesBeyond(c.n, tailPercentile(c.n)); b < minBeyond {
				t.Errorf("n=%d: only %d samples beyond the chosen rung", c.n, b)
			}
		}
	}
}

func TestSummarizeLatencyKeepsPlannedRung(t *testing.T) {
	samples := make([]float64, 400)
	for i := range samples {
		samples[i] = float64(i)
	}
	s := summarizeLatency(samples, 0.95)
	if s.TailP != 0.95 || s.TailBeyond != 20 || s.N != 400 {
		t.Errorf("planned p95 over 400 samples: got p%v with %d beyond", s.TailP, s.TailBeyond)
	}
	// Too few samples for the planned rung: step down, never report a
	// tail with fewer than ten samples beyond it.
	s = summarizeLatency(samples[:150], 0.95)
	if s.TailP != 0.90 || s.TailBeyond < minBeyond {
		t.Errorf("planned p95 over 150 samples: got p%v with %d beyond", s.TailP, s.TailBeyond)
	}
}
