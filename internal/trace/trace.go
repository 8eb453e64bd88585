// Package trace provides the oscilloscope-side abstractions of the
// reproduction: trace containers, peak detection and segmentation of a full
// encryption trace into per-coefficient sub-traces (the paper's §III-C),
// resampling for template alignment, and binary/CSV persistence.
package trace

import (
	"fmt"
	"math"
)

// Trace is a single power measurement: one float64 sample per cycle.
type Trace []float64

// Clone returns a copy of the trace.
func (t Trace) Clone() Trace {
	out := make(Trace, len(t))
	copy(out, t)
	return out
}

// Max returns the maximum sample value (or -Inf for an empty trace).
func (t Trace) Max() float64 {
	max := math.Inf(-1)
	for _, v := range t {
		if v > max {
			max = v
		}
	}
	return max
}

// Mean returns the average sample value (0 for an empty trace).
func (t Trace) Mean() float64 {
	if len(t) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range t {
		sum += v
	}
	return sum / float64(len(t))
}

// Resample stretches or compresses the trace to exactly n samples using
// linear interpolation; used to align time-variant sub-traces before
// template matching. n <= 0 yields an empty trace.
func (t Trace) Resample(n int) Trace {
	if n <= 0 {
		return Trace{}
	}
	return t.ResampleInto(make(Trace, n))
}

// ResampleInto is Resample writing into dst (len(dst) samples) without
// allocating. An empty source zero-fills dst and a one-sample source
// broadcasts. It returns dst.
func (t Trace) ResampleInto(dst Trace) Trace {
	n := len(dst)
	if n == 0 {
		return dst
	}
	if len(t) == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	if len(t) == 1 || n == 1 {
		for i := range dst {
			dst[i] = t[0]
		}
		return dst
	}
	scale := float64(len(t)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		pos := float64(i) * scale
		lo := int(pos)
		if lo >= len(t)-1 {
			dst[i] = t[len(t)-1]
			continue
		}
		frac := pos - float64(lo)
		dst[i] = t[lo]*(1-frac) + t[lo+1]*frac
	}
	return dst
}

// Set is a labeled collection of equally-long traces, the unit the template
// builder consumes.
type Set struct {
	Traces []Trace
	Labels []int
}

// Append adds a trace with its label.
func (s *Set) Append(t Trace, label int) {
	s.Traces = append(s.Traces, t)
	s.Labels = append(s.Labels, label)
}

// Len returns the number of traces.
func (s *Set) Len() int { return len(s.Traces) }

// Validate checks labels/traces alignment and equal lengths.
func (s *Set) Validate() error {
	if len(s.Traces) != len(s.Labels) {
		return fmt.Errorf("trace: %d traces but %d labels", len(s.Traces), len(s.Labels))
	}
	if len(s.Traces) == 0 {
		return nil
	}
	n := len(s.Traces[0])
	for i, t := range s.Traces {
		if len(t) != n {
			return fmt.Errorf("trace: trace %d has %d samples, want %d", i, len(t), n)
		}
	}
	return nil
}

// ByLabel groups trace indices by label.
func (s *Set) ByLabel() map[int][]int {
	out := map[int][]int{}
	for i, l := range s.Labels {
		out[l] = append(out[l], i)
	}
	return out
}
