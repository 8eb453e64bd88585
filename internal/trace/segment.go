package trace

import "fmt"

// AutoThreshold picks a peak threshold between the trace's bulk level and
// its maximum: mean + frac·(max − mean). frac = 0.5 works well for the
// port-spike peaks the synthesizer produces.
func AutoThreshold(t Trace, frac float64) float64 {
	return t.Mean() + frac*(t.Max()-t.Mean())
}

// Segment is one per-coefficient sub-trace with its boundaries in the full
// trace.
type Segment struct {
	Start, End int // sample range [Start, End)
	Samples    Trace
}

// Segmenter cuts whole encryption traces into per-coefficient sub-traces
// (the paper's §III-C): it locates the sampler-port peaks that mark the
// start of each coefficient's sampling (Fig. 3a) and cuts the trace at
// them. It is the whole-buffer form of StreamSegmenter and runs the same
// peak scan and cutting code, so its peak and segment buffers are reused
// across calls. One Segmenter serves one goroutine.
type Segmenter struct {
	s StreamSegmenter
}

// NewSegmenter returns a Segmenter sized for traces with about the given
// number of coefficients (a hint; buffers grow as needed).
func NewSegmenter(coeffHint int) *Segmenter {
	if coeffHint < 0 {
		coeffHint = 0
	}
	return &Segmenter{s: StreamSegmenter{
		peaks: make([]int, 0, coeffHint),
		out:   make([]Segment, 0, coeffHint),
	}}
}

// Segment cuts t into exactly want sub-traces: the peak threshold is
// AutoThreshold(t, 0.5) over the whole trace, peaks closer than
// minDistance keep the taller one, segment k covers [peak_k, peak_{k+1})
// and the last runs to the end of the trace. A peak count other than want
// is an error, which signals mis-calibration of the threshold.
//
// Segment adopts t as the segmenter's buffer without copying it: the
// returned segments are views into t, and the slice is owned by the
// Segmenter, which reuses it on the next Segment call. Callers that need
// the sub-traces to outlive t must Clone them.
func (sg *Segmenter) Segment(t Trace, want int, minDistance int) ([]Segment, error) {
	if want < 1 {
		return nil, fmt.Errorf("trace: want %d segments, need at least 1", want)
	}
	if minDistance < 1 {
		minDistance = 1
	}
	sg.s = StreamSegmenter{
		cfg:   StreamSegmenterConfig{Want: want, MinDistance: minDistance},
		thr:   AutoThreshold(t, 0.5),
		calib: true,
		buf:   t,
		peaks: sg.s.peaks[:0],
		next:  1,
		out:   sg.s.out,
	}
	return sg.s.Flush()
}
