package trace

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// refFindPeaks is the reference peak finder the segmenters are checked
// against: the indices of local maxima at or above threshold, with at
// least minDistance samples between accepted peaks (the larger peak wins
// in a conflict). It is deliberately a separate, straightforward
// implementation of the same rule StreamSegmenter.scan applies.
func refFindPeaks(t Trace, threshold float64, minDistance int) []int {
	if minDistance < 1 {
		minDistance = 1
	}
	var peaks []int
	for i := 1; i < len(t)-1; i++ {
		if t[i] < threshold {
			continue
		}
		if t[i] < t[i-1] || t[i] < t[i+1] {
			continue
		}
		// Plateau handling: only take the first sample of a plateau.
		if t[i] == t[i-1] {
			continue
		}
		if len(peaks) > 0 && i-peaks[len(peaks)-1] < minDistance {
			// Keep the taller of the two.
			if t[i] > t[peaks[len(peaks)-1]] {
				peaks[len(peaks)-1] = i
			}
			continue
		}
		peaks = append(peaks, i)
	}
	return peaks
}

// refSegmentByPeaks cuts the trace at each peak index: segment k covers
// [peak_k, peak_{k+1}) and the last segment runs to the end of the trace.
func refSegmentByPeaks(t Trace, peaks []int) ([]Segment, error) {
	if len(peaks) == 0 {
		return nil, fmt.Errorf("trace: no peaks to segment by")
	}
	segs := make([]Segment, 0, len(peaks))
	for k, p := range peaks {
		end := len(t)
		if k+1 < len(peaks) {
			end = peaks[k+1]
		}
		if p >= end {
			return nil, fmt.Errorf("trace: invalid peak ordering at %d", k)
		}
		segs = append(segs, Segment{Start: p, End: end, Samples: t[p:end].Clone()})
	}
	return segs, nil
}

// refSegments is the reference for a segmentation at an explicit
// threshold.
func refSegments(tb testing.TB, t Trace, thr float64, minDistance int) []Segment {
	tb.Helper()
	segs, err := refSegmentByPeaks(t, refFindPeaks(t, thr, minDistance))
	if err != nil {
		tb.Fatalf("reference segmentation: %v", err)
	}
	return segs
}

// refSegment is the reference for Segmenter.Segment: whole-trace
// AutoThreshold, then exactly want peaks or an error.
func refSegment(t Trace, want, minDistance int) ([]Segment, error) {
	if len(t) == 0 {
		return nil, fmt.Errorf("trace: cannot segment an empty trace")
	}
	if want < 1 {
		return nil, fmt.Errorf("trace: want %d segments, need at least 1", want)
	}
	peaks := refFindPeaks(t, AutoThreshold(t, 0.5), minDistance)
	if len(peaks) != want {
		return nil, fmt.Errorf("trace: found %d sampling peaks, want %d", len(peaks), want)
	}
	return refSegmentByPeaks(t, peaks)
}

// spikedTrace builds a synthetic encryption trace with `coeffs` port
// spikes separated by gap samples (plus jitter from the seed).
func spikedTrace(coeffs, gap int, seed uint64) Trace {
	tr := make(Trace, 0, coeffs*(gap+1)+gap)
	s := seed
	noise := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(int64(s>>40)) / float64(1<<25) * 0.05
	}
	for i := 0; i < gap; i++ {
		tr = append(tr, 0.1+noise())
	}
	for c := 0; c < coeffs; c++ {
		tr = append(tr, 4.0+noise())
		extra := int(s>>60) % 3
		for i := 0; i < gap+extra; i++ {
			tr = append(tr, 0.1+noise())
		}
	}
	return tr
}

// streamSegmentWhole runs a StreamSegmenter over t in fixed-size chunks at
// Segmenter's threshold and returns every emitted segment, or the first
// error.
func streamSegmentWhole(t Trace, want, minDistance, chunk int) ([]Segment, error) {
	sg, err := NewStreamSegmenter(StreamSegmenterConfig{
		Want:               want,
		MinDistance:        minDistance,
		Threshold:          AutoThreshold(t, 0.5),
		CalibrationSamples: len(t) + 1,
	})
	if err != nil {
		return nil, err
	}
	var segs []Segment
	for off := 0; off < len(t); off += chunk {
		out, err := sg.Feed(t[off:min(off+chunk, len(t))])
		if err != nil {
			return nil, err
		}
		segs = append(segs, out...)
	}
	out, err := sg.Flush()
	if err != nil {
		return nil, err
	}
	return append(segs, out...), nil
}

// segRow is one segmentation case of the shared table.
type segRow struct {
	name        string
	tr          Trace
	want        int
	minDistance int
	errSub      string   // non-empty: segmentation must fail with this in the message
	bounds      [][2]int // when set, the expected segment boundaries
	chunks      []int    // extra StreamSegmenter chunk sizes
}

// runSegmentationRows runs each case through Segmenter.Segment (one
// Segmenter reused across the rows and a fresh one) and through
// StreamSegmenter at chunk sizes {1, 7, 64, len+1} plus the row's own,
// against the reference. Errors must agree with the reference; successes
// must match its boundaries and samples bit for bit.
func runSegmentationRows(t *testing.T, rows []segRow) {
	t.Helper()
	check := func(t *testing.T, how string, ref, got []Segment, err error, r segRow) {
		t.Helper()
		if r.errSub != "" {
			if err == nil {
				t.Fatalf("%s: got %d segments, want an error mentioning %q", how, len(got), r.errSub)
			}
			if !strings.Contains(err.Error(), r.errSub) {
				t.Fatalf("%s: error %q does not mention %q", how, err, r.errSub)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		assertSegmentsEqual(t, ref, got)
	}
	// A small hint, so the reused Segmenter's buffers must grow.
	shared := NewSegmenter(2)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			ref, refErr := refSegment(r.tr, r.want, r.minDistance)
			if (refErr != nil) != (r.errSub != "") {
				t.Fatalf("reference error = %v, want error %v", refErr, r.errSub != "")
			}
			if r.bounds != nil {
				if len(ref) != len(r.bounds) {
					t.Fatalf("reference has %d segments, want %d", len(ref), len(r.bounds))
				}
				for k, b := range r.bounds {
					if ref[k].Start != b[0] || ref[k].End != b[1] {
						t.Fatalf("reference segment %d: [%d,%d), want [%d,%d)", k, ref[k].Start, ref[k].End, b[0], b[1])
					}
				}
			}
			got, err := shared.Segment(r.tr, r.want, r.minDistance)
			check(t, "reused Segmenter", ref, got, err, r)
			got, err = NewSegmenter(r.want).Segment(r.tr, r.want, r.minDistance)
			check(t, "fresh Segmenter", ref, got, err, r)
			for _, chunk := range append([]int{1, 7, 64, len(r.tr) + 1}, r.chunks...) {
				got, err := streamSegmentWhole(r.tr, r.want, r.minDistance, chunk)
				check(t, fmt.Sprintf("StreamSegmenter chunk %d", chunk), ref, got, err, r)
			}
		})
	}
}

// The segmentation entry points must reject degenerate inputs with errors,
// never panic: an attacker-facing tool sees malformed captures routinely
// (truncated scope buffers, mis-triggered acquisitions, patched kernels
// with no sampler-port peaks).

func TestSegmentEncryptionTraceEmptyTrace(t *testing.T) {
	runSegmentationRows(t, []segRow{
		{name: "nil trace", tr: nil, want: 4, minDistance: 8, errSub: "empty"},
		{name: "empty trace", tr: Trace{}, want: 4, minDistance: 8, errSub: "empty"},
	})
}

func TestSegmentEncryptionTraceInvalidWant(t *testing.T) {
	runSegmentationRows(t, []segRow{
		{name: "want 0", tr: Trace{0, 0, 10, 0, 0}, want: 0, minDistance: 8, errSub: "at least 1"},
		{name: "want -3", tr: Trace{0, 0, 10, 0, 0}, want: -3, minDistance: 8, errSub: "at least 1"},
	})
}

func TestSegmentEncryptionTraceNoSentinelPeak(t *testing.T) {
	// A flat trace (e.g. the branch-free patched kernel with the port
	// spike suppressed) has no peaks above the auto threshold.
	flat := make(Trace, 200)
	for i := range flat {
		flat[i] = 1.0
	}
	// Monotone ramp: local maxima only at the boundary, which the scan
	// excludes — still no peaks, still an error, no panic.
	ramp := make(Trace, 100)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	runSegmentationRows(t, []segRow{
		{name: "flat ones", tr: flat, want: 4, minDistance: 8, errSub: "sampling peaks"},
		{name: "monotone ramp", tr: ramp, want: 1, minDistance: 8, errSub: "sampling peaks"},
	})
}

func TestSegmentEncryptionTraceSingleCoefficient(t *testing.T) {
	// One sampling peak: the single-coefficient capture must segment into
	// exactly one sub-trace running from the peak to the end, and a count
	// mismatch (asking for two coefficients) must error.
	single := make(Trace, 40)
	single[8] = 10
	runSegmentationRows(t, []segRow{
		{name: "single coefficient", tr: single, want: 1, minDistance: 4, bounds: [][2]int{{8, 40}}},
		{name: "single coefficient, want 2", tr: single, want: 2, minDistance: 4, errSub: "sampling peaks"},
	})
}

func TestFindPeaksDegenerateInputs(t *testing.T) {
	// Tiny traces have no interior samples; they must yield no peaks, not
	// an index out of range.
	runSegmentationRows(t, []segRow{
		{name: "nil trace", tr: nil, want: 1, minDistance: 1, errSub: "empty"},
		{name: "empty trace", tr: Trace{}, want: 1, minDistance: 1, errSub: "empty"},
		{name: "one sample", tr: Trace{1}, want: 1, minDistance: 1, errSub: "sampling peaks"},
		{name: "two samples", tr: Trace{1, 2}, want: 1, minDistance: 1, errSub: "sampling peaks"},
	})
}

func TestSegmentByPeaksNoPeaks(t *testing.T) {
	runSegmentationRows(t, []segRow{
		{name: "no interior peak", tr: Trace{1, 2, 3}, want: 1, minDistance: 1, errSub: "sampling peaks"},
	})
}

func TestFindPeaks(t *testing.T) {
	runSegmentationRows(t, []segRow{
		{name: "two peaks, small one below threshold", tr: Trace{0, 0, 5, 0, 0, 0, 7, 0, 1, 0},
			want: 2, minDistance: 2, bounds: [][2]int{{2, 6}, {6, 10}}},
		{name: "taller peak wins within minDistance", tr: Trace{0, 8, 0, 9, 0, 0, 0, 0, 0, 0},
			want: 1, minDistance: 5, bounds: [][2]int{{3, 10}}},
	})
	// The same rules at explicit thresholds, through StreamSegmenter.
	tr := Trace{0, 0, 5, 0, 0, 0, 7, 0, 1, 0}
	got, _ := streamSegments(t, tr, StreamSegmenterConfig{Want: 2, MinDistance: 2, Threshold: 3}, 3)
	assertSegmentsEqual(t, refSegments(t, tr, 3, 2), got)
	if got[0].Start != 2 || got[1].Start != 6 {
		t.Errorf("peaks at %d, %d, want 2, 6", got[0].Start, got[1].Start)
	}
	// minDistance merging keeps the taller peak.
	tr2 := Trace{0, 5, 0, 9, 0}
	got, _ = streamSegments(t, tr2, StreamSegmenterConfig{Want: 1, MinDistance: 5, Threshold: 3}, 2)
	assertSegmentsEqual(t, refSegments(t, tr2, 3, 5), got)
	if got[0].Start != 3 {
		t.Errorf("merged peak at %d, want 3", got[0].Start)
	}
	// Above the maximum: no peaks.
	if peaks := refFindPeaks(tr, 100, 1); len(peaks) != 0 {
		t.Fatalf("reference found peaks above the maximum: %v", peaks)
	}
	sg, err := NewStreamSegmenter(StreamSegmenterConfig{Want: 1, MinDistance: 1, Threshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sg.Feed(tr); err != nil {
		t.Fatal(err)
	}
	if segs, err := sg.Flush(); err == nil {
		t.Errorf("threshold above the maximum: got %d segments, want an error", len(segs))
	}
}

func TestSegmentByPeaks(t *testing.T) {
	// The last segment runs to the trace end; the first sample cannot be a
	// peak (it has no left neighbour).
	runSegmentationRows(t, []segRow{
		{name: "first sample cannot be a peak", tr: Trace{9, 1, 2, 9, 1, 2, 9, 1},
			want: 2, minDistance: 1, bounds: [][2]int{{3, 6}, {6, 8}}},
	})
}

func TestSegmentEncryptionTrace(t *testing.T) {
	// Four spikes of height 10 over a noise floor ~1, after one low sample
	// (a peak needs a left neighbour).
	fourSpikes := Trace{0}
	for k := 0; k < 4; k++ {
		fourSpikes = append(fourSpikes, 10)
		for i := 0; i < 20; i++ {
			fourSpikes = append(fourSpikes, 1+0.01*float64(i%3))
		}
	}
	runSegmentationRows(t, []segRow{
		{name: "four spikes", tr: fourSpikes, want: 4, minDistance: 5,
			bounds: [][2]int{{1, 22}, {22, 43}, {43, 64}, {64, 85}}},
		{name: "four spikes, want 5", tr: fourSpikes, want: 5, minDistance: 5, errSub: "sampling peaks"},
	})
}

// TestSegmentation holds the cases that no other segmentation test covers.
func TestSegmentation(t *testing.T) {
	runSegmentationRows(t, []segRow{
		{name: "plateau takes its first sample", tr: Trace{0, 1, 6, 6, 6, 1, 0, 0, 0, 0, 6, 1, 0},
			want: 2, minDistance: 2, bounds: [][2]int{{2, 10}, {10, 13}}},
		{name: "spiked 65", tr: spikedTrace(65, 14, 5), want: 65, minDistance: 8},
	})
}

// TestSegmenterMatchesSegmentEncryptionTrace: the buffer-reusing segmenter
// produces the reference boundaries and bitwise-equal samples across
// repeated reuse.
func TestSegmenterMatchesSegmentEncryptionTrace(t *testing.T) {
	var rows []segRow
	for rep := 0; rep < 5; rep++ {
		rows = append(rows, segRow{name: fmt.Sprintf("spiked rep %d", rep),
			tr: spikedTrace(5+rep, 12, uint64(rep)*31+7), want: 5 + rep, minDistance: 8})
	}
	runSegmentationRows(t, rows)
}

func TestSegmenterErrors(t *testing.T) {
	runSegmentationRows(t, []segRow{
		{name: "empty trace", tr: Trace{}, want: 4, minDistance: 8, errSub: "empty"},
		{name: "want 0", tr: Trace{1, 2, 3}, want: 0, minDistance: 8, errSub: "at least 1"},
		{name: "flat zeros", tr: make(Trace, 64), want: 4, minDistance: 8, errSub: "sampling peaks"},
	})
	if sg := NewSegmenter(-3); cap(sg.s.peaks) != 0 {
		t.Error("negative hint should clamp to zero")
	}
}

// TestFindPeaksIntoMatchesFindPeaks: the reused peak buffer (starting at a
// capacity of 2) finds the reference peaks, including when there are more
// peaks than wanted and when minDistance is clamped.
func TestFindPeaksIntoMatchesFindPeaks(t *testing.T) {
	tr := spikedTrace(9, 10, 99)
	runSegmentationRows(t, []segRow{
		{name: "too many peaks", tr: tr, want: 5, minDistance: 8, errSub: "sampling peaks"},
		{name: "minDistance 8", tr: tr, want: 9, minDistance: 8},
		{name: "minDistance 0 clamps to 1", tr: tr, want: 9, minDistance: 0},
	})
}

// segmentConcurrently segments every trace of a set on workers
// goroutines, one Segmenter each, and returns each trace's segments
// (cloned) or error in input order.
func segmentConcurrently(traces []Trace, want, minDistance, workers int) ([][]Segment, []error) {
	out := make([][]Segment, len(traces))
	errs := make([]error, len(traces))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sg := NewSegmenter(want)
			for i := w; i < len(traces); i += workers {
				segs, err := sg.Segment(traces[i], want, minDistance)
				if err != nil {
					errs[i] = err
					continue
				}
				// Own copies: the Segmenter's views die on its next call.
				own := make([]Segment, len(segs))
				for k, s := range segs {
					own[k] = Segment{Start: s.Start, End: s.End, Samples: s.Samples.Clone()}
				}
				out[i] = own
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// TestSegmentSetParallelMatchesSerial: segmenting a trace set on several
// goroutines, one Segmenter each, gives every trace its serial reference
// segmentation.
func TestSegmentSetParallelMatchesSerial(t *testing.T) {
	const coeffs = 6
	traces := make([]Trace, 9)
	var rows []segRow
	for i := range traces {
		traces[i] = spikedTrace(coeffs, 11, uint64(i)*131+1)
		rows = append(rows, segRow{name: fmt.Sprintf("spiked 6 #%d", i), tr: traces[i], want: coeffs, minDistance: 8})
	}
	runSegmentationRows(t, rows)
	for _, workers := range []int{1, 3, 16} {
		got, errs := segmentConcurrently(traces, coeffs, 8, workers)
		for i, tr := range traces {
			if errs[i] != nil {
				t.Fatalf("workers=%d trace %d: %v", workers, i, errs[i])
			}
			want, err := refSegment(tr, coeffs, 8)
			if err != nil {
				t.Fatal(err)
			}
			assertSegmentsEqual(t, want, got[i])
		}
	}
}

// TestSegmentSetParallelError: a trace without peaks fails on its own
// goroutine and leaves the other traces of the set unaffected.
func TestSegmentSetParallelError(t *testing.T) {
	traces := []Trace{
		spikedTrace(6, 11, 1),
		make(Trace, 64), // flat: no peaks
		spikedTrace(6, 11, 2),
	}
	got, errs := segmentConcurrently(traces, 6, 8, 2)
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "sampling peaks") {
		t.Fatalf("flat trace: error %v, want a peak-count error", errs[1])
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("trace %d: %v", i, errs[i])
		}
		want, err := refSegment(traces[i], 6, 8)
		if err != nil {
			t.Fatal(err)
		}
		assertSegmentsEqual(t, want, got[i])
	}
}

// TestSegmenterSegmentsAreViews: Segment copies nothing — each segment
// aliases the input trace.
func TestSegmenterSegmentsAreViews(t *testing.T) {
	tr := spikedTrace(6, 11, 3)
	segs, err := NewSegmenter(6).Segment(tr, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range segs {
		if &s.Samples[0] != &tr[s.Start] {
			t.Fatalf("segment %d does not alias the trace", k)
		}
	}
}

func assertSegmentsEqual(t *testing.T, want, got []Segment) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("segment count %d, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k].Start != want[k].Start || got[k].End != want[k].End {
			t.Fatalf("segment %d: [%d,%d), want [%d,%d)",
				k, got[k].Start, got[k].End, want[k].Start, want[k].End)
		}
		if len(got[k].Samples) != len(want[k].Samples) {
			t.Fatalf("segment %d: %d samples, want %d", k, len(got[k].Samples), len(want[k].Samples))
		}
		for j := range want[k].Samples {
			if math.Float64bits(got[k].Samples[j]) != math.Float64bits(want[k].Samples[j]) {
				t.Fatalf("segment %d sample %d: %x, want %x", k, j,
					math.Float64bits(got[k].Samples[j]), math.Float64bits(want[k].Samples[j]))
			}
		}
	}
}

func BenchmarkSegment(b *testing.B) {
	tr := spikedTrace(65, 14, 5)
	sg := NewSegmenter(65)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sg.Segment(tr, 65, 8); err != nil {
			b.Fatal(err)
		}
	}
}
