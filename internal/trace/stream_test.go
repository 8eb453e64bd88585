package trace

// Streaming decode + incremental segmentation: the StreamReader must be
// bit-exact with ReadSet under any chunking (including partial final
// chunks and truncation at chunk granularity), and the StreamSegmenter
// must reproduce the reference segmentation (segment_test.go) exactly —
// segments spanning chunk boundaries and taller-peak replacement across
// chunks included — while emitting segments before the trace ends.

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// synthTrace builds a deterministic pseudo-random trace with sampler-style
// spikes planted at the given indices: bulk level in [1, 2), spikes ≥ 10.
func synthTrace(n int, peaks []int) Trace {
	t := make(Trace, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		state = state*6364136223846793005 + 1442695040888963407
		t[i] = 1.0 + float64(state>>40)/float64(1<<24)
	}
	for _, p := range peaks {
		t[p] = 10 + float64(p%7)
	}
	return t
}

// streamSegments runs the StreamSegmenter over t in fixed-size chunks and
// returns all emitted segments plus the sample count buffered when the
// first segment was emitted (the streaming-latency witness).
func streamSegments(tb testing.TB, t Trace, cfg StreamSegmenterConfig, chunk int) (segs []Segment, firstAt int) {
	tb.Helper()
	sg, err := NewStreamSegmenter(cfg)
	if err != nil {
		tb.Fatalf("NewStreamSegmenter: %v", err)
	}
	for off := 0; off < len(t); off += chunk {
		end := off + chunk
		if end > len(t) {
			end = len(t)
		}
		out, err := feed(sg, t[off:end])
		if err != nil {
			tb.Fatalf("Feed at %d: %v", off, err)
		}
		if len(out) > 0 && firstAt == 0 {
			firstAt = len(sg.buf)
		}
		segs = append(segs, out...)
	}
	out, err := sg.Flush()
	if err != nil {
		tb.Fatalf("Flush: %v", err)
	}
	segs = append(segs, out...)
	return segs, firstAt
}

func TestStreamSegmenterMatchesBatchAcrossChunkSizes(t *testing.T) {
	peaks := []int{1, 41, 80, 120, 167, 200, 239, 281, 320, 358, 397, 438}
	tr := synthTrace(480, peaks)
	thr := AutoThreshold(tr, 0.5)
	want := refSegments(t, tr, thr, 8)
	if len(want) != len(peaks) {
		t.Fatalf("reference found %d segments, want %d", len(want), len(peaks))
	}
	for _, chunk := range []int{1, 2, 3, 5, 8, 13, 40, 41, 64, 127, 480, 1000} {
		cfg := StreamSegmenterConfig{Want: len(peaks), MinDistance: 8, Threshold: thr}
		got, firstAt := streamSegments(t, tr, cfg, chunk)
		assertSegmentsEqual(t, want, got)
		// Streaming must emit the first segment before the trace ends.
		if chunk < 100 && firstAt >= len(tr) {
			t.Fatalf("chunk %d: first segment only emitted at %d/%d samples", chunk, firstAt, len(tr))
		}
	}
}

func TestStreamSegmenterPeakOnChunkEdge(t *testing.T) {
	// Peaks on both sides of chunk boundaries for chunk = 64: index 64 is
	// the first sample of chunk 1 and 127 the last of chunk 1. 252 and 258
	// are within minDistance 8 of each other with the later one taller
	// (values 10 and 16), so the taller-peak replacement crosses the
	// 256-sample chunk edge.
	runSegmentationRows(t, []segRow{
		{name: "peak on a chunk edge", tr: synthTrace(320, []int{30, 64, 127, 192, 252, 258}),
			want: 5, minDistance: 8, chunks: []int{128},
			bounds: [][2]int{{30, 64}, {64, 127}, {127, 192}, {192, 258}, {258, 320}}},
	})
}

func TestStreamSegmenterAutoCalibration(t *testing.T) {
	// With no explicit threshold the segmenter calibrates over its first
	// window; the spikes tower over the bulk, so the peak set matches the
	// Segmenter's whole-trace AutoThreshold exactly.
	peaks := []int{20, 60, 100, 140, 180, 220, 260, 300, 340, 380}
	tr := synthTrace(420, peaks)
	want := refSegments(t, tr, AutoThreshold(tr, 0.5), 8)
	for _, chunk := range []int{7, 64, 4096} {
		cfg := StreamSegmenterConfig{Want: len(peaks), MinDistance: 8, CalibrationSamples: 128}
		got, _ := streamSegments(t, tr, cfg, chunk)
		assertSegmentsEqual(t, want, got)
	}
	// A trace shorter than the calibration window falls back to
	// whole-trace calibration at Flush — identical to Segmenter's threshold.
	short := synthTrace(90, []int{10, 50})
	cfg := StreamSegmenterConfig{Want: 2, MinDistance: 8, CalibrationSamples: 4096}
	got, _ := streamSegments(t, short, cfg, 7)
	assertSegmentsEqual(t, refSegments(t, short, AutoThreshold(short, 0.5), 8), got)
}

func TestStreamSegmenterCountErrors(t *testing.T) {
	tr := synthTrace(200, []int{20, 60, 100, 140})
	thr := AutoThreshold(tr, 0.5)

	// Too many peaks: detected mid-stream, before the trace ends.
	sg, err := NewStreamSegmenter(StreamSegmenterConfig{Want: 2, MinDistance: 8, Threshold: thr})
	if err != nil {
		t.Fatal(err)
	}
	var fed int
	var streamErr error
	for off := 0; off < len(tr); off += 16 {
		end := off + 16
		if end > len(tr) {
			end = len(tr)
		}
		if _, streamErr = feed(sg, tr[off:end]); streamErr != nil {
			fed = end
			break
		}
	}
	if streamErr == nil {
		t.Fatal("overfull trace was not rejected")
	}
	if fed >= len(tr) {
		t.Fatalf("overcount only detected after the full trace (%d samples)", fed)
	}

	// Too few peaks: detected at Flush, same message family as the batch path.
	sg, err = NewStreamSegmenter(StreamSegmenterConfig{Want: 9, MinDistance: 8, Threshold: thr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := feed(sg, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := sg.Flush(); err == nil {
		t.Fatal("underfull trace was not rejected at Flush")
	}
}

func TestStreamReaderBitExactAcrossChunkSizes(t *testing.T) {
	set := &Set{}
	set.Append(synthTrace(100, []int{10, 50}), 3)
	set.Append(synthTrace(100, []int{20, 70}), -2)
	set.Traces[1][5] = math.NaN()
	set.Traces[1][6] = math.Inf(-1)
	var buf bytes.Buffer
	if err := WriteSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	for _, chunk := range []int{1, 3, 7, 64, 100, 4096} {
		sr, err := NewStreamReader(bytes.NewReader(wire))
		if err != nil {
			t.Fatal(err)
		}
		if sr.count != 2 || sr.samples != 100 {
			t.Fatalf("header %d×%d, want 2×100", sr.count, sr.samples)
		}
		dst := make(Trace, chunk)
		for {
			idx, label, err := sr.NextTrace()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if label != set.Labels[idx] {
				t.Fatalf("trace %d label %d, want %d", idx, label, set.Labels[idx])
			}
			var got Trace
			for {
				n, err := sr.ReadChunk(dst)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, dst[:n]...)
			}
			want := set.Traces[idx]
			if len(got) != len(want) {
				t.Fatalf("trace %d: %d samples, want %d", idx, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("chunk %d trace %d sample %d: bits differ", chunk, idx, j)
				}
			}
		}
		if sr.BytesRead() != int64(len(wire)) {
			t.Fatalf("chunk %d: consumed %d bytes, want %d", chunk, sr.BytesRead(), len(wire))
		}
	}
}

func TestStreamReaderTruncationIsTypedAndChunkGranular(t *testing.T) {
	set := &Set{}
	set.Append(synthTrace(1000, []int{100, 500}), 1)
	var buf bytes.Buffer
	if err := WriteSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	const header = 4 + 12 + 4 // magic + header + one label
	// Keep only 100 of the promised 1000 samples.
	cut := wire[:header+100*8]

	sr, err := NewStreamReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatalf("header parse: %v", err)
	}
	if _, _, err := sr.NextTrace(); err != nil {
		t.Fatal(err)
	}
	dst := make(Trace, 64)
	read := 0
	for {
		n, err := sr.ReadChunk(dst)
		read += n
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("truncation error is not ErrTruncated: %v", err)
			}
			break
		}
	}
	// The failure must surface on the chunk that crosses the cut — after
	// the 64 available-in-full samples, not after a whole-trace read.
	if read != 64 {
		t.Fatalf("read %d samples before failing, want 64 (chunk granularity)", read)
	}

	// ReadSet surfaces the same typed error.
	if _, err := ReadSet(bytes.NewReader(cut)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadSet error = %v, want ErrTruncated", err)
	}
	// Truncated header and truncated label table are typed too.
	for _, n := range []int{2, 9, 17} {
		if _, err := ReadSet(bytes.NewReader(wire[:n])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("ReadSet(%d bytes) error = %v, want ErrTruncated", n, err)
		}
	}
	// Structural corruption is NOT ErrTruncated.
	if _, err := ReadSet(bytes.NewReader([]byte("NOPE00000000----"))); errors.Is(err, ErrTruncated) {
		t.Fatal("bad magic misreported as truncation")
	}
}

func TestStreamReaderSequentialContract(t *testing.T) {
	set := &Set{}
	set.Append(Trace{1, 2, 3}, 0)
	set.Append(Trace{4, 5, 6}, 1)
	var buf bytes.Buffer
	if err := WriteSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.ReadChunk(make(Trace, 1)); err == nil {
		t.Fatal("ReadChunk before NextTrace must fail")
	}
	if _, _, err := sr.NextTrace(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sr.NextTrace(); err == nil {
		t.Fatal("NextTrace over an unconsumed trace must fail")
	}
}

// feed copies one chunk into the segmenter through Window+Commit and
// returns the newly confirmed segments.
func feed(sg *StreamSegmenter, chunk Trace) ([]Segment, error) {
	copy(sg.Window(len(chunk)), chunk)
	return sg.Commit(len(chunk))
}
