package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrTruncated marks a stream that ended before delivering the bytes its
// header promised. Callers distinguish a short capture (retryable, the
// producer is still writing) from structural corruption (bad magic,
// unsupported version) with errors.Is(err, ErrTruncated).
var ErrTruncated = errors.New("trace: truncated stream")

// StreamReader decodes the RVTS wire format incrementally: the header and
// label table are read up front, then each trace's samples are delivered in
// caller-sized chunks without ever materializing the whole set. Truncation
// is detected at chunk granularity — a header that promises more samples
// than the payload carries fails on the exact chunk that hits the end,
// wrapped in ErrTruncated, instead of after a whole-set read.
type StreamReader struct {
	r       io.Reader
	count   int
	samples int
	labels  []int

	cur      int // index of the trace being read; -1 before the first NextTrace
	consumed int // samples of the current trace already delivered
	read     int64
	buf      []byte // chunk decode scratch, grown to the largest request
}

// NewStreamReader validates the RVTS magic, version, and header bounds and
// reads the label table, leaving the reader positioned before the first
// trace's samples.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	sr := &StreamReader{r: r, cur: -1}
	magic := make([]byte, 4)
	if err := sr.fill(magic, "magic"); err != nil {
		return nil, err
	}
	if string(magic) != setMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	hdr := make([]byte, 12)
	if err := sr.fill(hdr, "header"); err != nil {
		return nil, err
	}
	version := binary.LittleEndian.Uint32(hdr[0:4])
	count := binary.LittleEndian.Uint32(hdr[4:8])
	samples := binary.LittleEndian.Uint32(hdr[8:12])
	if version != setVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	const maxReasonable = 1 << 28
	if uint64(count)*uint64(samples) > maxReasonable {
		return nil, fmt.Errorf("trace: header claims %d×%d samples, refusing", count, samples)
	}
	sr.count, sr.samples = int(count), int(samples)
	if count > 0 {
		lbl := make([]byte, 4*count)
		if err := sr.fill(lbl, "label table"); err != nil {
			return nil, err
		}
		sr.labels = make([]int, count)
		for i := range sr.labels {
			sr.labels[i] = int(int32(binary.LittleEndian.Uint32(lbl[4*i:])))
		}
	}
	return sr, nil
}

// fill reads exactly len(p) bytes, converting a premature end of input into
// an ErrTruncated-wrapped error naming the structure that was cut short.
func (sr *StreamReader) fill(p []byte, what string) error {
	n, err := io.ReadFull(sr.r, p)
	sr.read += int64(n)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("trace: reading %s: got %d of %d bytes: %w", what, n, len(p), ErrTruncated)
	}
	if err != nil {
		return fmt.Errorf("trace: reading %s: %w", what, err)
	}
	return nil
}

// BytesRead reports the total bytes consumed from the underlying reader.
func (sr *StreamReader) BytesRead() int64 { return sr.read }

// NextTrace positions the reader at the next trace's samples and returns
// its index and label. It returns io.EOF after the last trace, and an
// error if the current trace has not been fully consumed — the reader is
// strictly sequential.
func (sr *StreamReader) NextTrace() (idx, label int, err error) {
	if sr.cur >= 0 && sr.consumed < sr.samples {
		return 0, 0, fmt.Errorf("trace: trace %d has %d of %d samples unread",
			sr.cur, sr.samples-sr.consumed, sr.samples)
	}
	if sr.cur+1 >= sr.count {
		return 0, 0, io.EOF
	}
	sr.cur++
	sr.consumed = 0
	return sr.cur, sr.labels[sr.cur], nil
}

// ReadChunk decodes up to len(dst) samples of the current trace into dst
// and returns how many were delivered. The final chunk of a trace may be
// partial (n < len(dst)); after the trace is exhausted ReadChunk returns
// (0, io.EOF) until NextTrace advances. A payload shorter than the header
// promised fails here, on the offending chunk, with ErrTruncated.
func (sr *StreamReader) ReadChunk(dst Trace) (int, error) {
	if sr.cur < 0 {
		return 0, fmt.Errorf("trace: ReadChunk before NextTrace")
	}
	rem := sr.samples - sr.consumed
	if rem == 0 {
		return 0, io.EOF
	}
	n := len(dst)
	if n > rem {
		n = rem
	}
	if n == 0 {
		return 0, nil
	}
	need := 8 * n
	if cap(sr.buf) < need {
		sr.buf = make([]byte, need)
	}
	raw := sr.buf[:need]
	got, err := io.ReadFull(sr.r, raw)
	sr.read += int64(got)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return 0, fmt.Errorf("trace: trace %d: header claims %d samples but payload ends at %d: %w",
			sr.cur, sr.samples, sr.consumed+got/8, ErrTruncated)
	}
	if err != nil {
		return 0, fmt.Errorf("trace: reading trace %d samples: %w", sr.cur, err)
	}
	for i := 0; i < n; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	sr.consumed += n
	return n, nil
}

// DefaultCalibrationSamples is the prefix length StreamSegmenterConfig
// auto-calibrates the peak threshold over when none is given explicitly.
// The sampler-port spikes tower an order of magnitude above the bulk
// instruction-power level, so any window covering a handful of iterations
// separates them as cleanly as Segmenter's whole-trace AutoThreshold.
const DefaultCalibrationSamples = 512

// StreamSegmenterConfig configures an incremental segmenter.
type StreamSegmenterConfig struct {
	// Want is the exact number of segments (peaks) the trace must contain;
	// more is an error as soon as observed, fewer is an error at Flush.
	Want int
	// MinDistance is the minimum peak spacing; of two candidates closer
	// than that the taller wins (values < 1 mean 1).
	MinDistance int
	// Threshold fixes the peak threshold. When 0, the threshold is
	// auto-calibrated with AutoThreshold over the first CalibrationSamples
	// buffered samples (or the whole trace at Flush, matching Segmenter
	// exactly, if the trace is shorter than the window).
	Threshold float64
	// CalibrationSamples sizes the auto-calibration window (0 means
	// DefaultCalibrationSamples).
	CalibrationSamples int
}

// StreamSegmenter holds the package's one peak scan and cutting routine;
// Segmenter runs it over a whole buffer. Here samples arrive in chunks,
// and a Segment is emitted the moment its closing peak is confirmed —
// i.e. once enough subsequent samples have been seen that no later,
// taller local maximum can displace that peak within MinDistance. Over a
// complete trace the emitted peak set and segment boundaries equal
// Segmenter's at the same threshold, regardless of how the samples were
// chunked.
//
// Emitted Segment.Samples are views into the segmenter's internal buffer;
// already-written samples are never mutated, so the views stay valid for
// the segmenter's lifetime even as the buffer grows.
type StreamSegmenter struct {
	cfg     StreamSegmenterConfig
	thr     float64
	calib   bool
	buf     Trace
	peaks   []int
	next    int // next candidate index to scan (requires buf[next+1])
	emitted int // segments already emitted
	flushed bool
	out     []Segment // per-call emission scratch, reused
}

// NewStreamSegmenter validates the config and returns an empty segmenter.
func NewStreamSegmenter(cfg StreamSegmenterConfig) (*StreamSegmenter, error) {
	if cfg.Want < 1 {
		return nil, fmt.Errorf("trace: want %d segments, need at least 1", cfg.Want)
	}
	if cfg.MinDistance < 1 {
		cfg.MinDistance = 1
	}
	if cfg.CalibrationSamples <= 0 {
		cfg.CalibrationSamples = DefaultCalibrationSamples
	}
	sg := &StreamSegmenter{cfg: cfg, next: 1}
	if cfg.Threshold != 0 {
		sg.thr, sg.calib = cfg.Threshold, true
	}
	return sg, nil
}

// Window returns a writable slice of n samples at the tail of the internal
// buffer for zero-copy ingest: decode directly into it, then Commit(m) for
// the m ≤ n samples actually written. The slice is invalidated by any
// other segmenter call.
func (sg *StreamSegmenter) Window(n int) Trace {
	need := len(sg.buf) + n
	if cap(sg.buf) < need {
		grown := 2 * cap(sg.buf)
		if grown < need {
			grown = need
		}
		nb := make(Trace, len(sg.buf), grown)
		copy(nb, sg.buf)
		sg.buf = nb
	}
	return sg.buf[len(sg.buf):need]
}

// Commit appends the first n samples of the last Window to the trace and
// returns the segments whose closing peaks the new samples confirmed. The
// returned slice is reused by the next call.
func (sg *StreamSegmenter) Commit(n int) ([]Segment, error) {
	if sg.flushed {
		return nil, fmt.Errorf("trace: segmenter already flushed")
	}
	if n < 0 || len(sg.buf)+n > cap(sg.buf) {
		return nil, fmt.Errorf("trace: commit of %d samples without a matching window", n)
	}
	sg.buf = sg.buf[:len(sg.buf)+n]
	if err := sg.scan(false); err != nil {
		return nil, err
	}
	return sg.emit(false), nil
}

// Flush marks the end of the trace: the threshold is calibrated over the
// whole buffer if it never was, the remaining samples are scanned, the
// peak count is checked against Want, and every unemitted segment —
// including the final one, which runs to the end of the trace — is
// returned.
func (sg *StreamSegmenter) Flush() ([]Segment, error) {
	if sg.flushed {
		return nil, fmt.Errorf("trace: segmenter already flushed")
	}
	sg.flushed = true
	if len(sg.buf) == 0 {
		return nil, fmt.Errorf("trace: cannot segment an empty trace")
	}
	if err := sg.scan(true); err != nil {
		return nil, err
	}
	if len(sg.peaks) != sg.cfg.Want {
		return nil, fmt.Errorf("trace: found %d sampling peaks, want %d (threshold %.3f)",
			len(sg.peaks), sg.cfg.Want, sg.thr)
	}
	return sg.emit(true), nil
}

// scan advances the peak detection over the unprocessed buffer. A
// candidate is an interior local maximum at or above the threshold; only
// the first sample of a plateau counts, and of two candidates closer than
// MinDistance the taller wins. Only indices whose right neighbour exists
// are scanned; final forces calibration and lets the scan consume the
// last interior index.
func (sg *StreamSegmenter) scan(final bool) error {
	if !sg.calib {
		switch {
		case len(sg.buf) >= sg.cfg.CalibrationSamples:
			sg.thr = AutoThreshold(sg.buf[:sg.cfg.CalibrationSamples], 0.5)
			sg.calib = true
		case final:
			sg.thr = AutoThreshold(sg.buf, 0.5)
			sg.calib = true
		default:
			return nil // not enough samples to pick a threshold yet
		}
	}
	t := sg.buf
	md := sg.cfg.MinDistance
	for i := sg.next; i+1 < len(t); i++ {
		if t[i] < sg.thr {
			continue
		}
		if t[i] < t[i-1] || t[i] < t[i+1] {
			continue
		}
		if t[i] == t[i-1] {
			continue
		}
		if len(sg.peaks) > 0 && i-sg.peaks[len(sg.peaks)-1] < md {
			if t[i] > t[sg.peaks[len(sg.peaks)-1]] {
				sg.peaks[len(sg.peaks)-1] = i
			}
			continue
		}
		sg.peaks = append(sg.peaks, i)
		if len(sg.peaks) > sg.cfg.Want {
			return fmt.Errorf("trace: found %d sampling peaks after %d samples, want %d (threshold %.3f)",
				len(sg.peaks), len(t), sg.cfg.Want, sg.thr)
		}
	}
	if n := len(t) - 1; n > sg.next {
		sg.next = n
	}
	return nil
}

// confirmedPeaks returns how many accepted peaks can no longer change. The
// last peak p is provisional until every candidate index within
// MinDistance of it has been scanned — a later, taller maximum at
// i < p+MinDistance would replace it; earlier peaks are final.
func (sg *StreamSegmenter) confirmedPeaks(final bool) int {
	n := len(sg.peaks)
	if final || n == 0 {
		return n
	}
	if sg.next < sg.peaks[n-1]+sg.cfg.MinDistance {
		return n - 1
	}
	return n
}

// emit returns the segments whose boundaries are now fixed: segment k is
// [peak_k, peak_{k+1}) and emittable once peak k+1 is confirmed; the final
// segment, [peak_last, len), only exists at Flush.
func (sg *StreamSegmenter) emit(final bool) []Segment {
	confirmed := sg.confirmedPeaks(final)
	out := sg.out[:0]
	for sg.emitted+1 < confirmed {
		k := sg.emitted
		out = append(out, Segment{
			Start:   sg.peaks[k],
			End:     sg.peaks[k+1],
			Samples: sg.buf[sg.peaks[k]:sg.peaks[k+1]],
		})
		sg.emitted++
	}
	if final && sg.emitted < len(sg.peaks) {
		k := sg.emitted
		out = append(out, Segment{
			Start:   sg.peaks[k],
			End:     len(sg.buf),
			Samples: sg.buf[sg.peaks[k]:],
		})
		sg.emitted++
	}
	sg.out = out
	return out
}
