package sca_test

// FuzzTemplateScore: template scoring on adversarial traces — arbitrary
// float patterns including NaN, ±Inf and huge magnitudes — must never
// panic, and for plausibly-scaled finite inputs must return a normalized
// posterior over exactly the trained labels that agrees with the
// per-class-solve reference within testkit.OracleTol.
//
// FuzzReadTemplates: the template decoder must never panic or allocate
// beyond the bytes present, and whatever it accepts must re-encode to the
// exact bytes it consumed.

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"reveal/internal/sca"
	"reveal/internal/testkit"
	"reveal/internal/trace"
)

var fuzzTemplates struct {
	once sync.Once
	tpl  *sca.Templates
	ref  *testkit.RefTemplates
	err  error
}

func fuzzTpl() (*sca.Templates, *testkit.RefTemplates, error) {
	fuzzTemplates.once.Do(func() {
		r := testkit.NewRNG(71)
		set := synthSet(r, 30, 40)
		opts := sca.DefaultTemplateOptions()
		opts.POICount = 8
		ft := &fuzzTemplates
		if ft.tpl, ft.err = sca.BuildTemplates(set, opts); ft.err != nil {
			return
		}
		var buf bytes.Buffer
		if ft.err = sca.WriteTemplates(&buf, ft.tpl); ft.err != nil {
			return
		}
		ft.ref, ft.err = testkit.DecodeRefTemplates(buf.Bytes())
	})
	return fuzzTemplates.tpl, fuzzTemplates.ref, fuzzTemplates.err
}

// samplesFromBytes reinterprets fuzz bytes as float64 samples, padded to
// the trace length the templates were trained on.
func samplesFromBytes(data []byte, length int) trace.Trace {
	tr := make(trace.Trace, length)
	for i := 0; i < length; i++ {
		if (i+1)*8 <= len(data) {
			tr[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
	}
	return tr
}

func FuzzTemplateScore(f *testing.F) {
	mk := func(vals ...float64) []byte {
		out := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
		}
		return out
	}
	f.Add(mk(0, 0.5, -0.5, 1, -1))
	f.Add(mk(math.NaN(), math.Inf(1), math.Inf(-1)))
	f.Add(mk(1e308, -1e308, 1e-308))
	f.Add(mk())
	f.Add([]byte{1, 2, 3}) // not even one float
	f.Fuzz(func(t *testing.T, data []byte) {
		tpl, ref, err := fuzzTpl()
		if err != nil {
			t.Fatal(err)
		}
		tr := samplesFromBytes(data, 40)
		probs, err := posterior(tpl, tr)
		if err != nil {
			return
		}
		labels := tpl.Labels()
		if len(probs) != len(labels) {
			t.Fatalf("posterior over %d classes, trained %d", len(probs), len(labels))
		}
		wellScaled := true
		for _, v := range tr {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				wellScaled = false
				break
			}
		}
		if !wellScaled {
			return // only the no-panic guarantee applies
		}
		sum := 0.0
		for _, l := range labels {
			p := probs[l]
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("posterior[%d] = %v for finite input", l, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("posterior sums to %v for finite input", sum)
		}
		// The whitened scores agree with the per-class-solve reference.
		s := tpl.NewScorer()
		ll, err := s.ScoreTrace(tr)
		if err != nil {
			t.Fatalf("ScoreTrace failed after the posterior succeeded: %v", err)
		}
		want, err := ref.LogLikelihoods(tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := testkit.CheckScores(ll, want); err != nil {
			t.Fatalf("scorer vs reference: %v", err)
		}
	})
}

// templateStreamSize is the byte length of a v2 stream with the given
// header: magic and four header words, the POIs, then per class a label,
// a count, the mean, the factor, the inverse and the log-determinant.
func templateStreamSize(d, classes int) int {
	return 4 + 16 + 4*d + classes*(8+8*d+16*d*d+8)
}

func FuzzReadTemplates(f *testing.F) {
	// Seeds stay small: the fuzzer minimizes every new input it finds, at
	// a cost that grows with the input's length.
	tiny, err := sca.BuildTemplatesAtPOIs(synthSet(testkit.NewRNG(72), 10, 8), []int{1, 4}, sca.DefaultTemplateOptions())
	if err != nil {
		f.Fatal(err)
	}
	var blob bytes.Buffer
	if err := sca.WriteTemplates(&blob, tiny); err != nil {
		f.Fatal(err)
	}
	f.Add(blob.Bytes())
	header := func(version, pooled, d, classes uint32, body int) []byte {
		out := []byte("SCTM")
		for _, v := range []uint32{version, pooled, d, classes} {
			out = binary.LittleEndian.AppendUint32(out, v)
		}
		return append(out, make([]byte, body)...)
	}
	f.Add(header(2, 1, 4096, 4096, 20)) // lying header, tiny body
	f.Add(header(2, 1, 64, 1, 4*64+64)) // POIs present, factor missing
	f.Add(header(2, 0, 2, 2, 200))      // per-class covariance
	f.Add(header(1, 1, 2, 2, 0))        // stale version
	f.Add([]byte("SCTM"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tpl, err := sca.ReadTemplates(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := sca.WriteTemplates(&buf, tpl); err != nil {
			t.Fatalf("re-encoding accepted templates: %v", err)
		}
		n := templateStreamSize(len(tpl.POIs), len(tpl.Labels()))
		if n > len(data) || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("accepted %d-byte stream re-encodes to %d different bytes", len(data), buf.Len())
		}
		s := tpl.NewScorer()
		if _, err := s.ScoreVector(make([]float64, len(tpl.POIs))); err != nil {
			t.Fatalf("scoring accepted templates: %v", err)
		}
	})
}
