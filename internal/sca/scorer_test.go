package sca

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"reveal/internal/linalg"
	"reveal/internal/testkit"
	"reveal/internal/trace"
)

// classify returns the maximum-likelihood label of tr.
func classify(tmpl *Templates, tr trace.Trace) (int, error) {
	s := tmpl.NewScorer()
	ll, err := s.ScoreTrace(tr)
	if err != nil {
		return 0, err
	}
	return s.ArgMaxLabel(ll), nil
}

// referenceOf decodes the serialized template set into the per-class-solve
// reference of internal/testkit: the scorer's math before whitening.
func referenceOf(t testing.TB, tmpl *Templates) *testkit.RefTemplates {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTemplates(&buf, tmpl); err != nil {
		t.Fatal(err)
	}
	ref, err := testkit.DecodeRefTemplates(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// trainedScorerFixture trains d-POI templates over five classes and returns
// them with fresh attack traces of the same shape.
func trainedScorerFixture(t testing.TB, d int) (*Templates, *trace.Set) {
	t.Helper()
	labels := []int{-3, -1, 0, 2, 5}
	train := synthSet(7, labels, 60, 96, 0.08)
	opts := DefaultTemplateOptions()
	opts.POICount = d
	tmpl, err := BuildTemplates(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tmpl.POIs) != d {
		t.Fatalf("trained %d POIs, want %d", len(tmpl.POIs), d)
	}
	return tmpl, synthSet(99, labels, 8, 96, 0.08)
}

// TestScorerMatchesReference: the whitened scorer agrees with the
// per-class-solve reference within testkit.OracleTol — every
// log-likelihood, every posterior, and the argmax — on 12- and 28-POI
// templates.
func TestScorerMatchesReference(t *testing.T) {
	for _, d := range []int{12, 28} {
		tmpl, test := trainedScorerFixture(t, d)
		ref := referenceOf(t, tmpl)
		s := tmpl.NewScorer()
		post := make([]float64, s.Classes())
		for i, tr := range test.Traces {
			want, err := ref.LogLikelihoods(tr)
			if err != nil {
				t.Fatal(err)
			}
			ll, err := s.ScoreTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := testkit.CheckScores(ll, want); err != nil {
				t.Fatalf("d=%d trace %d: %v", d, i, err)
			}
			wantPost, err := ref.Probabilities(tr)
			if err != nil {
				t.Fatal(err)
			}
			s.PosteriorValues(ll, post)
			for ci, p := range post {
				if dp := math.Abs(p - wantPost[s.Label(ci)]); dp > testkit.OracleTol {
					t.Fatalf("d=%d trace %d: posterior[%d] off by %g", d, i, s.Label(ci), dp)
				}
			}
			wantBest, err := ref.Classify(tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.ArgMaxLabel(ll); got != wantBest {
				t.Fatalf("d=%d trace %d: argmax %d, reference %d", d, i, got, wantBest)
			}
		}
	}
}

// TestScorerErrors covers the shape guards.
func TestScorerErrors(t *testing.T) {
	tmpl, _ := trainedScorerFixture(t, 12)
	s := tmpl.NewScorer()
	if _, err := s.ScoreTrace(make(trace.Trace, 2)); err == nil {
		t.Error("short trace should fail")
	}
	if _, err := s.ScoreVector(make([]float64, 1)); err == nil {
		t.Error("wrong feature width should fail")
	}
}

// TestTemplatesPrecomputedStructures: training leaves the pooled inverse
// covariance, log-determinant and whitened means consistent with the
// stored Cholesky factor.
func TestTemplatesPrecomputedStructures(t *testing.T) {
	tmpl, _ := trainedScorerFixture(t, 12)
	d := len(tmpl.POIs)
	if ld := tmpl.logDet; math.IsNaN(ld) || math.IsInf(ld, 0) || ld != tmpl.fact.LogDet() {
		t.Fatalf("bad log-determinant %v", ld)
	}
	// Σ · Σ⁻¹ ≈ I, with Σ reconstructed from the stored factor.
	cov, err := tmpl.chol.Mul(tmpl.chol.Transpose())
	if err != nil {
		t.Fatal(err)
	}
	prod, err := cov.Mul(tmpl.invCov)
	if err != nil {
		t.Fatal(err)
	}
	if dmax := linalg.MaxAbsDiff(prod, linalg.Identity(d)); dmax > 1e-8 {
		t.Fatalf("|Σ·Σ⁻¹ − I| = %g", dmax)
	}
	// L · (L⁻¹μ) ≈ μ for every class.
	for _, c := range tmpl.classes {
		back, err := tmpl.chol.MulVec(c.white)
		if err != nil {
			t.Fatal(err)
		}
		for i := range back {
			if math.Abs(back[i]-c.mean[i]) > 1e-12*math.Max(1, math.Abs(c.mean[i])) {
				t.Fatalf("label %d: L·white[%d] = %v, mean %v", c.label, i, back[i], c.mean[i])
			}
		}
	}
}

// TestSerializationCarriesPrecomputed: a v2 round trip preserves the
// factor, inverse covariance, log-determinant and whitened means bit for
// bit, and scoring stays bitwise identical.
func TestSerializationCarriesPrecomputed(t *testing.T) {
	tmpl, test := trainedScorerFixture(t, 12)
	var buf bytes.Buffer
	if err := WriteTemplates(&buf, tmpl); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTemplates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameBits := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d entries, want %d", what, len(b), len(a))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: entry %d drifted", what, i)
			}
		}
	}
	sameBits("cholesky factor", tmpl.chol.Data, back.chol.Data)
	sameBits("inverse covariance", tmpl.invCov.Data, back.invCov.Data)
	sameBits("log-determinant", []float64{tmpl.logDet}, []float64{back.logDet})
	for ci := range tmpl.classes {
		sameBits("whitened mean", tmpl.classes[ci].white, back.classes[ci].white)
	}
	s1, s2 := tmpl.NewScorer(), back.NewScorer()
	for i, tr := range test.Traces {
		ll1, err := s1.ScoreTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		ll2, err := s2.ScoreTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range ll1 {
			if math.Float64bits(ll1[ci]) != math.Float64bits(ll2[ci]) {
				t.Fatalf("trace %d: round-tripped score drifted at class %d", i, ci)
			}
		}
	}
}

// TestTemplateBytesMatchCommittedBlob: testdata/templates_v2.bin was
// written before scoring switched to whitened means. Training the same
// fixture must still write exactly those bytes, and the committed blob
// must load and score within the reference tolerance.
func TestTemplateBytesMatchCommittedBlob(t *testing.T) {
	want, err := os.ReadFile("testdata/templates_v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultTemplateOptions()
	opts.POICount = 8
	tmpl, err := BuildTemplates(synthSet(7, []int{-3, -1, 0, 2, 5}, 60, 24, 0.08), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTemplates(&buf, tmpl); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteTemplates output (%d bytes) differs from the committed v2 blob (%d bytes)", buf.Len(), len(want))
	}
	loaded, err := ReadTemplates(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := testkit.DecodeRefTemplates(want)
	if err != nil {
		t.Fatal(err)
	}
	s := loaded.NewScorer()
	for i, tr := range synthSet(99, []int{-3, -1, 0, 2, 5}, 8, 24, 0.08).Traces {
		wantLL, err := ref.LogLikelihoods(tr)
		if err != nil {
			t.Fatal(err)
		}
		ll, err := s.ScoreTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := testkit.CheckScores(ll, wantLL); err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
	}
}

// TestStaleTemplateVersionRejected: version-1 streams (no precomputed
// inverse covariance) must fail with ErrStaleTemplateVersion.
func TestStaleTemplateVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(templatesMagic)
	for _, v := range []uint32{1, 1, 4, 2} { // version 1, pooled, d=4, 2 classes
		binary.Write(&buf, binary.LittleEndian, v)
	}
	_, err := ReadTemplates(&buf)
	if !errors.Is(err, ErrStaleTemplateVersion) {
		t.Fatalf("want ErrStaleTemplateVersion, got %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("error should name the stale version: %v", err)
	}
	// Future versions are a different failure, not "stale".
	buf.Reset()
	buf.WriteString(templatesMagic)
	for _, v := range []uint32{99, 1, 4, 2} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	_, err = ReadTemplates(&buf)
	if err == nil || errors.Is(err, ErrStaleTemplateVersion) {
		t.Fatalf("future version should be unsupported, not stale: %v", err)
	}
}

// TestReadTemplatesRejectsNonPooled: a per-class covariance stream
// (pooled = 0) and a pooled stream whose classes disagree on the
// covariance are refused with named errors.
func TestReadTemplatesRejectsNonPooled(t *testing.T) {
	tmpl, _ := trainedScorerFixture(t, 12)
	var buf bytes.Buffer
	if err := WriteTemplates(&buf, tmpl); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	perClass := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(perClass[8:], 0) // header: magic, version, pooled
	if _, err := ReadTemplates(bytes.NewReader(perClass)); !errors.Is(err, ErrPerClassCovariance) {
		t.Fatalf("pooled=0: want ErrPerClassCovariance, got %v", err)
	}

	// Flip one bit of the second class's Cholesky factor, inverse and
	// log-determinant in turn.
	d := len(tmpl.POIs)
	classBytes := 8 + 8*d + 16*d*d + 8
	second := 4 + 16 + 4*d + classBytes
	for _, off := range []int{8 + 8*d, 8 + 8*d + 8*d*d, classBytes - 8} {
		mixed := append([]byte(nil), blob...)
		mixed[second+off] ^= 1
		if _, err := ReadTemplates(bytes.NewReader(mixed)); !errors.Is(err, ErrMixedCovariance) {
			t.Fatalf("offset %d: want ErrMixedCovariance, got %v", off, err)
		}
	}
}

// TestReadTemplatesBoundedAllocation: a header promising the largest
// accepted shape (d = 4096, 4096 classes) over a 20-byte body must fail
// without allocating anywhere near the d² floats it claims.
func TestReadTemplatesBoundedAllocation(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(templatesMagic)
	for _, v := range []uint32{templatesVersion, 1, 4096, 4096} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	buf.Write(make([]byte, 20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadTemplates(&buf); err == nil {
		t.Fatal("truncated stream should fail")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a 40-byte stream allocated %d bytes", grew)
	}
}

func BenchmarkScoreTraceScorer(b *testing.B) {
	for _, d := range []int{12, 28} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			tmpl, test := trainedScorerFixture(b, d)
			tr := test.Traces[0]
			s := tmpl.NewScorer()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ScoreTrace(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
