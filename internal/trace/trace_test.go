package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestStats(t *testing.T) {
	tr := Trace{1, 2, 3, 4, 5}
	if tr.Mean() != 3 {
		t.Errorf("mean=%v", tr.Mean())
	}
	if tr.Max() != 5 {
		t.Errorf("max=%v", tr.Max())
	}
	var empty Trace
	if empty.Mean() != 0 || !math.IsInf(empty.Max(), -1) {
		t.Error("empty-trace stats wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := Trace{1, 2}
	c := tr.Clone()
	c[0] = 99
	if tr[0] != 1 {
		t.Error("clone aliases original")
	}
}

func TestResample(t *testing.T) {
	tr := Trace{0, 1, 2, 3}
	up := tr.Resample(7)
	if len(up) != 7 {
		t.Fatalf("len=%d", len(up))
	}
	if up[0] != 0 || up[6] != 3 {
		t.Error("endpoints must be preserved")
	}
	if math.Abs(up[3]-1.5) > 1e-12 {
		t.Errorf("midpoint=%v want 1.5", up[3])
	}
	down := tr.Resample(2)
	if down[0] != 0 || down[1] != 3 {
		t.Errorf("downsample=%v", down)
	}
	if got := tr.Resample(0); len(got) != 0 {
		t.Error("n=0 should give empty")
	}
	if got := (Trace{5}).Resample(3); got[0] != 5 || got[2] != 5 {
		t.Error("single-sample resample should repeat")
	}
	if got := (Trace{}).Resample(3); len(got) != 3 {
		t.Error("empty resample should zero-fill")
	}
	one := tr.Resample(1)
	if len(one) != 1 || one[0] != 0 {
		t.Errorf("resample to 1: %v", one)
	}
}

// Resampling to the same length is (near) identity.
func TestResampleIdentityQuick(t *testing.T) {
	prop := func(vals []float64) bool {
		if len(vals) < 2 {
			return true
		}
		tr := Trace(vals)
		got := tr.Resample(len(vals))
		for i := range vals {
			if math.IsNaN(vals[i]) {
				return true
			}
			if math.Abs(got[i]-vals[i]) > 1e-9*(1+math.Abs(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestResampleIntoMatchesResample(t *testing.T) {
	tr := spikedTrace(4, 9, 3)
	for _, n := range []int{1, 2, 7, len(tr), len(tr) * 2} {
		want := tr.Resample(n)
		dst := make(Trace, n)
		got := tr.ResampleInto(dst)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("n=%d sample %d: %x, want %x", n, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	// Degenerate inputs.
	if got := (Trace{}).ResampleInto(make(Trace, 3)); got[0] != 0 || got[2] != 0 {
		t.Errorf("empty source should zero-fill, got %v", got)
	}
	if got := (Trace{5}).ResampleInto(make(Trace, 3)); got[0] != 5 || got[2] != 5 {
		t.Errorf("single-sample source should broadcast, got %v", got)
	}
	if got := (Trace{1, 2}).ResampleInto(Trace{}); len(got) != 0 {
		t.Errorf("empty destination should stay empty")
	}
}

func TestSetValidate(t *testing.T) {
	s := &Set{}
	s.Append(Trace{1, 2}, 0)
	s.Append(Trace{3, 4}, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Error("len wrong")
	}
	s.Append(Trace{5}, 2)
	if err := s.Validate(); err == nil {
		t.Error("ragged set should fail")
	}
	bad := &Set{Traces: []Trace{{1}}, Labels: []int{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Error("label mismatch should fail")
	}
	if err := (&Set{}).Validate(); err != nil {
		t.Error("empty set is valid")
	}
}

func TestByLabel(t *testing.T) {
	s := &Set{}
	s.Append(Trace{1}, 5)
	s.Append(Trace{2}, -3)
	s.Append(Trace{3}, 5)
	groups := s.ByLabel()
	if len(groups[5]) != 2 || len(groups[-3]) != 1 {
		t.Errorf("groups=%v", groups)
	}
}

func TestSetRoundTrip(t *testing.T) {
	s := &Set{}
	s.Append(Trace{1.5, -2.25, 3.75}, -7)
	s.Append(Trace{0, 1e-300, 1e300}, 14)
	var buf bytes.Buffer
	if err := WriteSet(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Labels[0] != -7 || got.Labels[1] != 14 {
		t.Fatalf("labels=%v", got.Labels)
	}
	for i := range s.Traces {
		for j := range s.Traces[i] {
			if got.Traces[i][j] != s.Traces[i][j] {
				t.Fatalf("sample %d,%d mismatch", i, j)
			}
		}
	}
}

func TestReadSetRejectsGarbage(t *testing.T) {
	if _, err := ReadSet(strings.NewReader("NOPE")); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := ReadSet(strings.NewReader("RV")); err == nil {
		t.Error("truncated magic should fail")
	}
	// Absurd header counts must be rejected, not allocated.
	var buf bytes.Buffer
	buf.WriteString("RVTS")
	for _, v := range []uint32{1, 1 << 30, 1 << 30} {
		b := []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
		buf.Write(b)
	}
	if _, err := ReadSet(&buf); err == nil {
		t.Error("absurd sizes should fail")
	}
}

func TestWriteSetValidates(t *testing.T) {
	bad := &Set{Traces: []Trace{{1}, {1, 2}}, Labels: []int{0, 1}}
	var buf bytes.Buffer
	if err := WriteSet(&buf, bad); err == nil {
		t.Error("ragged set must not serialize")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, Trace{1.5, 2}); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.HasPrefix(got, "sample,power\n0,1.5\n1,2\n") {
		t.Errorf("csv=%q", got)
	}
}

func TestWriteMultiCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteMultiCSV(&buf, []string{"a", "b"}, []Trace{{1, 2, 3}, {9}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "sample,a,b" {
		t.Errorf("header=%q", lines[0])
	}
	if lines[1] != "0,1,9" {
		t.Errorf("row0=%q", lines[1])
	}
	if lines[2] != "1,2," {
		t.Errorf("row1=%q (padding expected)", lines[2])
	}
	if err := WriteMultiCSV(&buf, []string{"a"}, []Trace{{1}, {2}}); err == nil {
		t.Error("name/series mismatch should fail")
	}
}
