package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"reveal/internal/sca"
)

// rowMap is the map form of one posterior row: the form of the
// internal/testkit oracles and of the JSON encoding.
func rowMap(labels []int, row []float64) map[int]float64 {
	m := make(map[int]float64, len(labels))
	for j, l := range labels {
		m[l] = row[j]
	}
	return m
}

// rowMaps is the map form of a whole posterior table.
func rowMaps(labels []int, rows [][]float64) []map[int]float64 {
	if rows == nil {
		return nil
	}
	out := make([]map[int]float64, len(rows))
	for i, row := range rows {
		out[i] = rowMap(labels, row)
	}
	return out
}

// denseResult builds an attack result whose table spans the union of the
// maps' keys; a label missing from a coefficient's map reads 0 in its row.
func denseResult(values []int, probs []map[int]float64) *AttackResult {
	var labels []int
	for _, m := range probs {
		for l := range m {
			labels = append(labels, l)
		}
	}
	slices.Sort(labels)
	labels = slices.Compact(labels)
	res := &AttackResult{Values: values, Labels: labels, Probs: posteriorRows(len(probs), len(labels))}
	for i, m := range probs {
		for j, l := range labels {
			res.Probs[i][j] = m[l]
		}
	}
	return res
}

// goldenPosteriorValues are the floats whose JSON form differs most
// between formatting rules: zero, both exponent-form ranges, the largest
// double below 1 and a plain fraction.
var goldenPosteriorValues = []float64{0, 1e-7, 1e-300, 0.5, 1 - 0x1p-53, 3e21}

// goldenPosteriorResult is a hand-built result over labels −14…14: row r
// gives label j the value goldenPosteriorValues[(r+j) mod 6].
func goldenPosteriorResult() *AttackResult {
	values := []int{-14, -1, 0, 1, 10, 14}
	res := &AttackResult{Labels: make([]int, 29), Probs: posteriorRows(len(values), 29)}
	for j := range res.Labels {
		res.Labels[j] = j - 14
	}
	for r, v := range values {
		res.Values = append(res.Values, v)
		res.Signs = append(res.Signs, sca.SignOf(v))
		for j := range res.Probs[r] {
			res.Probs[r][j] = goldenPosteriorValues[(r+j)%len(goldenPosteriorValues)]
		}
	}
	return res
}

// TestPosteriorDigestGolden pins the digest of goldenPosteriorResult. The
// value was computed before the table became dense, by marshaling the
// same table as []map[int]float64 with encoding/json, so it holds the
// dense encoder to those bytes: keys in string order, encoding/json's
// float format.
func TestPosteriorDigestGolden(t *testing.T) {
	const want = "22d1eaae452dbd7efcb44a4f36115fd0a33b0626ee98c88be8fc341e9d1ea84a"
	res := goldenPosteriorResult()
	got, err := res.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("digest %s, want %s", got, want)
	}
	p := Posterior{res.Labels, res.Probs[3]}
	if p.At(-14) != goldenPosteriorValues[3] || p.At(14) != goldenPosteriorValues[(3+28)%6] || p.At(15) != 0 {
		t.Fatalf("Posterior(3).At reads %v %v %v", p.At(-14), p.At(14), p.At(15))
	}
}

// FuzzPosteriorJSON holds the table encoder to encoding/json on the
// equivalent []map[int]float64, over random label sets (negative labels,
// multi-digit labels whose string order differs from numeric order) and
// random rows, NaN and ±Inf included (both sides must then fail).
func FuzzPosteriorJSON(f *testing.F) {
	floats := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	var paper []byte
	var golden []float64
	for l := -14; l <= 14; l++ {
		paper = binary.LittleEndian.AppendUint16(paper, uint16(int16(l)))
		golden = append(golden, goldenPosteriorValues[(l+14)%6], goldenPosteriorValues[(l+17)%6])
	}
	f.Add(paper, floats(golden...))
	f.Add([]byte{0xF6, 0xFF, 0x0A, 0x00, 0x00, 0x00, 0x9C, 0xFF}, floats(-0.0, 1e-6, 9.999999999999999e20, 1e21, 5e-324, 123456.789, 1e-5, 0.1))
	f.Add([]byte{0x01, 0x00}, floats(math.NaN()))
	f.Add([]byte{0xFF, 0xFF, 0x02, 0x00}, floats(math.Inf(1), 0))
	f.Fuzz(func(t *testing.T, labelBytes, rowBytes []byte) {
		var labels []int
		for i := 0; i+1 < len(labelBytes) && len(labels) < 64; i += 2 {
			labels = append(labels, int(int16(binary.LittleEndian.Uint16(labelBytes[i:]))))
		}
		slices.Sort(labels)
		labels = slices.Compact(labels)
		if len(labels) == 0 {
			return
		}
		var vals []float64
		for i := 0; i+7 < len(rowBytes) && len(vals) < 64*len(labels); i += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(rowBytes[i:])))
		}
		res := &AttackResult{Labels: labels, Probs: posteriorRows(len(vals)/len(labels), len(labels))}
		for i, row := range res.Probs {
			copy(row, vals[i*len(labels):])
		}
		maps := rowMaps(labels, res.Probs)
		want, wantErr := json.Marshal(maps)
		got, err := json.Marshal(PosteriorTable{labels, res.Probs})
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("encoder error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("encoder wrote\n%s\nencoding/json wrote\n%s", got, want)
		}
		for i := range res.Probs {
			got, err := json.Marshal(Posterior{labels, res.Probs[i]})
			want, wantErr := json.Marshal(maps[i])
			if (err != nil) != (wantErr != nil) || (err == nil && !bytes.Equal(got, want)) {
				t.Fatalf("row %d: encoder wrote %s (%v), encoding/json wrote %s (%v)", i, got, err, want, wantErr)
			}
		}
	})
}

// TestEstimateFullHintsDeterministic: the hints sum in label order, so two
// estimates over one attack result are bit-identical.
func TestEstimateFullHintsDeterministic(t *testing.T) {
	params, cls, cap := streamTestFixture(t)
	res := batchE2(t, params, cls, cap)
	first, err := EstimateFullHints(params, res)
	if err != nil {
		t.Fatal(err)
	}
	second, err := EstimateFullHints(params, res)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(first.HintedBikz) != math.Float64bits(second.HintedBikz) {
		t.Fatalf("HintedBikz %v then %v", first.HintedBikz, second.HintedBikz)
	}
}

// TestMarginSumGolden pins the stream verdict's margin aggregate on the
// stream fixture to the value computed before the table became dense, and
// requires the batch result's MarginSum to agree with it bit for bit.
func TestMarginSumGolden(t *testing.T) {
	const wantBits, wantCount = 0x40533a0ea7c61316, 128
	params, cls, cap := streamTestFixture(t)
	_, verdict := streamE2(t, cls, StreamAttackOptions{Coefficients: params.N}, cap.TraceE2, 256)
	if math.Float64bits(verdict.MarginSum) != wantBits || verdict.MarginCount != wantCount {
		t.Fatalf("stream margins (%#x, %d), want (%#x, %d)",
			math.Float64bits(verdict.MarginSum), verdict.MarginCount, uint64(wantBits), wantCount)
	}
	sum, n := batchE2(t, params, cls, cap).MarginSum()
	if math.Float64bits(sum) != wantBits || n != wantCount {
		t.Fatalf("batch MarginSum (%#x, %d), want (%#x, %d)", math.Float64bits(sum), n, uint64(wantBits), wantCount)
	}
}
