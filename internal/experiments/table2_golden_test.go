package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"reveal/internal/core"
)

// TestTable2Golden pins the text and JSON forms of Table II on a fixed row
// set. Both were computed before the rows became dense, from the same
// tables as map[int]float64, so they hold FormatTable2 and the row's JSON
// encoding to those bytes.
func TestTable2Golden(t *testing.T) {
	const wantText = `Table II — guessing probabilities from selected measurements
 secret          -2          -1           0           1           2    centered    variance
      0           0       1e-07      1e-300         0.5           1           0           0
      1       1e-07      1e-300         0.5           1       3e+21           1       1e-12
     -1      1e-300         0.5           1       3e+21           0          -1        0.25
      2         0.5           1       3e+21           0       1e-07     2.5e-07       3e+21
     -2           1       3e+21           0       1e-07      1e-300          -2       1e-07
`
	const wantJSONSHA, wantJSONLen = "160454fcebefb4a4554668d8b4abf0d03316ae1400a9cdbfa09f84d920180241", 3750

	vals := []float64{0, 1e-7, 1e-300, 0.5, 1 - 0x1p-53, 3e21}
	secrets := []int{0, 1, -1, 2, -2}
	centered := []float64{0, 1.0000000001, -0.99999, 2.5e-7, -2}
	variance := []float64{0, 1e-12, 0.25, 3e21, 1e-7}
	labels := make([]int, 29)
	for j := range labels {
		labels[j] = j - 14
	}
	var rows []Table2Row
	for k, s := range secrets {
		p := make([]float64, len(labels))
		for j := range p {
			p[j] = vals[(k+j)%len(vals)]
		}
		rows = append(rows, Table2Row{Secret: s, Probs: core.Posterior{Labels: labels, P: p},
			Centered: centered[k], Variance: variance[k]})
	}
	if got := FormatTable2(rows); got != wantText {
		t.Fatalf("FormatTable2:\n%s\nwant:\n%s", got, wantText)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, Table2Report{Rows: rows}); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != wantJSONSHA || buf.Len() != wantJSONLen {
		t.Fatalf("Table II JSON: %d bytes, sha256 %x; want %d bytes, sha256 %s\n%s",
			buf.Len(), sum, wantJSONLen, wantJSONSHA, buf.Bytes())
	}
}
