package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"reveal/internal/sca"
)

// Posterior is one coefficient's row of an attack's posterior table
// (AttackResult.Probs) together with the table's ascending labels.
type Posterior struct {
	// Labels are shared with the table; do not modify them.
	Labels []int
	// P[i] is the posterior of Labels[i].
	P []float64
}

// At returns the posterior of value v, or 0 when v is not a label.
func (p Posterior) At(v int) float64 {
	if i, ok := slices.BinarySearch(p.Labels, v); ok {
		return p.P[i]
	}
	return 0
}

// MarshalJSON writes the row as encoding/json writes the equivalent Go map
// from label to probability (see PosteriorTable).
func (p Posterior) MarshalJSON() ([]byte, error) {
	return appendPosteriorJSON(nil, p.Labels, jsonKeyOrder(p.Labels), p.P)
}

// PosteriorTable is the JSON form of a posterior table, used by digests,
// the selftest, campaign results and the Table II report: exactly the bytes
// encoding/json writes for the equivalent slice of Go maps from label to
// probability, keys in string order ("-1" < "-10" < "-2" < "0" < "1" <
// "10") and floats in encoding/json's number format.
type PosteriorTable struct {
	Labels []int
	Rows   [][]float64
}

// MarshalJSON encodes the table; a NaN or infinite posterior is an error,
// as in encoding/json.
func (t PosteriorTable) MarshalJSON() ([]byte, error) {
	order := jsonKeyOrder(t.Labels)
	out := append(make([]byte, 0, len(t.Rows)*len(t.Labels)*16+2), '[')
	for i, row := range t.Rows {
		if i > 0 {
			out = append(out, ',')
		}
		var err error
		if out, err = appendPosteriorJSON(out, t.Labels, order, row); err != nil {
			return nil, fmt.Errorf("core: posterior of coefficient %d: %w", i, err)
		}
	}
	return append(out, ']'), nil
}

// MarginSum sums the posterior margin P(top1) − P(top2) over the
// coefficients in order, and counts the rows that contributed.
func (r *AttackResult) MarginSum() (sum float64, n int) {
	for _, row := range r.Probs {
		if m, ok := sca.TopMargin(row); ok {
			sum += m
			n++
		}
	}
	return sum, n
}

// posteriorRows returns n rows of width l, each a view into one n·l
// allocation.
func posteriorRows(n, l int) [][]float64 {
	flat := make([]float64, n*l)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*l : (i+1)*l : (i+1)*l]
	}
	return rows
}

// jsonKeyOrder returns the indices of labels in the order encoding/json
// writes integer map keys: sorted as decimal strings.
func jsonKeyOrder(labels []int) []int {
	order := make([]int, len(labels))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return strings.Compare(strconv.Itoa(labels[a]), strconv.Itoa(labels[b]))
	})
	return order
}

// appendPosteriorJSON appends one row as a JSON object, its keys in the
// given order.
func appendPosteriorJSON(dst []byte, labels, order []int, row []float64) ([]byte, error) {
	dst = append(dst, '{')
	for k, i := range order {
		if k > 0 {
			dst = append(dst, ',')
		}
		p := row[i]
		if math.IsInf(p, 0) || math.IsNaN(p) {
			return nil, fmt.Errorf("posterior %v of label %d is not representable in JSON", p, labels[i])
		}
		dst = append(strconv.AppendInt(append(dst, '"'), int64(labels[i]), 10), '"', ':')
		dst = appendJSONFloat(dst, p)
	}
	return append(dst, '}'), nil
}

// appendJSONFloat formats a finite float64 as encoding/json does: the
// shortest round-trip decimal, in exponent form below 1e-6 and at or above
// 1e21, with a one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
