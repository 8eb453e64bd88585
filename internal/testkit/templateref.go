package testkit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"reveal/internal/linalg"
)

// This file holds the reference the template scorer in internal/sca is
// differentially tested against: Gaussian template scoring done the
// obvious way, one fresh forward-and-back Cholesky solve per class
// (linalg.SolveCholesky on the stored factor), straight from the
// serialized bytes. It is the scorer's math before pooled templates were
// whitened, and it trusts nothing the production loader precomputes.

// OracleTol is the agreement the template scorer owes the reference:
// |Δp| for every posterior, and |Δll| relative to max(1, |ll|) for every
// log-likelihood.
const OracleTol = 1e-9

// RefTemplates is one decoded format-v2 template stream.
type RefTemplates struct {
	POIs    []int
	Labels  []int // ascending, as written
	means   [][]float64
	chols   []*linalg.Matrix
	logDets []float64
}

// DecodeRefTemplates parses one template stream as sca.WriteTemplates
// writes it (magic "SCTM", version 2): header, POIs, then per class the
// label, count, mean, Cholesky factor, inverse covariance and
// log-determinant. Each class keeps its own factor.
func DecodeRefTemplates(blob []byte) (*RefTemplates, error) {
	r := bytes.NewReader(blob)
	var magic [4]byte
	var hdr [4]uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	if string(magic[:]) != "SCTM" || hdr[0] != 2 {
		return nil, fmt.Errorf("testkit: not a v2 template stream")
	}
	d, n := int(hdr[2]), int(hdr[3])
	if d*8 > len(blob) || n*8 > len(blob) {
		return nil, fmt.Errorf("testkit: header d=%d classes=%d exceeds %d bytes", d, n, len(blob))
	}
	pois := make([]int32, d)
	if err := binary.Read(r, binary.LittleEndian, pois); err != nil {
		return nil, err
	}
	ref := &RefTemplates{}
	for _, p := range pois {
		ref.POIs = append(ref.POIs, int(p))
	}
	for c := 0; c < n; c++ {
		var head struct {
			Label int32
			Count uint32
		}
		mean := make([]float64, d)
		chol := linalg.NewMatrix(d, d)
		inv := make([]float64, d*d)
		var logDet float64
		for _, v := range []any{&head, mean, chol.Data, inv, &logDet} {
			if err := binary.Read(r, binary.LittleEndian, v); err != nil {
				return nil, fmt.Errorf("testkit: class %d: %w", c, err)
			}
		}
		ref.Labels = append(ref.Labels, int(head.Label))
		ref.means = append(ref.means, mean)
		ref.chols = append(ref.chols, chol)
		ref.logDets = append(ref.logDets, logDet)
	}
	return ref, nil
}

// LogLikelihoods returns the Gaussian log-density of tr under each class,
// in label order: −½((f−μ)ᵀΣ⁻¹(f−μ) + log det Σ + d·log 2π).
func (r *RefTemplates) LogLikelihoods(tr []float64) ([]float64, error) {
	d := len(r.POIs)
	f := make([]float64, d)
	for i, p := range r.POIs {
		if p >= len(tr) {
			return nil, fmt.Errorf("testkit: trace of %d samples shorter than POI %d", len(tr), p)
		}
		f[i] = tr[p]
	}
	ll := make([]float64, len(r.Labels))
	resid := make([]float64, d)
	for c := range r.Labels {
		for i := range f {
			resid[i] = f[i] - r.means[c][i]
		}
		x, err := linalg.SolveCholesky(r.chols[c], resid)
		if err != nil {
			return nil, err
		}
		ll[c] = -0.5 * (linalg.Dot(resid, x) + r.logDets[c] + float64(d)*math.Log(2*math.Pi))
	}
	return ll, nil
}

// Probabilities is the uniform-prior softmax of LogLikelihoods, keyed by
// label, normalized in label order.
func (r *RefTemplates) Probabilities(tr []float64) (map[int]float64, error) {
	ll, err := r.LogLikelihoods(tr)
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(ll))
	for c, p := range softmax(ll) {
		out[r.Labels[c]] = p
	}
	return out, nil
}

// Classify returns the maximum-likelihood label: the first strict maximum
// in label order.
func (r *RefTemplates) Classify(tr []float64) (int, error) {
	ll, err := r.LogLikelihoods(tr)
	if err != nil {
		return 0, err
	}
	return r.Labels[RefArgMax(ll)], nil
}

// RefArgMax returns the index of the first strict maximum of ll.
func RefArgMax(ll []float64) int {
	best := 0
	for c, v := range ll {
		if v > ll[best] {
			best = c
		}
	}
	return best
}

// CheckScores compares a scorer's per-class log-likelihoods got against
// the reference want (both in label order) within OracleTol: every
// log-likelihood, every softmax posterior, and the argmax. The argmax must
// match unless the reference's top two scores are themselves within
// tolerance of each other, where rounding alone may decide the order.
func CheckScores(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d scores, want %d", len(got), len(want))
	}
	for c := range want {
		if !closeRel(got[c], want[c]) {
			return fmt.Errorf("class %d: log-likelihood %v, reference %v", c, got[c], want[c])
		}
	}
	pg, pw := softmax(got), softmax(want)
	for c := range pw {
		if math.Abs(pg[c]-pw[c]) > OracleTol {
			return fmt.Errorf("class %d: posterior %v, reference %v", c, pg[c], pw[c])
		}
	}
	if g, w := RefArgMax(got), RefArgMax(want); g != w && !closeRel(want[g], want[w]) {
		return fmt.Errorf("argmax class %d, reference %d", g, w)
	}
	return nil
}

func closeRel(a, b float64) bool {
	if a == b { // also equal infinities
		return true
	}
	return math.Abs(a-b) <= OracleTol*math.Max(1, math.Abs(b))
}

func softmax(ll []float64) []float64 {
	max := math.Inf(-1)
	for _, v := range ll {
		if v > max {
			max = v
		}
	}
	out := make([]float64, len(ll))
	sum := 0.0
	for c, v := range ll {
		out[c] = math.Exp(v - max)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
	return out
}
