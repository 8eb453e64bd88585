package testkit

import (
	"fmt"
	"sort"

	"reveal/internal/bfv"
	"reveal/internal/modular"
	"reveal/internal/ring"
)

// This file holds the reference the residual search in internal/core is
// differentially tested against: Eq. 2 of the paper, u = (c1 − e2)·p1⁻¹,
// computed from scratch for every candidate (p1 transformed and inverted
// slot by slot, c1 − e2 transformed, divided and transformed back), and
// the search that does this once per trial. It is the search as it was
// before its trials became incremental, with one change: alternatives of
// equal posterior are tried in ascending label order, as the production
// search now does, so both are deterministic and comparable bit for bit.

// RefRecoverU returns u = (c1 − e2)·p1⁻¹ in the coefficient domain and
// whether it is ternary.
func RefRecoverU(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext, e2 []int64) (*ring.Poly, bool, error) {
	ctx := params.Context()
	if len(e2) != ctx.N {
		return nil, false, fmt.Errorf("testkit: e2 has %d coefficients, want %d", len(e2), ctx.N)
	}
	e2Poly := ctx.NewPoly()
	if err := ctx.SetSigned(e2Poly, e2); err != nil {
		return nil, false, err
	}
	diff := ctx.NewPoly()
	ctx.Sub(ct.C[1], e2Poly, diff)
	p1 := pk.P1.Clone()
	ctx.NTT(p1)
	ctx.NTT(diff)
	u := ctx.NewPoly()
	for j, q := range params.Moduli {
		for i := 0; i < ctx.N; i++ {
			inv, ok := modular.Inverse(p1.Coeffs[j][i], q)
			if !ok {
				return nil, false, fmt.Errorf("testkit: p1 not invertible at slot (%d,%d)", j, i)
			}
			u.Coeffs[j][i] = modular.Mul(diff.Coeffs[j][i], inv, q)
		}
	}
	u.InNTT = true
	ctx.INTT(u)
	return u, refIsTernary(ctx, u), nil
}

// refIsTernary reports whether every coefficient of p is −1, 0 or 1, read
// from the first residue, with every other residue agreeing.
func refIsTernary(ctx *ring.Context, p *ring.Poly) bool {
	q0 := ctx.Moduli[0]
	for i := 0; i < ctx.N; i++ {
		c := p.Coeffs[0][i]
		if c != 0 && c != 1 && c != q0-1 {
			return false
		}
	}
	for j := 1; j < len(ctx.Moduli); j++ {
		qj := ctx.Moduli[j]
		for i := 0; i < ctx.N; i++ {
			want := modular.FromCentered(modular.CenteredRep(p.Coeffs[0][i], q0), qj)
			if p.Coeffs[j][i] != want {
				return false
			}
		}
	}
	return true
}

// RefRepairAndRecover is the residual search over an attack result given
// as its maximum-likelihood values and per-coefficient posteriors: the
// guess itself, then single substitutions over every coefficient, least
// confident first, then pairs and triples within the maxDepth least
// confident, up to 4 alternatives per coefficient, each candidate checked
// with RefRecoverU. It returns the accepted candidate's u and e2 and the
// number of trials.
func RefRepairAndRecover(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext,
	values []int, probs []map[int]float64, maxDepth, maxTrials int) (*ring.Poly, []int64, int, error) {

	e2 := make([]int64, len(values))
	for i, v := range values {
		e2[i] = int64(v)
	}
	trials := 0
	try := func(cand []int64) *ring.Poly {
		trials++
		u, ternary, err := RefRecoverU(params, pk, ct, cand)
		if err != nil || !ternary {
			return nil
		}
		return u
	}
	if u := try(e2); u != nil {
		return u, e2, trials, nil
	}

	type doubt struct {
		idx  int
		conf float64
	}
	doubts := make([]doubt, len(values))
	for i := range values {
		doubts[i] = doubt{idx: i, conf: probs[i][values[i]]}
	}
	sort.Slice(doubts, func(a, b int) bool { return doubts[a].conf < doubts[b].conf })

	altsFor := func(i int) []int {
		type cand struct {
			v int
			p float64
		}
		var cs []cand
		for v, p := range probs[i] {
			if v != values[i] {
				cs = append(cs, cand{v, p})
			}
		}
		sort.Slice(cs, func(a, b int) bool {
			if cs[a].p != cs[b].p {
				return cs[a].p > cs[b].p
			}
			return cs[a].v < cs[b].v
		})
		if len(cs) > 4 {
			cs = cs[:4]
		}
		out := make([]int, len(cs))
		for k, c := range cs {
			out[k] = c.v
		}
		return out
	}

	for _, d := range doubts {
		if trials >= maxTrials {
			break
		}
		orig := e2[d.idx]
		for _, alt := range altsFor(d.idx) {
			e2[d.idx] = int64(alt)
			if u := try(e2); u != nil {
				return u, e2, trials, nil
			}
			if trials >= maxTrials {
				break
			}
		}
		e2[d.idx] = orig
	}

	window := maxDepth
	if window > len(doubts) {
		window = len(doubts)
	}
	for a := 0; a < window && trials < maxTrials; a++ {
		ia := doubts[a].idx
		origA := e2[ia]
		for _, altA := range altsFor(ia) {
			e2[ia] = int64(altA)
			for b := a + 1; b < window && trials < maxTrials; b++ {
				ib := doubts[b].idx
				origB := e2[ib]
				for _, altB := range altsFor(ib) {
					e2[ib] = int64(altB)
					if u := try(e2); u != nil {
						return u, e2, trials, nil
					}
					for c := b + 1; c < window && trials < maxTrials; c++ {
						ic := doubts[c].idx
						origC := e2[ic]
						for _, altC := range altsFor(ic) {
							e2[ic] = int64(altC)
							if u := try(e2); u != nil {
								return u, e2, trials, nil
							}
						}
						e2[ic] = origC
					}
				}
				e2[ib] = origB
			}
		}
		e2[ia] = origA
	}
	return nil, nil, trials, fmt.Errorf("testkit: residual search exhausted after %d trials", trials)
}
