package core

import (
	"fmt"
	"math/big"
	"sort"

	"reveal/internal/bfv"
	"reveal/internal/modular"
	"reveal/internal/ring"
)

// RecoverU inverts Eq. 2 of the paper: u = (c1 − e2) · p1^−1 in R_q. It
// also reports whether the recovered u is ternary — the verification oracle
// that tells the attacker whether the e2 guess was exactly right (u is
// sampled from R_2, so a wrong e2 yields a non-ternary u with overwhelming
// probability).
func RecoverU(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext, e2 []int64) (*ring.Poly, bool, error) {
	o, err := newE2Oracle(params, pk, ct)
	if err != nil {
		return nil, false, err
	}
	u, err := o.u(e2)
	if err != nil {
		return nil, false, err
	}
	return u, isTernary(o.ctx, u), nil
}

// e2Oracle evaluates Eq. 2 for one ciphertext. It inverts p1 once, so
// RecoverU and every trial of the residual search share one p1^−1.
type e2Oracle struct {
	ctx  *ring.Context
	c1   *ring.Poly
	w    *ring.Poly // p1^−1, coefficient domain
	wNTT *ring.Poly // p1^−1, NTT domain
}

func newE2Oracle(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext) (*e2Oracle, error) {
	ctx := params.Context()
	wNTT := pk.P1.Clone()
	ctx.NTT(wNTT)
	for j, q := range ctx.Moduli {
		for i, a := range wNTT.Coeffs[j] {
			inv, ok := modular.Inverse(a, q)
			if !ok {
				return nil, fmt.Errorf("core: p1 not invertible at slot (%d,%d)", j, i)
			}
			wNTT.Coeffs[j][i] = inv
		}
	}
	w := wNTT.Clone()
	ctx.INTT(w)
	return &e2Oracle{ctx: ctx, c1: ct.C[1], w: w, wNTT: wNTT}, nil
}

// u returns (c1 − e2) · p1^−1 in the coefficient domain.
func (o *e2Oracle) u(e2 []int64) (*ring.Poly, error) {
	u := o.ctx.NewPoly()
	if err := o.ctx.SetSigned(u, e2); err != nil {
		return nil, fmt.Errorf("core: e2: %w", err)
	}
	o.ctx.Sub(o.c1, u, u)
	o.ctx.NTT(u)
	o.ctx.MulCoeffwise(u, o.wNTT, u)
	o.ctx.INTT(u)
	return u, nil
}

// subst replaces the e2 guess at coefficient idx with val.
type subst struct {
	idx int
	val int64
}

// shifted is the u of a guess that differs from a base guess by a few
// substitutions. u is linear in e2, so changing e2[i] by δ changes u by
// −δ·X^i·w, and X^i·w is a negacyclic shift of w = p1^−1:
//
//	u[k] = u0[k] − Σ_s δ_s·(X^{i_s}·w)[k]
//
// Every residue is exact, so any coefficient of u costs |subs| modular
// products instead of a full ring inversion.
type shifted struct {
	o     *e2Oracle
	u0    *ring.Poly
	subs  []subst
	delta [][]uint64 // delta[s][j] = δ_s mod q_j
}

// set makes s describe base with subs applied, reusing its buffers.
func (s *shifted) set(base []int64, subs []subst) {
	s.subs = append(s.subs[:0], subs...)
	moduli := s.o.ctx.Moduli
	for len(s.delta) < len(subs) {
		s.delta = append(s.delta, make([]uint64, len(moduli)))
	}
	for t, sb := range subs {
		for j, q := range moduli {
			s.delta[t][j] = modular.Sub(modular.FromCentered(sb.val, q), modular.FromCentered(base[sb.idx], q), q)
		}
	}
}

// coeff returns residue j of coefficient k of u.
func (s *shifted) coeff(j, k int) uint64 {
	n := s.o.ctx.N
	q := s.o.ctx.Moduli[j]
	w := s.o.w.Coeffs[j]
	v := s.u0.Coeffs[j][k]
	for t, sb := range s.subs {
		// (X^i·w)[k] is w[k−i], negated when the shift wraps past X^n = −1.
		if k >= sb.idx {
			v = modular.Sub(v, modular.Mul(s.delta[t][j], w[k-sb.idx], q), q)
		} else {
			v = modular.Add(v, modular.Mul(s.delta[t][j], w[k-sb.idx+n], q), q)
		}
	}
	return v
}

// ternary reports whether u is ternary, computing it one coefficient at a
// time and stopping at the first coefficient that is not. A wrong guess
// gives a u that is uniform mod q, so this almost always stops at k = 0.
func (s *shifted) ternary() bool {
	for k := 0; k < s.o.ctx.N; k++ {
		if !ternaryCoeff(s.o.ctx.Moduli, func(j int) uint64 { return s.coeff(j, k) }) {
			return false
		}
	}
	return true
}

// poly returns the whole u.
func (s *shifted) poly() *ring.Poly {
	u := s.o.ctx.NewPoly()
	for j := range u.Coeffs {
		for k := range u.Coeffs[j] {
			u.Coeffs[j][k] = s.coeff(j, k)
		}
	}
	return u
}

// isTernary reports whether every centered coefficient of p is in {-1,0,1}.
func isTernary(ctx *ring.Context, p *ring.Poly) bool {
	for k := 0; k < ctx.N; k++ {
		if !ternaryCoeff(ctx.Moduli, func(j int) uint64 { return p.Coeffs[j][k] }) {
			return false
		}
	}
	return true
}

// ternaryCoeff reports whether one coefficient, given by its residue mod
// each modulus, is −1, 0 or 1, with all residues agreeing on which.
func ternaryCoeff(moduli []uint64, residue func(j int) uint64) bool {
	c, ok := ternaryResidue(residue(0), moduli[0])
	for j := 1; ok && j < len(moduli); j++ {
		var cj int64
		cj, ok = ternaryResidue(residue(j), moduli[j])
		ok = ok && cj == c
	}
	return ok
}

// ternaryResidue maps a residue mod q to −1, 0 or 1, and reports false for
// any other residue.
func ternaryResidue(r, q uint64) (int64, bool) {
	switch r {
	case 0:
		return 0, true
	case 1:
		return 1, true
	case q - 1:
		return -1, true
	}
	return 0, false
}

// RecoverMessage completes Eq. 3: with u known, c0 − p0·u = Δ·m + e1, and
// rounding by t/Q removes e1 exactly (‖e1‖∞ < Δ/2).
func RecoverMessage(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext, u *ring.Poly) (*bfv.Plaintext, error) {
	ctx := params.Context()
	phase := ctx.NewPoly()
	ctx.MulPoly(pk.P0, u, phase)
	ctx.Sub(ct.C[0], phase, phase)

	pt := params.NewPlaintext()
	bigQ := ctx.BigQ()
	bigT := new(big.Int).SetUint64(params.T)
	halfQ := new(big.Int).Rsh(bigQ, 1)
	num := new(big.Int)
	for i := 0; i < ctx.N; i++ {
		x := ctx.ComposeCRT(phase, i)
		num.Mul(x, bigT)
		num.Add(num, halfQ)
		num.Quo(num, bigQ)
		num.Mod(num, bigT)
		pt.Coeffs[i] = num.Uint64()
	}
	return pt, nil
}

// RepairAndRecover searches the residual space the template attack leaves:
// coefficients are ranked by posterior confidence and the least certain
// ones are re-guessed from their probability tables (top-k candidates per
// coordinate, depth-first with a trial budget), each candidate verified via
// the ternary-u oracle. This plays the role of the paper's BKZ exploration
// of the remaining search space, using the exact verification available in
// the single-modulus setting.
//
// p1^−1 and the u of the maximum-likelihood guess are computed once; each
// trial then checks its candidate incrementally (see shifted), and the full
// u and the message are computed only for the accepted candidate. A
// malformed attack result or a non-invertible p1 fails before the first
// trial.
func RepairAndRecover(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext,
	attack *AttackResult, maxDepth, maxTrials int) (*bfv.Plaintext, []int64, int, error) {

	if len(attack.Probs) != len(attack.Values) {
		return nil, nil, 0, fmt.Errorf("core: attack result has %d posteriors for %d values", len(attack.Probs), len(attack.Values))
	}
	base := make([]int64, len(attack.Values))
	for i, v := range attack.Values {
		base[i] = int64(v)
	}
	o, err := newE2Oracle(params, pk, ct)
	if err != nil {
		return nil, nil, 0, err
	}
	u0, err := o.u(base)
	if err != nil {
		return nil, nil, 0, err
	}
	cand := &shifted{o: o, u0: u0}
	trials := 0
	try := func(subs ...subst) bool {
		trials++
		cand.set(base, subs)
		return cand.ternary()
	}
	accept := func() (*bfv.Plaintext, []int64, int, error) {
		e2 := append([]int64(nil), base...)
		for _, sb := range cand.subs {
			e2[sb.idx] = sb.val
		}
		pt, err := RecoverMessage(params, pk, ct, cand.poly())
		return pt, e2, trials, err
	}
	if try() {
		return accept()
	}

	// Rank all coordinates by confidence of the chosen value, ascending.
	type doubt struct {
		idx  int
		conf float64
	}
	doubts := make([]doubt, len(attack.Values))
	for i := range attack.Values {
		doubts[i] = doubt{idx: i, conf: Posterior{attack.Labels, attack.Probs[i]}.At(attack.Values[i])}
	}
	sort.Slice(doubts, func(a, b int) bool { return doubts[a].conf < doubts[b].conf })

	// Alternative candidates per coordinate, by posterior mass, ties by
	// label: computed once per coordinate, on first use.
	alts := make([][]int64, len(attack.Values))
	altsFor := func(i int) []int64 {
		if alts[i] == nil {
			alts[i] = topAlternatives(attack.Labels, attack.Probs[i], attack.Values[i], 4)
		}
		return alts[i]
	}

	// Stage 1: single substitutions over every coordinate, least confident
	// first — catches any single misclassification.
	for _, d := range doubts {
		if trials >= maxTrials {
			break
		}
		for _, alt := range altsFor(d.idx) {
			if try(subst{d.idx, alt}) {
				return accept()
			}
			if trials >= maxTrials {
				break
			}
		}
	}

	// Stages 2 and 3: pairs and triples within the maxDepth least-confident
	// coordinates.
	window := min(maxDepth, len(doubts))
	for a := 0; a < window && trials < maxTrials; a++ {
		ia := doubts[a].idx
		for _, altA := range altsFor(ia) {
			for b := a + 1; b < window && trials < maxTrials; b++ {
				ib := doubts[b].idx
				for _, altB := range altsFor(ib) {
					if try(subst{ia, altA}, subst{ib, altB}) {
						return accept()
					}
					// Triple: extend with a third coordinate.
					for c := b + 1; c < window && trials < maxTrials; c++ {
						ic := doubts[c].idx
						for _, altC := range altsFor(ic) {
							if try(subst{ia, altA}, subst{ib, altB}, subst{ic, altC}) {
								return accept()
							}
						}
					}
				}
			}
		}
	}
	return nil, nil, trials, fmt.Errorf("core: residual search exhausted after %d trials", trials)
}

// topAlternatives returns up to k labels other than chosen, by descending
// posterior p and, among equal posteriors, ascending label. The result is
// never nil.
func topAlternatives(labels []int, p []float64, chosen, k int) []int64 {
	idx := make([]int, 0, len(labels))
	for i, v := range labels {
		if v != chosen {
			idx = append(idx, i)
		}
	}
	// labels ascend, so a stable sort keeps ties in label order.
	sort.SliceStable(idx, func(a, b int) bool { return p[idx[a]] > p[idx[b]] })
	out := make([]int64, min(k, len(idx)))
	for i := range out {
		out[i] = int64(labels[idx[i]])
	}
	return out
}

// CrossValidateE1 closes the loop on the second error polynomial: with the
// message and u recovered, e1 = c0 − p0·u − Δ·m is computable exactly, and
// can be compared against what the single-trace attack classified for the
// e1 sampling run — an attacker-side self-check requiring no ground truth.
func CrossValidateE1(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext,
	u *ring.Poly, m *bfv.Plaintext, e1Attack *AttackResult) (agreement float64, err error) {
	ctx := params.Context()
	if len(e1Attack.Values) != ctx.N {
		return 0, fmt.Errorf("core: e1 attack covered %d coefficients, want %d", len(e1Attack.Values), ctx.N)
	}
	// e1 = c0 − p0·u − Δ·m.
	p0u := ctx.NewPoly()
	ctx.MulPoly(pk.P0, u, p0u)
	e1 := ctx.NewPoly()
	ctx.Sub(ct.C[0], p0u, e1)
	for j, q := range params.Moduli {
		dj := params.DeltaMod(j)
		for i, mv := range m.Coeffs {
			e1.Coeffs[j][i] = modular.Sub(e1.Coeffs[j][i], modular.Mul(dj, mv, q), q)
		}
	}
	match := 0
	q0 := params.Moduli[0]
	for i := 0; i < ctx.N; i++ {
		truth := modular.CenteredRep(e1.Coeffs[0][i], q0)
		if truth == int64(e1Attack.Values[i]) {
			match++
		}
	}
	return float64(match) / float64(ctx.N), nil
}
