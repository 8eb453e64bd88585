package testkit

import (
	"fmt"
	"math/bits"

	"reveal/internal/modular"
	"reveal/internal/ring"
)

// RefNTT is the strict-reduction negacyclic NTT the production ring.Context
// is differentially tested against: every butterfly reduces fully into
// [0, q) and the pointwise product divides through the 128-bit
// intermediate. It builds its own twiddle tables, so a table bug in the
// ring package cannot hide in both sides of a comparison. Its outputs are
// the ones every committed ring golden vector and the selftest digest were
// first pinned on.
type RefNTT struct {
	n      int
	moduli []uint64
	tables []refNTTTable
}

type refNTTTable struct {
	q           uint64
	psiPows     []uint64 // psi^bitrev(i), psi a primitive 2n-th root
	psiPowsPre  []uint64
	ipsiPows    []uint64 // psi^-bitrev(i)
	ipsiPowsPre []uint64
	nInv        uint64 // n^-1 mod q
	nInvPre     uint64
}

// NewRefNTT builds the reference transform for degree n over moduli, each
// an NTT-friendly prime (q ≡ 1 mod 2n).
func NewRefNTT(n int, moduli []uint64) (*RefNTT, error) {
	r := &RefNTT{n: n, moduli: append([]uint64(nil), moduli...)}
	logN := bits.TrailingZeros(uint(n))
	for _, q := range moduli {
		psi, err := modular.MinimalPrimitiveNthRoot(uint64(2*n), q)
		if err != nil {
			return nil, err
		}
		psiInv, ok := modular.Inverse(psi, q)
		if !ok {
			return nil, fmt.Errorf("testkit: psi not invertible mod %d", q)
		}
		nInv, ok := modular.Inverse(uint64(n), q)
		if !ok {
			return nil, fmt.Errorf("testkit: n not invertible mod %d", q)
		}
		tbl := refNTTTable{
			q:           q,
			psiPows:     make([]uint64, n),
			psiPowsPre:  make([]uint64, n),
			ipsiPows:    make([]uint64, n),
			ipsiPowsPre: make([]uint64, n),
			nInv:        nInv,
			nInvPre:     modular.ShoupPrecon(nInv, q),
		}
		cur, icur := uint64(1), uint64(1)
		for i := 0; i < n; i++ {
			k := ring.BitReverse(uint32(i), logN)
			tbl.psiPows[k] = cur
			tbl.ipsiPows[k] = icur
			cur = modular.Mul(cur, psi, q)
			icur = modular.Mul(icur, psiInv, q)
		}
		for i := 0; i < n; i++ {
			tbl.psiPowsPre[i] = modular.ShoupPrecon(tbl.psiPows[i], q)
			tbl.ipsiPowsPre[i] = modular.ShoupPrecon(tbl.ipsiPows[i], q)
		}
		r.tables = append(r.tables, tbl)
	}
	return r, nil
}

// NTT runs the negacyclic Cooley-Tukey NTT on residue vector a (modulus
// index j) in place: natural order in, bit-reversed twiddles, natural order
// out, the Longa-Naehrig layout.
func (b *RefNTT) NTT(j int, a []uint64) {
	tbl := &b.tables[j]
	n := b.n
	q := tbl.q
	t := n
	for m := 1; m < n; m <<= 1 {
		t >>= 1
		for i := 0; i < m; i++ {
			j1 := 2 * i * t
			j2 := j1 + t
			w := tbl.psiPows[m+i]
			wPre := tbl.psiPowsPre[m+i]
			for j := j1; j < j2; j++ {
				u := a[j]
				v := modular.MulShoup(a[j+t], w, wPre, q)
				a[j] = modular.Add(u, v, q)
				a[j+t] = modular.Sub(u, v, q)
			}
		}
	}
}

// INTT runs the Gentleman-Sande inverse in place, including the 1/n scaling
// and the psi^-1 twist (negacyclic).
func (b *RefNTT) INTT(j int, a []uint64) {
	tbl := &b.tables[j]
	n := b.n
	q := tbl.q
	t := 1
	for m := n; m > 1; m >>= 1 {
		j1 := 0
		h := m >> 1
		for i := 0; i < h; i++ {
			j2 := j1 + t
			w := tbl.ipsiPows[h+i]
			wPre := tbl.ipsiPowsPre[h+i]
			for j := j1; j < j2; j++ {
				u := a[j]
				v := a[j+t]
				a[j] = modular.Add(u, v, q)
				a[j+t] = modular.MulShoup(modular.Sub(u, v, q), w, wPre, q)
			}
			j1 += 2 * t
		}
		t <<= 1
	}
	for j := 0; j < n; j++ {
		a[j] = modular.MulShoup(a[j], tbl.nInv, tbl.nInvPre, q)
	}
}

// Forward returns the reference NTT of every residue of coeffs, leaving
// coeffs untouched.
func (b *RefNTT) Forward(coeffs [][]uint64) [][]uint64 {
	out := copyResidues(coeffs)
	for j := range out {
		b.NTT(j, out[j])
	}
	return out
}

// Inverse returns the reference inverse NTT of every residue of coeffs,
// leaving coeffs untouched.
func (b *RefNTT) Inverse(coeffs [][]uint64) [][]uint64 {
	out := copyResidues(coeffs)
	for j := range out {
		b.INTT(j, out[j])
	}
	return out
}

// MulPoly returns the negacyclic product of x and y (coefficient domain,
// one residue vector per modulus): two forward transforms, a strict
// pointwise product, one inverse.
func (b *RefNTT) MulPoly(x, y [][]uint64) [][]uint64 {
	xn, yn := b.Forward(x), b.Forward(y)
	for j, q := range b.moduli {
		for i := range xn[j] {
			xn[j][i] = modular.Mul(xn[j][i], yn[j][i], q)
		}
		b.INTT(j, xn[j])
	}
	return xn
}

func copyResidues(coeffs [][]uint64) [][]uint64 {
	out := make([][]uint64, len(coeffs))
	for j := range coeffs {
		out[j] = append([]uint64(nil), coeffs[j]...)
	}
	return out
}
