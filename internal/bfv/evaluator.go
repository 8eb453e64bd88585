package bfv

import (
	"fmt"
	"math/big"

	"reveal/internal/modular"
	"reveal/internal/ring"
)

// Evaluator performs homomorphic operations on ciphertexts.
type Evaluator struct {
	params *Parameters
	// extCtx is the extended RNS basis used to compute ciphertext tensor
	// products exactly over the integers (product of moduli > 2·n·Q²).
	extCtx *ring.Context
}

// NewEvaluator builds an evaluator, generating the auxiliary basis needed
// for exact ciphertext multiplication.
func NewEvaluator(params *Parameters) (*Evaluator, error) {
	// Need product of ext moduli > 2 n Q² (coefficients of the negacyclic
	// integer tensor lie in (-nQ², nQ²)).
	qBits := params.Q().BitLen()
	needBits := 2*qBits + modularLog2(params.N) + 2
	const extPrimeBits = 50
	count := (needBits + extPrimeBits - 1) / extPrimeBits
	primes, err := modular.GeneratePrimes(extPrimeBits, uint64(2*params.N), count)
	if err != nil {
		return nil, fmt.Errorf("bfv: building extended basis: %w", err)
	}
	extCtx, err := ring.NewContext(params.N, primes)
	if err != nil {
		return nil, fmt.Errorf("bfv: building extended context: %w", err)
	}
	return &Evaluator{params: params, extCtx: extCtx}, nil
}

func modularLog2(n int) int {
	b := 0
	for v := n; v > 1; v >>= 1 {
		b++
	}
	return b
}

// Add returns ct0 + ct1 (component-wise, padding the shorter one).
func (ev *Evaluator) Add(ct0, ct1 *Ciphertext) *Ciphertext {
	ctx := ev.params.Context()
	long, short := ct0, ct1
	if len(ct1.C) > len(ct0.C) {
		long, short = ct1, ct0
	}
	out := long.Clone()
	for i := range short.C {
		ctx.Add(out.C[i], short.C[i], out.C[i])
	}
	return out
}

// Mul returns the degree-2 ciphertext encrypting m0·m1:
//
//	(d0, d1, d2) = round(t/Q · (c0 ⊗ c1)) mod Q.
//
// The tensor is computed exactly over the integers via the extended basis.
func (ev *Evaluator) Mul(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	if len(ct0.C) != 2 || len(ct1.C) != 2 {
		return nil, fmt.Errorf("bfv: Mul requires degree-1 ciphertexts (relinearize first)")
	}
	a0 := ev.liftToExt(ct0.C[0])
	a1 := ev.liftToExt(ct0.C[1])
	b0 := ev.liftToExt(ct1.C[0])
	b1 := ev.liftToExt(ct1.C[1])

	ext := ev.extCtx
	d0 := ext.NewPoly()
	ext.MulPoly(a0, b0, d0)
	d2 := ext.NewPoly()
	ext.MulPoly(a1, b1, d2)
	// d1 = a0 b1 + a1 b0.
	t1 := ext.NewPoly()
	ext.MulPoly(a0, b1, t1)
	t2 := ext.NewPoly()
	ext.MulPoly(a1, b0, t2)
	d1 := ext.NewPoly()
	ext.Add(t1, t2, d1)

	out := &Ciphertext{C: []*ring.Poly{
		ev.scaleDownToBase(d0),
		ev.scaleDownToBase(d1),
		ev.scaleDownToBase(d2),
	}}
	return out, nil
}

// liftToExt maps a base-ring polynomial (coefficients as exact integers in
// [0, Q)) into the extended basis.
func (ev *Evaluator) liftToExt(p *ring.Poly) *ring.Poly {
	ctx := ev.params.Context()
	out := ev.extCtx.NewPoly()
	for i := 0; i < ctx.N; i++ {
		v := ctx.ComposeCRT(p, i)
		ev.extCtx.SetCoeffBig(out, i, v)
	}
	return out
}

// scaleDownToBase interprets p's coefficients as centered integers, scales
// by t/Q with rounding, and reduces into the base ring.
func (ev *Evaluator) scaleDownToBase(p *ring.Poly) *ring.Poly {
	ctx := ev.params.Context()
	ext := ev.extCtx
	out := ctx.NewPoly()
	bigQ := ctx.BigQ()
	bigExtQ := ext.BigQ()
	halfExt := new(big.Int).Rsh(bigExtQ, 1)
	halfQ := new(big.Int).Rsh(bigQ, 1)
	bigT := new(big.Int).SetUint64(ev.params.T)
	num := new(big.Int)
	for i := 0; i < ctx.N; i++ {
		x := ext.ComposeCRT(p, i)
		if x.Cmp(halfExt) > 0 {
			x.Sub(x, bigExtQ) // centered representative
		}
		// round(t·x / Q) with round-half-up toward +inf for the magnitude.
		num.Mul(x, bigT)
		num.Add(num, halfQ)
		// Floor division (big.Int Div is Euclidean for positive modulus).
		num.Div(num, bigQ)
		num.Mod(num, bigQ)
		ctx.SetCoeffBig(out, i, num)
	}
	return out
}

// Relinearize reduces a degree-2 ciphertext back to degree 1 using the RNS
// gadget relinearization key.
func (ev *Evaluator) Relinearize(ct *Ciphertext, rk *RelinKey) (*Ciphertext, error) {
	if len(ct.C) != 3 {
		return nil, fmt.Errorf("bfv: Relinearize requires a degree-2 ciphertext, got degree %d", ct.Degree())
	}
	if rk == nil || len(rk.B) != ev.params.Context().Level() {
		return nil, fmt.Errorf("bfv: relinearization key missing or wrong level")
	}
	ctx := ev.params.Context()
	c0 := ct.C[0].Clone()
	c1 := ct.C[1].Clone()
	c2 := ct.C[2]

	tmp := ctx.NewPoly()
	for j := range ev.params.Moduli {
		for l := range rk.B[j] {
			dj := ev.gadgetDigit(c2, j, l)
			ctx.MulPoly(dj, rk.B[j][l], tmp)
			ctx.Add(c0, tmp, c0)
			ctx.MulPoly(dj, rk.A[j][l], tmp)
			ctx.Add(c1, tmp, c1)
		}
	}
	return &Ciphertext{C: []*ring.Poly{c0, c1}}, nil
}

// gadgetDigit extracts base-2^w digit l of residue j of c2 and lifts it
// (an integer < 2^w) into every residue of a fresh polynomial.
func (ev *Evaluator) gadgetDigit(c2 *ring.Poly, j, l int) *ring.Poly {
	ctx := ev.params.Context()
	d := ctx.NewPoly()
	shift := uint(RelinDigitBits * l)
	mask := uint64(1)<<RelinDigitBits - 1
	for i := 0; i < ctx.N; i++ {
		digit := (c2.Coeffs[j][i] >> shift) & mask
		for jj, q := range ev.params.Moduli {
			d.Coeffs[jj][i] = digit % q
		}
	}
	return d
}

// MulRelin multiplies and immediately relinearizes.
func (ev *Evaluator) MulRelin(ct0, ct1 *Ciphertext, rk *RelinKey) (*Ciphertext, error) {
	prod, err := ev.Mul(ct0, ct1)
	if err != nil {
		return nil, err
	}
	return ev.Relinearize(prod, rk)
}
