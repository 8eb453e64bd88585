package ring_test

// The production Context against the strict-reduction reference NTT in
// internal/testkit: identical seeded workloads, compared residue by residue
// — a mismatch reports the first differing (modulus, coefficient) index.
// Kernel-level tests also run whole on each of the two kernels, so the
// oracle itself must pass the math/big differentials and the goldens. The
// ladder golden vectors are cross-checked against the math/big reference
// before the pinned digest is compared, so a golden file can never capture
// a wrong transform.

import (
	"fmt"
	"testing"

	"reveal/internal/ring"
	"reveal/internal/testkit"
)

// newCtx builds a context for (n, moduli).
func newCtx(t testing.TB, n int, moduli []uint64) *ring.Context {
	t.Helper()
	ctx, err := ring.NewContext(n, moduli)
	if err != nil {
		t.Fatalf("NewContext(%d, %v): %v", n, moduli, err)
	}
	return ctx
}

// newRef builds the testkit reference NTT for ctx's ring.
func newRef(t testing.TB, ctx *ring.Context) *testkit.RefNTT {
	t.Helper()
	ref, err := testkit.NewRefNTT(ctx.N, ctx.Moduli)
	if err != nil {
		t.Fatalf("NewRefNTT(%d, %v): %v", ctx.N, ctx.Moduli, err)
	}
	return ref
}

// The two NTT kernels, by the subtest labels the suite reports them under:
// "rns" is the production lazy-reduction RNS kernel inside ring.Context,
// "reference" the strict testkit.RefNTT oracle.
const (
	referenceKernel  = "reference"
	productionKernel = "rns"
)

// nttKernel is the transform surface a kernel-level test drives;
// *ring.Context implements it directly.
type nttKernel interface {
	NTT(p *ring.Poly)
	INTT(p *ring.Poly)
	MulPoly(a, b, out *ring.Poly)
}

// refKernel drives testkit.RefNTT through nttKernel with the Context's
// domain semantics: NTT and INTT are no-ops on a poly already in the target
// domain, and MulPoly leaves its operands untouched.
type refKernel struct{ ref *testkit.RefNTT }

func (k refKernel) NTT(p *ring.Poly) {
	if p.InNTT {
		return
	}
	for j := range p.Coeffs {
		k.ref.NTT(j, p.Coeffs[j])
	}
	p.InNTT = true
}

func (k refKernel) INTT(p *ring.Poly) {
	if !p.InNTT {
		return
	}
	for j := range p.Coeffs {
		k.ref.INTT(j, p.Coeffs[j])
	}
	p.InNTT = false
}

func (k refKernel) MulPoly(a, b, out *ring.Poly) {
	for j, v := range k.ref.MulPoly(a.Coeffs, b.Coeffs) {
		copy(out.Coeffs[j], v)
	}
	out.InNTT = false
}

// forEachKernel runs fn once per NTT kernel as a "backend=<kernel>" subtest.
func forEachKernel(t *testing.T, fn func(t *testing.T, kernel string)) {
	t.Helper()
	for _, name := range []string{referenceKernel, productionKernel} {
		t.Run("backend="+name, func(t *testing.T) { fn(t, name) })
	}
}

// kernelOn returns the named kernel over ctx's ring.
func kernelOn(t testing.TB, kernel string, ctx *ring.Context) nttKernel {
	t.Helper()
	if kernel == referenceKernel {
		return refKernel{newRef(t, ctx)}
	}
	return ctx
}

// firstMismatch returns the first (modulus, coefficient) index where two
// residue sets differ, or ok=true when they are identical.
func firstMismatch(a, b [][]uint64) (j, i int, ok bool) {
	for j := range a {
		for i := range a[j] {
			if a[j][i] != b[j][i] {
				return j, i, false
			}
		}
	}
	return 0, 0, true
}

// checkAgainstRef fails t at the first residue where got differs from the
// reference output want.
func checkAgainstRef(t testing.TB, what string, got, want [][]uint64) {
	t.Helper()
	if j, i, ok := firstMismatch(got, want); !ok {
		t.Fatalf("%s: first mismatch at modulus %d coeff %d: production=%d reference=%d",
			what, j, i, got[j][i], want[j][i])
	}
}

// ladderModuli returns the modulus chain of the degree-n ladder entry.
func ladderModuli(t testing.TB, n int) []uint64 {
	t.Helper()
	p, err := ring.LadderParams(n)
	if err != nil {
		t.Fatal(err)
	}
	return p.Moduli
}

// TestCrossBackendByteEquality runs the same seeded NTT, inverse NTT and
// multiply workload through the production Context and the testkit
// reference, and every output must be byte-identical (the canonical-residue
// contract that keeps every golden and the selftest digest on the
// reference's values). Ladder primes with p ≡ 1 mod 2^14 are also
// NTT-friendly at these small degrees, so the real SEAL moduli get
// exercised here without paying full-degree cost.
func TestCrossBackendByteEquality(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		moduli []uint64
	}{
		{"n64/legacy-q", 64, []uint64{ring.LegacyQ}},
		{"n32/two-primes", 32, []uint64{12289, 257}},
		{"n128/ladder-n4096-chain", 128, ring.ParamsN4096().Moduli},
		{"n256/ladder-n8192-chain", 256, ladderModuli(t, 8192)},
		{"n64/54bit", 64, ring.ParamsN2048().Moduli},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := newCtx(t, tc.n, tc.moduli)
			ref := newRef(t, ctx)
			r := testkit.NewRNG(0xD1FF)
			for iter := 0; iter < 6; iter++ {
				a, b := r.Poly(ctx), r.Poly(ctx)
				fwd := a.Clone()
				ctx.NTT(fwd)
				checkAgainstRef(t, fmt.Sprintf("iter=%d NTT", iter), fwd.Coeffs, ref.Forward(a.Coeffs))
				inv := b.Clone()
				inv.InNTT = true
				ctx.INTT(inv)
				checkAgainstRef(t, fmt.Sprintf("iter=%d INTT", iter), inv.Coeffs, ref.Inverse(b.Coeffs))
				prod := ctx.NewPoly()
				ctx.MulPoly(a, b, prod)
				checkAgainstRef(t, fmt.Sprintf("iter=%d MulPoly", iter), prod.Coeffs, ref.MulPoly(a.Coeffs, b.Coeffs))
			}
		})
	}
}

// TestLadderRoundTripFullDegree runs forward+inverse NTT and a sparse ring
// product at the real ladder degrees on both kernels — full n=2048..8192
// transforms against the math/big negacyclic reference (sparse operand, so
// the schoolbook reference stays O(n·weight)), and the production forward
// transform against the reference one.
func TestLadderRoundTripFullDegree(t *testing.T) {
	for _, n := range ring.LadderDegrees() {
		params, err := ring.LadderParams(n)
		if err != nil {
			t.Fatalf("LadderParams(%d): %v", n, err)
		}
		forEachKernel(t, func(t *testing.T, kernel string) {
			t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
				ctx, err := ring.NewContextFor(params)
				if err != nil {
					t.Fatal(err)
				}
				k := kernelOn(t, kernel, ctx)
				r := testkit.NewRNG(0xAD0E + uint64(n))
				dense := r.Poly(ctx)
				orig := dense.Clone()
				k.NTT(dense)
				checkAgainstRef(t, "NTT", dense.Coeffs, newRef(t, ctx).Forward(orig.Coeffs))
				k.INTT(dense)
				if j, i, ok := firstMismatch(dense.Coeffs, orig.Coeffs); !ok {
					t.Fatalf("NTT round trip: first mismatch at modulus %d coeff %d", j, i)
				}
				// Sparse second operand: x^1 with coefficient c plus a
				// constant term, so the reference product is cheap.
				sparse := ctx.NewPoly()
				for j, q := range ctx.Moduli {
					sparse.Coeffs[j][0] = 3 % q
					sparse.Coeffs[j][1] = (q - 1) / 2
				}
				out := ctx.NewPoly()
				k.MulPoly(orig, sparse, out)
				checkBigMul(t, ctx, out, orig, sparse)
			})
		})
	}
}

// checkBigMul fails t unless prod is the negacyclic product of a and b
// under the math/big schoolbook reference, residue by residue.
func checkBigMul(t testing.TB, ctx *ring.Context, prod, a, b *ring.Poly) {
	t.Helper()
	for j, q := range ctx.Moduli {
		want, err := testkit.RefNegacyclicMul(a.Coeffs[j], b.Coeffs[j], q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if prod.Coeffs[j][i] != want[i] {
				t.Fatalf("n=%d q=%d: MulPoly vs math/big reference: first mismatch at coeff %d: got %d want %d",
					ctx.N, q, i, prod.Coeffs[j][i], want[i])
			}
		}
	}
}

// goldenLadder pins per-parameter-set digests of a seeded NTT output and a
// seeded sparse ring product. The test checks the product against math/big
// and the NTT against the reference before comparing the pinned digests,
// so the golden can only ever pin an already-cross-checked transform.
type goldenLadder struct {
	N         int      `json:"n"`
	Moduli    []uint64 `json:"moduli"`
	Seed      uint64   `json:"seed"`
	NTTDigest string   `json:"ntt_digest"`
	MulDigest string   `json:"mul_digest"`
}

func TestGoldenLadderVectors(t *testing.T) {
	for _, n := range ring.LadderDegrees() {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			params, err := ring.LadderParams(n)
			if err != nil {
				t.Fatal(err)
			}
			// Both kernels must reproduce the one pinned digest pair.
			forEachKernel(t, func(t *testing.T, kernel string) {
				ctx, err := ring.NewContextFor(params)
				if err != nil {
					t.Fatal(err)
				}
				k := kernelOn(t, kernel, ctx)
				seed := uint64(0x90D0 + n)
				r := testkit.NewRNG(seed)
				a := r.Poly(ctx)
				sparse := ctx.NewPoly()
				for j, q := range ctx.Moduli {
					sparse.Coeffs[j][0] = 7 % q
					sparse.Coeffs[j][n/2] = q - 2
				}
				prod := ctx.NewPoly()
				k.MulPoly(a, sparse, prod)
				checkBigMul(t, ctx, prod, a, sparse)
				nttOut := a.Clone()
				k.NTT(nttOut)
				checkAgainstRef(t, "NTT", nttOut.Coeffs, newRef(t, ctx).Forward(a.Coeffs))
				g := goldenLadder{
					N:         n,
					Moduli:    params.Moduli,
					Seed:      seed,
					NTTDigest: testkit.Digest(nttOut.Coeffs),
					MulDigest: testkit.Digest(prod.Coeffs),
				}
				testkit.Golden(t, fmt.Sprintf("testdata/golden_ladder_n%d.json", n), g)
			})
		})
	}
}
