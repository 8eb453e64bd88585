package ring_test

// Differential tests: NTT-based ring arithmetic against the schoolbook
// math/big negacyclic convolution, CRT composition against the direct CRT
// formula, plus committed golden vectors for the NTT butterfly output
// (regenerate with -update). The transform suites run once per NTT kernel
// via forEachKernel — the golden files are shared, which forces byte
// equality between the reference and production kernels — and the golden
// NTT output is also checked against the testkit reference directly.

import (
	"math/big"
	"testing"

	"reveal/internal/testkit"
)

// TestMulPolyDifferential checks the NTT multiply against the schoolbook
// negacyclic convolution, per RNS modulus, on random operands.
func TestMulPolyDifferential(t *testing.T) {
	cases := []struct {
		n      int
		moduli []uint64
	}{
		{64, []uint64{12289}},
		{32, []uint64{12289, 257}},
		{128, []uint64{132120577}}, // the paper's q
	}
	forEachKernel(t, func(t *testing.T, kernel string) {
		r := testkit.NewRNG(31337)
		for _, tc := range cases {
			ctx := newCtx(t, tc.n, tc.moduli)
			k := kernelOn(t, kernel, ctx)
			for iter := 0; iter < 8; iter++ {
				a, b := r.Poly(ctx), r.Poly(ctx)
				out := ctx.NewPoly()
				k.MulPoly(a, b, out)
				for j, q := range tc.moduli {
					want, err := testkit.RefNegacyclicMul(a.Coeffs[j], b.Coeffs[j], q)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if out.Coeffs[j][i] != want[i] {
							t.Fatalf("n=%d q=%d iter=%d: MulPoly coeff %d = %d, ref %d",
								tc.n, q, iter, i, out.Coeffs[j][i], want[i])
						}
					}
				}
				// MulPoly must restore its operands (it NTTs clones).
				if a.InNTT || b.InNTT {
					t.Fatal("MulPoly left an operand in the NTT domain")
				}
			}
		}
	})
}

func TestNTTRoundTripDifferential(t *testing.T) {
	forEachKernel(t, func(t *testing.T, kernel string) {
		ctx := newCtx(t, 64, []uint64{12289, 257})
		k := kernelOn(t, kernel, ctx)
		r := testkit.NewRNG(11)
		for iter := 0; iter < 20; iter++ {
			p := r.Poly(ctx)
			orig := p.Clone()
			k.NTT(p)
			if !p.InNTT {
				t.Fatal("NTT did not mark the poly")
			}
			k.INTT(p)
			if !p.Equal(orig) {
				t.Fatalf("iter %d: NTT/INTT round trip is not the identity", iter)
			}
		}
	})
}

// TestNTTIsNegacyclicEvaluation checks the NTT against its defining
// property: multiplying in the evaluation domain must equal the negacyclic
// product — which pins down the transform itself, not just invertibility.
func TestNTTIsNegacyclicEvaluation(t *testing.T) {
	forEachKernel(t, func(t *testing.T, kernel string) {
		const q = uint64(12289)
		ctx := newCtx(t, 32, []uint64{q})
		k := kernelOn(t, kernel, ctx)
		r := testkit.NewRNG(12)
		a, b := r.Poly(ctx), r.Poly(ctx)
		want, err := testkit.RefNegacyclicMul(a.Coeffs[0], b.Coeffs[0], q)
		if err != nil {
			t.Fatal(err)
		}
		k.NTT(a)
		k.NTT(b)
		out := ctx.NewPoly()
		out.InNTT = true
		ctx.MulCoeffwise(a, b, out)
		k.INTT(out)
		for i := range want {
			if out.Coeffs[0][i] != want[i] {
				t.Fatalf("coeff %d: NTT pointwise product %d, schoolbook %d", i, out.Coeffs[0][i], want[i])
			}
		}
	})
}

func TestComposeCRTDifferential(t *testing.T) {
	moduli := []uint64{12289, 257}
	ctx := newCtx(t, 32, moduli)
	r := testkit.NewRNG(21)
	p := r.Poly(ctx)
	for i := 0; i < ctx.N; i++ {
		got := ctx.ComposeCRT(p, i)
		want, err := testkit.RefCRTCompose([]uint64{p.Coeffs[0][i], p.Coeffs[1][i]}, moduli)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("coeff %d: ComposeCRT %v, ref %v", i, got, want)
		}
	}
}

func TestSetCoeffBigRoundTrip(t *testing.T) {
	ctx := newCtx(t, 32, []uint64{12289, 257})
	r := testkit.NewRNG(22)
	bigQ := ctx.BigQ()
	p := ctx.NewPoly()
	v := new(big.Int)
	for i := 0; i < ctx.N; i++ {
		v.SetUint64(r.Uint64())
		v.Mod(v, bigQ)
		ctx.SetCoeffBig(p, i, v)
		if got := ctx.ComposeCRT(p, i); got.Cmp(v) != 0 {
			t.Fatalf("coeff %d: ComposeCRT(SetCoeffBig(%v)) = %v", i, v, got)
		}
	}
}

// goldenNTT pins the exact NTT output for a fixed seeded input, catching
// silent changes to twiddle order, scaling, or butterfly layout that a
// round-trip test alone would miss.
type goldenNTT struct {
	N      int        `json:"n"`
	Moduli []uint64   `json:"moduli"`
	Seed   uint64     `json:"seed"`
	Input  [][]uint64 `json:"input"`
	Output [][]uint64 `json:"output"`
}

func TestGoldenNTT(t *testing.T) {
	forEachKernel(t, func(t *testing.T, kernel string) {
		const seed = 0x5EA1
		moduli := []uint64{12289, 257}
		ctx := newCtx(t, 64, moduli)
		k := kernelOn(t, kernel, ctx)
		r := testkit.NewRNG(seed)
		p := r.Poly(ctx)
		g := goldenNTT{N: ctx.N, Moduli: moduli, Seed: seed}
		for j := range moduli {
			g.Input = append(g.Input, append([]uint64(nil), p.Coeffs[j]...))
		}
		k.NTT(p)
		for j := range moduli {
			g.Output = append(g.Output, append([]uint64(nil), p.Coeffs[j]...))
		}
		checkAgainstRef(t, "golden NTT", g.Output, newRef(t, ctx).Forward(g.Input))
		// The pinned transform must still invert back to the pinned input —
		// the golden file can never capture a non-invertible (wrong) NTT.
		k.INTT(p)
		for j := range moduli {
			for i, v := range g.Input[j] {
				if p.Coeffs[j][i] != v {
					t.Fatalf("golden NTT input does not round-trip at [%d][%d]", j, i)
				}
			}
		}
		testkit.Golden(t, "testdata/golden_ntt.json", g)
	})
}

// TestGoldenMulPoly pins a full ring product digest — a compact tripwire
// over every layer (NTT, Shoup twiddles, pointwise product, inverse).
func TestGoldenMulPoly(t *testing.T) {
	forEachKernel(t, func(t *testing.T, kernel string) {
		ctx := newCtx(t, 128, []uint64{132120577})
		k := kernelOn(t, kernel, ctx)
		r := testkit.NewRNG(0xB0B)
		a, b := r.Poly(ctx), r.Poly(ctx)
		out := ctx.NewPoly()
		k.MulPoly(a, b, out)
		checkAgainstRef(t, "golden MulPoly", out.Coeffs, newRef(t, ctx).MulPoly(a.Coeffs, b.Coeffs))
		testkit.Golden(t, "testdata/golden_mulpoly.json", map[string]any{
			"n":      ctx.N,
			"q":      uint64(132120577),
			"digest": testkit.Digest(out.Coeffs),
		})
	})
}
