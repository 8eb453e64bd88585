package ring_test

// Property-based invariant tests: the ring axioms of R_q = Z_q[x]/(x^n+1)
// must hold for every seeded random triple, and the Galois automorphisms
// must be ring homomorphisms. Every property that multiplies runs on both
// NTT kernels.

import (
	"testing"

	"reveal/internal/ring"
	"reveal/internal/testkit"
)

func propCtx(t *testing.T) *ring.Context {
	t.Helper()
	return newCtx(t, 64, []uint64{12289, 257})
}

func TestRingAdditiveLaws(t *testing.T) {
	ctx := propCtx(t)
	r := testkit.NewRNG(101)
	for iter := 0; iter < 10; iter++ {
		a, b, c := r.Poly(ctx), r.Poly(ctx), r.Poly(ctx)
		ab, ba := ctx.NewPoly(), ctx.NewPoly()
		ctx.Add(a, b, ab)
		ctx.Add(b, a, ba)
		if !ab.Equal(ba) {
			t.Fatal("a+b != b+a")
		}
		abc1, abc2, tmp := ctx.NewPoly(), ctx.NewPoly(), ctx.NewPoly()
		ctx.Add(a, b, tmp)
		ctx.Add(tmp, c, abc1)
		ctx.Add(b, c, tmp)
		ctx.Add(a, tmp, abc2)
		if !abc1.Equal(abc2) {
			t.Fatal("(a+b)+c != a+(b+c)")
		}
		neg, sum := ctx.NewPoly(), ctx.NewPoly()
		ctx.Neg(a, neg)
		ctx.Add(a, neg, sum)
		zero := ctx.NewPoly()
		if !sum.Equal(zero) {
			t.Fatal("a + (-a) != 0")
		}
		diff, viaNeg := ctx.NewPoly(), ctx.NewPoly()
		ctx.Sub(a, b, diff)
		ctx.Neg(b, tmp)
		ctx.Add(a, tmp, viaNeg)
		if !diff.Equal(viaNeg) {
			t.Fatal("a-b != a+(-b)")
		}
	}
}

func TestRingMultiplicativeLaws(t *testing.T) {
	forEachKernel(t, func(t *testing.T, kernel string) {
		ctx := propCtx(t)
		k := kernelOn(t, kernel, ctx)
		r := testkit.NewRNG(102)
		for iter := 0; iter < 6; iter++ {
			a, b, c := r.Poly(ctx), r.Poly(ctx), r.Poly(ctx)
			ab, ba := ctx.NewPoly(), ctx.NewPoly()
			k.MulPoly(a, b, ab)
			k.MulPoly(b, a, ba)
			if !ab.Equal(ba) {
				t.Fatal("a*b != b*a")
			}
			// Associativity: (a*b)*c == a*(b*c).
			l, rr, tmp := ctx.NewPoly(), ctx.NewPoly(), ctx.NewPoly()
			k.MulPoly(ab, c, l)
			k.MulPoly(b, c, tmp)
			k.MulPoly(a, tmp, rr)
			if !l.Equal(rr) {
				t.Fatal("(a*b)*c != a*(b*c)")
			}
			// Distributivity: a*(b+c) == a*b + a*c.
			bc, abc, abac, ac := ctx.NewPoly(), ctx.NewPoly(), ctx.NewPoly(), ctx.NewPoly()
			ctx.Add(b, c, bc)
			k.MulPoly(a, bc, abc)
			k.MulPoly(a, c, ac)
			ctx.Add(ab, ac, abac)
			if !abc.Equal(abac) {
				t.Fatal("a*(b+c) != a*b + a*c")
			}
			// Multiplicative identity.
			one := ctx.NewPoly()
			for j := range ctx.Moduli {
				one.Coeffs[j][0] = 1
			}
			aOne := ctx.NewPoly()
			k.MulPoly(a, one, aOne)
			if !aOne.Equal(a) {
				t.Fatal("a*1 != a")
			}
		}
	})
}

// TestScalarMulMatchesRepeatedAdd: the ring product with the constant
// polynomial s must equal a added to itself s times.
func TestScalarMulMatchesRepeatedAdd(t *testing.T) {
	forEachKernel(t, func(t *testing.T, kernel string) {
		ctx := propCtx(t)
		k := kernelOn(t, kernel, ctx)
		r := testkit.NewRNG(103)
		a := r.Poly(ctx)
		acc := ctx.NewPoly()
		byScalar := ctx.NewPoly()
		for s := uint64(1); s <= 8; s++ {
			ctx.Add(acc, a, acc)
			constant := ctx.NewPoly()
			for j := range ctx.Moduli {
				constant.Coeffs[j][0] = s
			}
			k.MulPoly(a, constant, byScalar)
			if !byScalar.Equal(acc) {
				t.Fatalf("%d*a != a added %d times", s, s)
			}
		}
	})
}

// TestAutomorphismIsRingHomomorphism: x -> x^g must commute with both ring
// operations — the property ApplyGalois and the attack's hint rotation
// depend on.
func TestAutomorphismIsRingHomomorphism(t *testing.T) {
	forEachKernel(t, func(t *testing.T, kernel string) {
		ctx := propCtx(t)
		k := kernelOn(t, kernel, ctx)
		r := testkit.NewRNG(104)
		for _, g := range []uint64{3, 5, 2*64 - 1} {
			a, b := r.Poly(ctx), r.Poly(ctx)
			sum, prod := ctx.NewPoly(), ctx.NewPoly()
			ctx.Add(a, b, sum)
			k.MulPoly(a, b, prod)
			autA, autB, autSum, autProd := ctx.NewPoly(), ctx.NewPoly(), ctx.NewPoly(), ctx.NewPoly()
			for dst, src := range map[*ring.Poly]*ring.Poly{autA: a, autB: b, autSum: sum, autProd: prod} {
				if err := ctx.Automorphism(src, g, dst); err != nil {
					t.Fatalf("Automorphism(g=%d): %v", g, err)
				}
			}
			check := ctx.NewPoly()
			ctx.Add(autA, autB, check)
			if !check.Equal(autSum) {
				t.Fatalf("g=%d: aut(a+b) != aut(a)+aut(b)", g)
			}
			k.MulPoly(autA, autB, check)
			if !check.Equal(autProd) {
				t.Fatalf("g=%d: aut(a*b) != aut(a)*aut(b)", g)
			}
		}
		// An even g is not a unit mod 2n and must be rejected.
		bad := ctx.NewPoly()
		if err := ctx.Automorphism(bad, 4, ctx.NewPoly()); err == nil {
			t.Fatal("Automorphism accepted even Galois element")
		}
	})
}

func TestSetSignedInfNorm(t *testing.T) {
	ctx := propCtx(t)
	r := testkit.NewRNG(105)
	for iter := 0; iter < 10; iter++ {
		vals := r.SignedCoeffs(ctx.N, 40)
		p := ctx.NewPoly()
		if err := ctx.SetSigned(p, vals); err != nil {
			t.Fatal(err)
		}
		var want uint64
		for _, v := range vals {
			m := v
			if m < 0 {
				m = -m
			}
			if uint64(m) > want {
				want = uint64(m)
			}
		}
		if got := ctx.InfNormCentered(p); got != want {
			t.Fatalf("InfNormCentered = %d, want %d", got, want)
		}
	}
}
