package modular

import (
	"testing"
)

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{
		0: false, 1: false, 2: true, 3: true, 4: false, 5: true, 6: false,
		7: true, 9: false, 11: true, 25: false, 97: true, 100: false,
		65537: true, 65539: true, 65541: false,
		132120577: true, // the paper's q
	}
	for n, want := range primes {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d)=%v want %v", n, got, want)
		}
	}
}

func TestIsPrimeLarge(t *testing.T) {
	// Known 61-bit NTT primes and near-misses.
	if !IsPrime((1 << 61) - 1) { // Mersenne prime M61
		t.Error("2^61-1 should be prime")
	}
	if IsPrime((1 << 61) - 3) {
		t.Error("2^61-3 is composite (divisible by 5)")
	}
	// Carmichael numbers must be rejected.
	for _, c := range []uint64{561, 1105, 1729, 2465, 2821, 6601, 8911} {
		if IsPrime(c) {
			t.Errorf("Carmichael number %d misclassified as prime", c)
		}
	}
}

func TestGeneratePrimes(t *testing.T) {
	// NTT-friendly primes for n=1024 (need ≡ 1 mod 2n = 2048).
	primes, err := GeneratePrimes(27, 2048, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(primes) != 3 {
		t.Fatalf("want 3 primes, got %d", len(primes))
	}
	seen := map[uint64]bool{}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("%d is not prime", p)
		}
		if (p-1)%2048 != 0 {
			t.Errorf("%d is not ≡ 1 mod 2048", p)
		}
		if p>>26 != 1 {
			t.Errorf("%d is not a 27-bit prime", p)
		}
		if seen[p] {
			t.Errorf("duplicate prime %d", p)
		}
		seen[p] = true
	}
}

func TestGeneratePrimesErrors(t *testing.T) {
	if _, err := GeneratePrimes(1, 2, 1); err == nil {
		t.Error("bit size 1 should fail")
	}
	if _, err := GeneratePrimes(62, 2, 1); err == nil {
		t.Error("bit size 62 should fail")
	}
	if _, err := GeneratePrimes(27, 0, 1); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := GeneratePrimes(27, 2048, 0); err == nil {
		t.Error("count=0 should fail")
	}
	// Impossible: too many primes requested from a tiny window.
	if _, err := GeneratePrimes(4, 8, 10); err == nil {
		t.Error("should fail when window has too few primes")
	}
}

func TestPrimitiveRoot(t *testing.T) {
	for _, q := range []uint64{3, 5, 7, 257, 65537, 132120577} {
		g, err := PrimitiveRoot(q)
		if err != nil {
			t.Fatalf("PrimitiveRoot(%d): %v", q, err)
		}
		// g^(q-1) == 1 and g^((q-1)/f) != 1 for each prime factor f.
		if Exp(g, q-1, q) != 1 {
			t.Errorf("g^(q-1) != 1 for q=%d", q)
		}
		for _, f := range distinctPrimeFactors(q - 1) {
			if Exp(g, (q-1)/f, q) == 1 {
				t.Errorf("g=%d has order dividing (q-1)/%d for q=%d", g, f, q)
			}
		}
	}
	if _, err := PrimitiveRoot(8); err == nil {
		t.Error("composite modulus should fail")
	}
}

func TestMinimalPrimitiveNthRoot(t *testing.T) {
	const q = 132120577 // q-1 = 2^21 * 63
	for _, n := range []uint64{2, 4, 1024, 2048, 1 << 21} {
		w, err := MinimalPrimitiveNthRoot(n, q)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if Exp(w, n, q) != 1 {
			t.Errorf("w^n != 1 for n=%d", n)
		}
		if n > 1 && Exp(w, n/2, q) != q-1 {
			t.Errorf("w^(n/2) != -1 for n=%d (not primitive)", n)
		}
	}
	if _, err := MinimalPrimitiveNthRoot(3, q); err == nil {
		t.Error("non-power-of-two n should fail")
	}
	if _, err := MinimalPrimitiveNthRoot(1<<22, q); err == nil {
		t.Error("n not dividing q-1 should fail")
	}
}

func TestDistinctPrimeFactors(t *testing.T) {
	cases := []struct {
		n    uint64
		want []uint64
	}{
		{2, []uint64{2}},
		{12, []uint64{2, 3}},
		{132120576, []uint64{2, 3, 7}}, // 2^21 * 3^2 * 7
		{97, []uint64{97}},
		{49, []uint64{7}},
	}
	for _, c := range cases {
		got := distinctPrimeFactors(c.n)
		if len(got) != len(c.want) {
			t.Errorf("factors(%d)=%v want %v", c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("factors(%d)=%v want %v", c.n, got, c.want)
			}
		}
	}
}
