package ring_test

// Fuzz targets for the ring layer, wired into the CI fuzz-smoke step:
// FuzzNTTRoundTrip checks forward+inverse identity over every ladder prime
// and byte equality of the forward transform with the testkit reference; FuzzCRTReconstruct checks RNS decompose→reconstruct identity
// and that non-coprime bases (duplicate or composite moduli) are rejected
// at construction.

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"testing"

	"reveal/internal/ring"
)

// ladderPrimePool returns the distinct primes of the whole ladder.
func ladderPrimePool(t testing.TB) []uint64 {
	t.Helper()
	seen := map[uint64]bool{}
	var pool []uint64
	for _, n := range ring.LadderDegrees() {
		p, err := ring.LadderParams(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range p.Moduli {
			if !seen[q] {
				seen[q] = true
				pool = append(pool, q)
			}
		}
	}
	return pool
}

func FuzzNTTRoundTrip(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66})
	f.Add(make([]byte, 64))
	pool := ladderPrimePool(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 32
		for _, q := range pool {
			params, err := ring.NewParameters(n, []uint64{q})
			if err != nil {
				t.Fatalf("ladder prime %d rejected at n=%d: %v", q, n, err)
			}
			ctx, err := ring.NewContextFor(params)
			if err != nil {
				t.Fatal(err)
			}
			p := ctx.NewPoly()
			for i := 0; i < n; i++ {
				var w [8]byte
				copy(w[:], data[(8*i)%max(len(data), 1):])
				p.Coeffs[0][i] = binary.LittleEndian.Uint64(w[:]) % q
			}
			orig := p.Clone()
			ctx.NTT(p)
			checkAgainstRef(t, fmt.Sprintf("q=%d: forward NTT", q), p.Coeffs, newRef(t, ctx).Forward(orig.Coeffs))
			ctx.INTT(p)
			if !p.Equal(orig) {
				t.Fatalf("q=%d: NTT round trip not identity", q)
			}
		}
	})
}

func FuzzCRTReconstruct(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(2), byte(0))
	f.Add(uint64(12345678901234567), uint64(42), uint64(7), byte(1))
	f.Add(^uint64(0), ^uint64(0)>>3, uint64(3), byte(2))
	pool := ladderPrimePool(f)
	f.Fuzz(func(t *testing.T, v0, v1, v2 uint64, pick byte) {
		const n = 4
		// Choose a 3-prime basis from the pool, all distinct.
		k := len(pool)
		if k < 3 {
			t.Fatalf("ladder prime pool too small: %d", k)
		}
		i0 := int(pick) % k
		i1 := (i0 + 1 + int(v2%uint64(k-1))) % k
		i2 := (i1 + 1) % k
		if i2 == i0 {
			i2 = (i2 + 1) % k
		}
		basis := []uint64{pool[i0], pool[i1], pool[i2]}
		seen := map[uint64]bool{}
		for _, q := range basis {
			if seen[q] {
				return // degenerate pick; rejection is tested below anyway
			}
			seen[q] = true
		}
		ctx, err := ring.NewContext(n, basis)
		if err != nil {
			t.Fatalf("valid basis %v rejected: %v", basis, err)
		}
		// Build a value < Q from the three fuzz words and check
		// decompose → reconstruct is the identity.
		v := new(big.Int).SetUint64(v0)
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(v1))
		v.Mod(v, ctx.BigQ())
		p := ctx.NewPoly()
		ctx.SetCoeffBig(p, 0, v)
		for j, q := range basis {
			want := new(big.Int).Mod(v, new(big.Int).SetUint64(q)).Uint64()
			if p.Coeffs[j][0] != want {
				t.Fatalf("decompose residue %d wrong: got %d want %d", j, p.Coeffs[j][0], want)
			}
		}
		if got := ctx.ComposeCRT(p, 0); got.Cmp(v) != 0 {
			t.Fatalf("reconstruct(decompose(%v)) = %v", v, got)
		}
		// Non-coprime bases must be rejected: a duplicated prime shares a
		// factor with itself, and a composite q0*small likewise overlaps.
		if _, err := ring.NewContext(n, []uint64{basis[0], basis[0]}); err == nil {
			t.Fatal("duplicate modulus (non-coprime basis) accepted")
		}
		if _, err := ring.NewContext(n, []uint64{basis[0], basis[0] * 3}); err == nil {
			t.Fatal("composite multiple of basis prime accepted")
		}
	})
}
