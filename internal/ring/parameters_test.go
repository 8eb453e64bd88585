package ring

import (
	"math/bits"
	"testing"
)

func TestNewParametersRejectionPaths(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		moduli []uint64
	}{
		{"zero degree", 0, []uint64{12289}},
		{"degree one", 1, []uint64{12289}},
		{"non-power-of-two", 48, []uint64{12289}},
		{"negative-ish huge odd", 3, []uint64{12289}},
		{"empty moduli", 64, nil},
		{"zero modulus", 64, []uint64{0}},
		{"one modulus", 64, []uint64{1}},
		{"oversized modulus (62-bit)", 64, []uint64{1 << 62}},
		{"composite", 64, []uint64{12289 * 3}},
		{"prime but not 1 mod 2n", 64, []uint64{97}},
		{"duplicate", 64, []uint64{12289, 12289}},
		{"second modulus bad", 64, []uint64{12289, 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewParameters(tc.n, tc.moduli); err == nil {
				t.Fatalf("NewParameters(%d, %v) accepted invalid input", tc.n, tc.moduli)
			}
		})
	}
}

func TestNewParametersAccepts(t *testing.T) {
	p, err := NewParameters(64, []uint64{12289, 257})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 64 || p.LogN != 6 || len(p.Moduli) != 2 {
		t.Fatalf("unexpected shape: %+v", p)
	}
	// The constructor must copy the caller's slice.
	src := []uint64{12289}
	p2, err := NewParameters(64, src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 0
	if p2.Moduli[0] != 12289 {
		t.Fatal("NewParameters aliased the caller's moduli slice")
	}
}

// TestLadderShape pins the SEAL-default chain shapes: degree, chain length,
// and per-prime bit widths — plus determinism across calls.
func TestLadderShape(t *testing.T) {
	wantBits := map[int][]int{
		1024: {27},
		2048: {54},
		4096: {36, 36, 37},
		8192: {43, 43, 44, 44, 44},
	}
	degrees := LadderDegrees()
	if len(degrees) != len(wantBits) {
		t.Fatalf("LadderDegrees() = %v", degrees)
	}
	for _, n := range degrees {
		p, err := LadderParams(n)
		if err != nil {
			t.Fatalf("LadderParams(%d): %v", n, err)
		}
		if p.N != n {
			t.Fatalf("n=%d: got degree %d", n, p.N)
		}
		want := wantBits[n]
		if len(p.Moduli) != len(want) {
			t.Fatalf("n=%d: chain length %d, want %d", n, len(p.Moduli), len(want))
		}
		for i, q := range p.Moduli {
			if got := bits.Len64(q); got != want[i] {
				t.Fatalf("n=%d prime %d: %d bits (%d), want %d", n, i, got, q, want[i])
			}
			if (q-1)%uint64(2*n) != 0 {
				t.Fatalf("n=%d prime %d=%d not NTT-friendly", n, i, q)
			}
		}
		// Deterministic: a second call returns the identical chain.
		p2, err := LadderParams(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Moduli {
			if p.Moduli[i] != p2.Moduli[i] {
				t.Fatalf("n=%d: ladder generation not deterministic at index %d", n, i)
			}
		}
	}
	if p := mustLadder(1024); p.Moduli[0] != LegacyQ {
		t.Fatalf("n=1024 ladder modulus %d, want legacy %d", p.Moduli[0], LegacyQ)
	}
	if _, err := LadderParams(512); err == nil {
		t.Fatal("LadderParams accepted an unsupported degree")
	}
	// The named accessors agree with LadderParams.
	for _, tc := range []struct {
		n int
		p *Parameters
	}{{2048, ParamsN2048()}, {4096, ParamsN4096()}, {8192, mustLadder(8192)}} {
		if tc.p.N != tc.n {
			t.Fatalf("ParamsN%d returned degree %d", tc.n, tc.p.N)
		}
	}
}

// TestBitReverseInvolution: reversing twice is the identity, and the
// reversal permutes the index range (twiddle-table layout property).
func TestBitReverseInvolution(t *testing.T) {
	for _, logN := range []int{1, 4, 10, 13} {
		n := uint32(1) << logN
		seen := make([]bool, n)
		for x := uint32(0); x < n; x++ {
			r := BitReverse(x, logN)
			if r >= n {
				t.Fatalf("logN=%d: BitReverse(%d) = %d out of range", logN, x, r)
			}
			if BitReverse(r, logN) != x {
				t.Fatalf("logN=%d: BitReverse not an involution at %d", logN, x)
			}
			if seen[r] {
				t.Fatalf("logN=%d: BitReverse not a permutation, %d hit twice", logN, r)
			}
			seen[r] = true
		}
	}
}
