package ring

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"reveal/internal/modular"
)

// Parameters is a validated ring configuration: a power-of-two degree and a
// chain of distinct NTT-friendly primes. It is the single place degree and
// modulus-chain invariants are checked; every Context is built from an
// already-validated Parameters value, so the kernels never re-validate.
type Parameters struct {
	// N is the polynomial degree, a power of two >= 2.
	N int
	// Moduli is the coefficient-modulus chain q_0 ... q_{k-1}.
	Moduli []uint64
	// LogN is log2(N).
	LogN int
}

// NewParameters validates a degree/modulus-chain pair: n must be a power of
// two >= 2, and every modulus must be a distinct prime below 2^61 with
// q == 1 (mod 2n) so a primitive 2n-th root of unity exists (the
// NTT-friendliness condition for the negacyclic transform).
func NewParameters(n int, moduli []uint64) (*Parameters, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: degree %d must be a power of two ≥ 2", n)
	}
	if len(moduli) == 0 {
		return nil, fmt.Errorf("ring: at least one modulus required")
	}
	seen := map[uint64]bool{}
	for _, q := range moduli {
		if err := modular.ValidateModulus(q); err != nil {
			return nil, err
		}
		if !modular.IsPrime(q) {
			return nil, fmt.Errorf("ring: modulus %d is not prime", q)
		}
		if (q-1)%uint64(2*n) != 0 {
			return nil, fmt.Errorf("ring: modulus %d is not ≡ 1 mod 2n=%d", q, 2*n)
		}
		if seen[q] {
			return nil, fmt.Errorf("ring: duplicate modulus %d", q)
		}
		seen[q] = true
	}
	return &Parameters{
		N:      n,
		Moduli: append([]uint64(nil), moduli...),
		LogN:   bits.TrailingZeros(uint(n)),
	}, nil
}

// LegacyQ is the single 27-bit modulus of the paper's parameter set
// (SEAL v3.2 defaults for n=1024): the configuration every selftest digest
// and committed golden vector is pinned on.
const LegacyQ uint64 = 132120577

// ladderBits lists the SEAL-default coefficient-modulus bit sizes per
// degree (the homomorphic encryption standard's 128-bit-security chains:
// 27, 54, 109 and 218 total bits for n = 1024..8192).
var ladderBits = map[int][]int{
	1024: {27},
	2048: {54},
	4096: {36, 36, 37},
	8192: {43, 43, 44, 44, 44},
}

// ladderCache memoizes the generated ladder chains; prime generation by
// downward scan is deterministic, so the cache only saves repeated work.
var (
	ladderMu    sync.Mutex
	ladderCache = map[int]*Parameters{}
)

// LadderDegrees returns the degrees the SEAL parameter ladder covers, in
// increasing order.
func LadderDegrees() []int {
	ds := make([]int, 0, len(ladderBits))
	for n := range ladderBits {
		ds = append(ds, n)
	}
	sort.Ints(ds)
	return ds
}

// LadderParams returns the SEAL-default ring parameters for degree n. The
// n=1024 entry is the paper's legacy single-prime configuration; larger
// degrees get multi-prime chains generated exactly the way SEAL's
// CoeffModulus::Create scans for NTT-friendly primes — largest candidate
// below 2^bits congruent to 1 mod 2n, walking down. Generation is fully
// deterministic, and the chain order follows the declared bit-size order
// (never a map walk), so residue layouts are reproducible across processes.
func LadderParams(n int) (*Parameters, error) {
	sizes, ok := ladderBits[n]
	if !ok {
		return nil, fmt.Errorf("ring: no ladder parameters for degree %d (have %v)", n, LadderDegrees())
	}
	ladderMu.Lock()
	defer ladderMu.Unlock()
	if p, ok := ladderCache[n]; ok {
		return p, nil
	}
	var moduli []uint64
	if n == 1024 {
		moduli = []uint64{LegacyQ}
	} else {
		// Walk the size list in declared order, grouping equal adjacent
		// sizes into one GeneratePrimes call so distinct primes come out
		// of a single downward scan.
		for i := 0; i < len(sizes); {
			j := i
			for j < len(sizes) && sizes[j] == sizes[i] {
				j++
			}
			ps, err := modular.GeneratePrimes(sizes[i], uint64(2*n), j-i)
			if err != nil {
				return nil, fmt.Errorf("ring: generating %d-bit ladder primes for n=%d: %w", sizes[i], n, err)
			}
			moduli = append(moduli, ps...)
			i = j
		}
	}
	p, err := NewParameters(n, moduli)
	if err != nil {
		return nil, err
	}
	ladderCache[n] = p
	return p, nil
}

// mustLadder panics on a ladder generation failure; the ladder entries are
// static configurations, so failure is a programming error.
func mustLadder(n int) *Parameters {
	p, err := LadderParams(n)
	if err != nil {
		panic(err)
	}
	return p
}

// ParamsN2048 returns the SEAL default for n=2048: one 54-bit prime.
func ParamsN2048() *Parameters { return mustLadder(2048) }

// ParamsN4096 returns the SEAL default for n=4096: a 36+36+37-bit chain.
func ParamsN4096() *Parameters { return mustLadder(4096) }
