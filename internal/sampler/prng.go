// Package sampler implements the randomness SEAL's BFV encryption consumes:
// a deterministic seedable PRNG, uniform and ternary polynomial samplers,
// and — centrally for this reproduction — the ClippedNormalDistribution of
// SEAL v3.2, whose sign-dependent post-processing is the side channel the
// RevEAL attack exploits. A SEAL v3.6-style branch-free sign assignment
// (the patched code path) is provided for the defense ablations.
package sampler

import "math"

// PRNG is the randomness source consumed by all samplers. Implementations
// must be deterministic for a fixed seed so that profiling campaigns and
// attack traces are reproducible.
type PRNG interface {
	// Uint64 returns the next 64 uniformly random bits.
	Uint64() uint64
}

// Xoshiro256 is the xoshiro256** generator of Blackman and Vigna: tiny,
// fast, and of more than sufficient quality for simulation workloads.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 seeds the generator from a single 64-bit seed using
// SplitMix64, the initialization recommended by the xoshiro authors.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	x := &Xoshiro256{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range x.s {
		x.s[i] = next()
	}
	// All-zero state would be absorbing; SplitMix64 cannot produce it from
	// any seed, but keep the guard for safety.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return x
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the xoshiro256** sequence.
func (x *Xoshiro256) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Float64 returns a uniform double in [0, 1) with 53 bits of precision,
// the same construction the C++ standard library uses for
// generate_canonical.
func Float64(p PRNG) float64 {
	return float64(p.Uint64()>>11) * (1.0 / (1 << 53))
}

// Uint64Below returns a uniform value in [0, bound) using rejection to
// avoid modulo bias. bound must be nonzero.
func Uint64Below(p PRNG, bound uint64) uint64 {
	if bound == 0 {
		panic("sampler: Uint64Below with zero bound")
	}
	// Rejection threshold: largest multiple of bound that fits in 2^64.
	threshold := -bound % bound // (2^64 - bound) mod bound
	for {
		v := p.Uint64()
		if v >= threshold {
			return v % bound
		}
	}
}

// NormFloat64 draws a standard normal via the Marsaglia polar method and
// reports how many candidate pairs were rejected before acceptance. The
// rejection count is what makes the sampling duration time-variant on the
// device, the property §III-C of the paper works around when segmenting
// traces.
func NormFloat64(p PRNG) (value float64, rejections int) {
	for {
		u := 2*Float64(p) - 1
		v := 2*Float64(p) - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			rejections++
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		return u * f, rejections
	}
}
