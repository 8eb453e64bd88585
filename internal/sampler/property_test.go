package sampler_test

// Property-based distribution tests driven by testkit's seeded generators:
// higher moments of the clipped normal and sign-assignment round trips
// checked against the math/big reference.

import (
	"math"
	"testing"

	"reveal/internal/modular"
	"reveal/internal/sampler"
	"reveal/internal/testkit"
)

// moments returns mean, variance, skewness and excess kurtosis.
func moments(samples []float64) (mean, variance, skew, exKurt float64) {
	n := float64(len(samples))
	for _, v := range samples {
		mean += v
	}
	mean /= n
	var m2, m3, m4 float64
	for _, v := range samples {
		d := v - mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	m2 /= n
	m3 /= n
	m4 /= n
	variance = m2
	sd := math.Sqrt(m2)
	skew = m3 / (sd * sd * sd)
	exKurt = m4/(m2*m2) - 3
	return
}

// TestClippedNormalHigherMoments: beyond mean/variance, the third and
// fourth moments must match a Gaussian — a sampler that is symmetric and
// has the right variance can still be wrong in the tails, which is exactly
// where the clipping branch (the paper's leakage site) lives.
func TestClippedNormalHigherMoments(t *testing.T) {
	cn := sampler.DefaultClippedNormal()
	prng := testkit.NewRNG(2718).PRNG()
	const n = 400000
	samples := make([]float64, n)
	for i := range samples {
		v, _ := cn.Sample(prng)
		samples[i] = float64(v)
	}
	mean, variance, skew, exKurt := moments(samples)
	sigma := sampler.DefaultSigma
	if math.Abs(mean) > 0.03 {
		t.Errorf("mean %.4f, want ~0", mean)
	}
	// Discretization adds ~1/12 to the continuous variance.
	wantVar := sigma*sigma + 1.0/12.0
	if math.Abs(variance-wantVar)/wantVar > 0.02 {
		t.Errorf("variance %.4f, want ~%.4f", variance, wantVar)
	}
	if math.Abs(skew) > 0.05 {
		t.Errorf("skewness %.4f, want ~0", skew)
	}
	if math.Abs(exKurt) > 0.1 {
		t.Errorf("excess kurtosis %.4f, want ~0", exKurt)
	}
}

// TestAssignSignedRoundTrip: storing a centered noise value into RNS
// residues and center-lifting it back must be the identity, and the
// residues must match the math/big reference for every modulus.
func TestAssignSignedRoundTrip(t *testing.T) {
	moduli := []uint64{12289, 257, 132120577}
	r := testkit.NewRNG(41)
	for iter := 0; iter < 2000; iter++ {
		noise := r.Int64Centered(40)
		residues, br := sampler.AssignSigned(noise, moduli)
		for j, q := range moduli {
			var want uint64
			if noise < 0 {
				want = testkit.RefSubMod(0, uint64(-noise), q)
			} else {
				want = uint64(noise) % q
			}
			if residues[j] != want {
				t.Fatalf("noise %d mod %d: residue %d, ref %d", noise, q, residues[j], want)
			}
			if got := modular.CenteredRep(residues[j], q); got != noise {
				t.Fatalf("CenteredRep(AssignSigned(%d)) = %d mod %d", noise, got, q)
			}
		}
		// The recorded branch is the paper's V1 ground truth; it must
		// track the sign of the sampled value.
		wantBranch := sampler.BranchZero
		if noise > 0 {
			wantBranch = sampler.BranchPositive
		} else if noise < 0 {
			wantBranch = sampler.BranchNegative
		}
		if br != wantBranch {
			t.Fatalf("noise %d: branch %v, want %v", noise, br, wantBranch)
		}
	}
}

// TestUint64BelowUniformity: bucket a seeded stream and require every
// bucket within 5 sigma of the expected count — catches modulo bias.
func TestUint64BelowUniformity(t *testing.T) {
	r := testkit.NewRNG(51)
	const buckets = 16
	const n = 160000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Uint64Below(buckets)]++
	}
	expected := float64(n) / buckets
	sigma := math.Sqrt(expected * (1 - 1.0/buckets))
	for b, c := range counts {
		if math.Abs(float64(c)-expected) > 5*sigma {
			t.Errorf("bucket %d: %d hits, expected %.0f±%.0f", b, c, expected, 5*sigma)
		}
	}
}
