// Package bfv implements the Brakerski/Fan-Vercauteren homomorphic
// encryption scheme with the structure and defaults of Microsoft SEAL v3.2,
// the library the RevEAL paper attacks. The encryptor reproduces the
// vulnerable set_poly_coeffs_normal control flow (Fig. 2 of the paper) and
// can emit a transcript of the sampled error coefficients, which the
// side-channel pipeline uses as ground truth for profiling.
package bfv

import (
	"fmt"
	"math/big"

	"reveal/internal/modular"
	"reveal/internal/ring"
	"reveal/internal/sampler"
)

// PaperQ is the single 27-bit coefficient modulus of SEAL v3.2's default
// 128-bit parameter set for n=1024, the configuration attacked in the
// paper (Table III: q = 132120577, n = 1024, σ = 3.2).
const PaperQ uint64 = 132120577

// Parameters collects the public parameters of a BFV instantiation.
type Parameters struct {
	// N is the polynomial degree (power of two).
	N int
	// Moduli is the coefficient modulus chain; the ciphertext modulus is
	// their product Q.
	Moduli []uint64
	// T is the plaintext modulus.
	T uint64
	// Sigma is the standard deviation of the error distribution.
	Sigma float64
	// MaxDeviation clips the error distribution.
	MaxDeviation float64

	ctx    *ring.Context
	delta  *big.Int // floor(Q/T)
	deltaJ []uint64 // delta mod q_j
}

// NewParameters validates and precomputes a parameter set.
func NewParameters(n int, moduli []uint64, t uint64, sigma, maxDev float64) (*Parameters, error) {
	ctx, err := ring.NewContext(n, moduli)
	if err != nil {
		return nil, err
	}
	if t < 2 {
		return nil, fmt.Errorf("bfv: plaintext modulus %d must be at least 2", t)
	}
	bigQ := ctx.BigQ()
	bigT := new(big.Int).SetUint64(t)
	if bigT.Cmp(bigQ) >= 0 {
		return nil, fmt.Errorf("bfv: plaintext modulus %d must be smaller than Q", t)
	}
	if sigma <= 0 || maxDev < sigma {
		return nil, fmt.Errorf("bfv: invalid noise parameters sigma=%v maxDev=%v", sigma, maxDev)
	}
	p := &Parameters{
		N:            n,
		Moduli:       append([]uint64(nil), moduli...),
		T:            t,
		Sigma:        sigma,
		MaxDeviation: maxDev,
		ctx:          ctx,
		delta:        new(big.Int).Quo(bigQ, bigT),
	}
	tmp := new(big.Int)
	for _, q := range moduli {
		p.deltaJ = append(p.deltaJ, tmp.Mod(p.delta, new(big.Int).SetUint64(q)).Uint64())
	}
	return p, nil
}

// PaperParameters returns the exact configuration the paper attacks:
// n=1024, q=132120577, σ=3.19 (≈8/√2π) clipped at 12.8σ, t=256.
func PaperParameters() *Parameters {
	p, err := NewParameters(1024, []uint64{PaperQ}, 256,
		sampler.DefaultSigma, sampler.DefaultMaxDeviation)
	if err != nil {
		panic(err) // static configuration, cannot fail
	}
	return p
}

// DefaultParameters returns the SEAL-default chain for the given degree from
// the ring parameter ladder (bit counts follow the homomorphic encryption
// standard: 27, 54, 109, 218 total bits for n = 1024..8192). Ladder
// generation is deterministic — the chain order follows the declared
// bit-size list, never a map walk — so residue layouts are stable across
// processes, which replay determinism depends on.
func DefaultParameters(n int, t uint64) (*Parameters, error) {
	moduli, err := defaultModuli(n)
	if err != nil {
		return nil, err
	}
	return NewParameters(n, moduli, t, sampler.DefaultSigma, sampler.DefaultMaxDeviation)
}

// extraBits extends the ring ladder with the two research degrees the
// security-sweep estimator covers but the attack pipeline does not target.
var extraBits = map[int][]int{
	16384: {48, 48, 48, 49, 49, 49, 49, 49, 49},
	32768: {55, 55, 55, 55, 55, 55, 55, 55, 55, 55, 55, 55, 55, 55, 55, 56},
}

func defaultModuli(n int) ([]uint64, error) {
	if rp, err := ring.LadderParams(n); err == nil {
		return rp.Moduli, nil
	}
	sizes, ok := extraBits[n]
	if !ok {
		return nil, fmt.Errorf("bfv: no default parameters for degree %d", n)
	}
	// Same deterministic grouped walk as the ring ladder: adjacent equal
	// bit sizes share one downward prime scan, order follows the declared
	// list so the chain layout is stable across processes.
	var moduli []uint64
	for i := 0; i < len(sizes); {
		j := i
		for j < len(sizes) && sizes[j] == sizes[i] {
			j++
		}
		ps, err := modular.GeneratePrimes(sizes[i], uint64(2*n), j-i)
		if err != nil {
			return nil, err
		}
		moduli = append(moduli, ps...)
		i = j
	}
	return moduli, nil
}

// ParamSetNames lists the named SEAL parameter sets campaign specs can
// reference ("n1024" ... "n8192"), in increasing degree order.
func ParamSetNames() []string {
	var names []string
	for _, n := range ring.LadderDegrees() {
		names = append(names, fmt.Sprintf("n%d", n))
	}
	return names
}

// ResolveParamSet maps a named parameter set ("n2048", or "" / "paper" /
// "n1024" for the paper's legacy configuration) to parameters with the
// paper's plaintext modulus and noise defaults.
func ResolveParamSet(name string) (*Parameters, error) {
	switch name {
	case "", "paper", "n1024":
		return PaperParameters(), nil
	}
	var n int
	if _, err := fmt.Sscanf(name, "n%d", &n); err != nil || fmt.Sprintf("n%d", n) != name {
		return nil, fmt.Errorf("bfv: unknown parameter set %q (have %v)", name, ParamSetNames())
	}
	p, err := DefaultParameters(n, 256)
	if err != nil {
		return nil, fmt.Errorf("bfv: unknown parameter set %q (have %v)", name, ParamSetNames())
	}
	return p, nil
}

// Context returns the underlying ring context.
func (p *Parameters) Context() *ring.Context { return p.ctx }

// Q returns the full coefficient modulus as a big integer (copy).
func (p *Parameters) Q() *big.Int { return p.ctx.BigQ() }

// Delta returns floor(Q/T) (copy).
func (p *Parameters) Delta() *big.Int { return new(big.Int).Set(p.delta) }

// DeltaMod returns floor(Q/T) mod q_j.
func (p *Parameters) DeltaMod(j int) uint64 { return p.deltaJ[j] }

// NoiseSampler returns a ClippedNormal configured with this parameter set's
// σ and clipping bound.
func (p *Parameters) NoiseSampler() *sampler.ClippedNormal {
	cn, err := sampler.NewClippedNormal(p.Sigma, p.MaxDeviation)
	if err != nil {
		panic(err) // validated at construction
	}
	return cn
}

// Plaintext is a degree-n polynomial with coefficients reduced modulo T.
type Plaintext struct {
	Coeffs []uint64
}

// NewPlaintext allocates an all-zero plaintext for the parameter set.
func (p *Parameters) NewPlaintext() *Plaintext {
	return &Plaintext{Coeffs: make([]uint64, p.N)}
}

// Validate checks that pt has the right length and reduced coefficients.
func (p *Parameters) Validate(pt *Plaintext) error {
	if pt == nil || len(pt.Coeffs) != p.N {
		return fmt.Errorf("bfv: plaintext has %d coefficients, want %d", len(pt.Coeffs), p.N)
	}
	for i, c := range pt.Coeffs {
		if c >= p.T {
			return fmt.Errorf("bfv: plaintext coefficient %d = %d not reduced mod t=%d", i, c, p.T)
		}
	}
	return nil
}

// Ciphertext is a BFV ciphertext: a vector of polynomials (size 2 after
// encryption or relinearization, 3 right after multiplication).
type Ciphertext struct {
	C []*ring.Poly
}

// Degree returns len(C)-1, the ciphertext degree in the secret key.
func (ct *Ciphertext) Degree() int { return len(ct.C) - 1 }

// Clone deep-copies the ciphertext.
func (ct *Ciphertext) Clone() *Ciphertext {
	out := &Ciphertext{C: make([]*ring.Poly, len(ct.C))}
	for i, c := range ct.C {
		out.C[i] = c.Clone()
	}
	return out
}
