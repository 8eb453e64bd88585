// Package dbdd implements the "LWE with side information" framework of
// Dachman-Soled, Ducas, Gong and Rossi (CRYPTO 2020) — reference [31] of
// the paper — in the lightweight per-coordinate form the RevEAL attack
// needs: a Distorted Bounded Distance Decoding instance tracked as
// per-coordinate means/variances plus the lattice dimension and volume,
// into which perfect, approximate, and modular hints are integrated, and
// from which the remaining hardness is reported as a BKZ block size
// ("bikz") via the Gaussian-heuristic/GSA intersection estimator.
package dbdd

import (
	"fmt"
	"math"

	"reveal/internal/obs"
)

// BitsPerBikz converts block size to bits of security: the paper (and
// [31]) state that bikz ≈ 2.98 × bit-security for these parameter ranges
// (382.25 bikz ↔ 128 bits).
const BitsPerBikz = 382.25 / 128.0

// Instance is a DBDD instance with diagonal covariance: the unknown vector
// is (secret coords, error coords) of length NSecret+NError; the embedding
// lattice has dimension NSecret+NError+1 (homogenization) and volume
// q^NError.
type Instance struct {
	// Var and Mu are the per-coordinate posterior variance and mean of the
	// unknown vector. Eliminated coordinates have Var = 0 and are excluded
	// from the dimension.
	Var []float64
	Mu  []float64

	eliminated []bool
	dim        int     // remaining lattice dimension (incl. homogenization)
	logVol     float64 // natural log of the lattice volume

	// Ellip tracks the squared-norm budget of the normalized target (the
	// ellipsoid trace); kept for diagnostics.
	nHints int
}

// NewLWEInstance creates the DBDD instance for an LWE problem with n
// secret coordinates of variance sigmaS2, m error coordinates of variance
// sigmaE2, and modulus q. This is the primal embedding: dim = n+m+1,
// vol = q^m.
func NewLWEInstance(n, m int, q float64, sigmaS2, sigmaE2 float64) (*Instance, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("dbdd: dimensions must be positive (n=%d m=%d)", n, m)
	}
	if q <= 1 || sigmaS2 <= 0 || sigmaE2 <= 0 {
		return nil, fmt.Errorf("dbdd: invalid parameters q=%v sigmaS2=%v sigmaE2=%v", q, sigmaS2, sigmaE2)
	}
	inst := &Instance{
		Var:        make([]float64, n+m),
		Mu:         make([]float64, n+m),
		eliminated: make([]bool, n+m),
		dim:        n + m + 1,
		logVol:     float64(m) * math.Log(q),
	}
	for i := 0; i < n; i++ {
		inst.Var[i] = sigmaS2
	}
	for i := n; i < n+m; i++ {
		inst.Var[i] = sigmaE2
	}
	return inst, nil
}

// PerfectHint integrates ⟨s, e_i⟩ = value: the coordinate becomes known,
// the lattice dimension drops by one, and — because the coordinate vector
// e_i is primitive in the dual of the primal embedding lattice — the
// volume is unchanged (Lemma "vol(Λ ∩ v⊥) = vol(Λ)·‖v‖" of [31]).
func (in *Instance) PerfectHint(coord int, value float64) error {
	if err := in.checkCoord(coord); err != nil {
		return err
	}
	in.eliminated[coord] = true
	in.Var[coord] = 0
	in.Mu[coord] = value
	in.dim--
	in.nHints++
	return nil
}

// ApproximateHint integrates ⟨s, e_i⟩ = value + ε with ε of variance
// epsVar, by Gaussian conditioning of the (diagonal) covariance:
//
//	σ'² = σ²·σε² / (σ² + σε²),  μ' = (μ·σε² + value·σ²) / (σ² + σε²).
//
// Lattice dimension and volume are unchanged.
func (in *Instance) ApproximateHint(coord int, value, epsVar float64) error {
	if err := in.checkCoord(coord); err != nil {
		return err
	}
	if epsVar < 0 {
		return fmt.Errorf("dbdd: negative hint variance %v", epsVar)
	}
	if epsVar == 0 {
		return in.PerfectHint(coord, value)
	}
	s2 := in.Var[coord]
	in.Mu[coord] = (in.Mu[coord]*epsVar + value*s2) / (s2 + epsVar)
	in.Var[coord] = s2 * epsVar / (s2 + epsVar)
	in.nHints++
	return nil
}

func (in *Instance) checkCoord(coord int) error {
	if coord < 0 || coord >= len(in.Var) {
		return fmt.Errorf("dbdd: coordinate %d out of range [0,%d)", coord, len(in.Var))
	}
	if in.eliminated[coord] {
		return fmt.Errorf("dbdd: coordinate %d already eliminated by a perfect hint", coord)
	}
	return nil
}

// normalizedLogVol returns ln of the volume of the lattice after the
// isotropic normalization that turns the posterior ellipsoid into a unit
// ball: each remaining coordinate is scaled by 1/σ_i, multiplying the
// volume by Π 1/σ_i.
func (in *Instance) normalizedLogVol() float64 {
	lv := in.logVol
	for i, v := range in.Var {
		if in.eliminated[i] {
			continue
		}
		lv -= 0.5 * math.Log(v)
	}
	return lv
}

// logDelta returns ln δ_β, the root Hermite factor of BKZ-β. For β ≥ 40
// the standard asymptotic formula is used; below that, a linear
// interpolation between the experimental LLL value δ(2) = 1.0219 and the
// formula at 40, matching the practice of [31]'s estimator for tiny
// blocks.
func logDelta(beta float64) float64 {
	formula := func(b float64) float64 {
		return (math.Log(math.Pi*b)/b + math.Log(b) - math.Log(2*math.Pi*math.E)) / (2 * (b - 1))
	}
	const lllLogDelta = 0.021658 // ln(1.0219)
	if beta >= 40 {
		return formula(beta)
	}
	if beta <= 2 {
		return lllLogDelta
	}
	f40 := formula(40)
	t := (beta - 2) / 38
	return lllLogDelta*(1-t) + f40*t
}

// successMargin is positive when BKZ-β solves the (normalized) uSVP
// instance under the GSA: δ^{2β−d−1}·Vol^{1/d} ≥ √β (the primal attack
// condition with unit σ after normalization).
func (in *Instance) successMargin(beta float64) float64 {
	d := float64(in.dim)
	rhs := (2*beta-d-1)*logDelta(beta) + in.normalizedLogVol()/d
	lhs := 0.5 * math.Log(beta)
	return rhs - lhs
}

// EstimateBikz returns the estimated BKZ block size required to solve the
// instance, with linear interpolation to a fractional value (the paper's
// "bikz"). The minimum reported hardness is 2 (LLL).
func (in *Instance) EstimateBikz() (float64, error) {
	sp := obs.StartSpan("dbdd")
	defer sp.End()
	d := in.dim
	if d < 3 {
		return 2, nil
	}
	if in.successMargin(2) >= 0 {
		return 2, nil
	}
	maxBeta := float64(d)
	if in.successMargin(maxBeta) < 0 {
		return 0, fmt.Errorf("dbdd: instance appears harder than full enumeration (d=%d)", d)
	}
	lo, hi := 2.0, maxBeta
	for hi-lo > 1e-3 {
		mid := (lo + hi) / 2
		if in.successMargin(mid) >= 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// BikzToBits converts a block size to a bit-security level using the
// paper's 2.98×-rule (382.25 bikz ↔ 128 bits).
func BikzToBits(bikz float64) float64 { return bikz / BitsPerBikz }

// SecurityLoss summarizes an estimate before/after hints.
type SecurityLoss struct {
	BaselineBikz float64
	HintedBikz   float64
	BaselineBits float64
	HintedBits   float64
}

// CompareWithHints estimates the baseline instance and a hinted copy built
// by the provided function, returning both hardness numbers — the shape of
// Tables III and IV.
func CompareWithHints(baseline *Instance, addHints func(*Instance) error) (*SecurityLoss, error) {
	base, err := baseline.EstimateBikz()
	if err != nil {
		return nil, err
	}
	hinted := baseline.Clone()
	if err := addHints(hinted); err != nil {
		return nil, err
	}
	after, err := hinted.EstimateBikz()
	if err != nil {
		return nil, err
	}
	return &SecurityLoss{
		BaselineBikz: base,
		HintedBikz:   after,
		BaselineBits: BikzToBits(base),
		HintedBits:   BikzToBits(after),
	}, nil
}

// Clone deep-copies the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{
		Var:        append([]float64(nil), in.Var...),
		Mu:         append([]float64(nil), in.Mu...),
		eliminated: append([]bool(nil), in.eliminated...),
		dim:        in.dim,
		logVol:     in.logVol,
		nHints:     in.nHints,
	}
	return out
}
