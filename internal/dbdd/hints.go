package dbdd

import (
	"fmt"
	"math"
)

// CoefficientHint is the "centered / variance" summary of a per-coefficient
// probability table (the last two columns of Table II): the posterior mean
// and variance of the coefficient given the side-channel measurement.
type CoefficientHint struct {
	Mean     float64
	Variance float64
}

// HintFromProbabilities condenses a probability table (p[i] is the
// probability of labels[i]) into a CoefficientHint, exactly as [31]
// consumes the attack's per-measurement score tables, summing in label
// order so that equal tables give bit-identical hints.
func HintFromProbabilities(labels []int, p []float64) CoefficientHint {
	var mean, total float64
	for i, v := range labels {
		mean += float64(v) * p[i]
		total += p[i]
	}
	if total > 0 {
		mean /= total
	}
	var variance float64
	for i, v := range labels {
		d := float64(v) - mean
		variance += p[i] * d * d
	}
	if total > 0 {
		variance /= total
	}
	return CoefficientHint{Mean: mean, Variance: variance}
}

// PerfectThreshold is the variance below which a hint is treated as
// perfect. The paper notes that many posteriors round to probability ≈ 1
// within floating-point precision; those become perfect hints.
const PerfectThreshold = 1e-9

// IntegrateCoefficientHint adds the hint for the given coordinate,
// choosing perfect vs approximate by the posterior variance.
func (in *Instance) IntegrateCoefficientHint(coord int, h CoefficientHint) error {
	if h.Variance < 0 || math.IsNaN(h.Variance) {
		return fmt.Errorf("dbdd: invalid hint variance %v", h.Variance)
	}
	if h.Variance <= PerfectThreshold {
		return in.PerfectHint(coord, h.Mean)
	}
	return in.ApproximateHint(coord, h.Mean, h.Variance)
}

// SignHint integrates only the sign information of a Gaussian coordinate
// (the branch-only adversary of Table IV):
//
//   - sign 0: the coefficient is exactly zero — a perfect hint;
//   - sign ±1: the prior N(0, σ²) conditioned on the half-line has mean
//     ±σ·√(2/π) and variance σ²·(1 − 2/π), integrated as an approximate
//     hint via covariance replacement.
func (in *Instance) SignHint(coord int, sign int) error {
	switch sign {
	case 0:
		return in.PerfectHint(coord, 0)
	case 1, -1:
		if err := in.checkCoord(coord); err != nil {
			return err
		}
		sigma := math.Sqrt(in.Var[coord])
		in.Mu[coord] = float64(sign) * sigma * math.Sqrt(2/math.Pi)
		in.Var[coord] = in.Var[coord] * (1 - 2/math.Pi)
		in.nHints++
		return nil
	default:
		return fmt.Errorf("dbdd: sign must be -1, 0, or 1, got %d", sign)
	}
}

// GuessResult describes converting the most-confident remaining
// approximate hint into a perfect hint (the "hints & guesses" row of
// Table IV).
type GuessResult struct {
	Coord       int
	Value       float64
	SuccessProb float64
}

// GuessBestCoordinateIn finds the non-eliminated coordinate in [lo, hi)
// with the smallest posterior variance, integrates its rounded mean as a
// perfect hint, and reports the success probability of that guess under
// the Gaussian posterior (probability that the true value rounds to the
// guessed integer). The paper guesses among the measured (error)
// coordinates, not the ternary secret.
func (in *Instance) GuessBestCoordinateIn(lo, hi int) (*GuessResult, error) {
	if lo < 0 || hi > len(in.Var) || lo >= hi {
		return nil, fmt.Errorf("dbdd: guess range [%d,%d) invalid", lo, hi)
	}
	best := -1
	for i := lo; i < hi; i++ {
		if in.eliminated[i] {
			continue
		}
		if best < 0 || in.Var[i] < in.Var[best] {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("dbdd: no coordinates left to guess")
	}
	guess := math.Round(in.Mu[best])
	sigma := math.Sqrt(in.Var[best])
	var prob float64
	if sigma == 0 {
		prob = 1
	} else {
		// P(guess-0.5 < X < guess+0.5) under N(mu, sigma²).
		lo := (guess - 0.5 - in.Mu[best]) / (sigma * math.Sqrt2)
		hi := (guess + 0.5 - in.Mu[best]) / (sigma * math.Sqrt2)
		prob = 0.5 * (math.Erf(hi) - math.Erf(lo))
	}
	if err := in.PerfectHint(best, guess); err != nil {
		return nil, err
	}
	return &GuessResult{Coord: best, Value: guess, SuccessProb: prob}, nil
}
