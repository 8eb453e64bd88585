package core

import (
	"slices"
	"testing"

	"reveal/internal/bfv"
	"reveal/internal/modular"
	"reveal/internal/ring"
	"reveal/internal/sampler"
	"reveal/internal/testkit"
)

// recoverCase is one encryption whose e2 the residual search recovers.
type recoverCase struct {
	params *bfv.Parameters
	pk     *bfv.PublicKey
	ct     *bfv.Ciphertext
	pt     *bfv.Plaintext
	e2     []int64 // the true e2
}

func newRecoverCase(tb testing.TB, params *bfv.Parameters, seed uint64) *recoverCase {
	tb.Helper()
	prng := sampler.NewXoshiro256(seed)
	kg := bfv.NewKeyGenerator(params, prng)
	pk := kg.GenPublicKey(kg.GenSecretKey())
	pt := params.NewPlaintext()
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(i*5+int(seed)) % params.T
	}
	ct, tr, err := bfv.NewEncryptor(params, pk, prng).EncryptWithTranscript(pt)
	if err != nil {
		tb.Fatal(err)
	}
	return &recoverCase{params: params, pk: pk, ct: ct, pt: pt, e2: tr.E2}
}

// twoModulusParams is the paper's degree over a chain of two 27-bit primes.
func twoModulusParams(tb testing.TB) *bfv.Parameters {
	tb.Helper()
	primes, err := modular.GeneratePrimes(27, 2048, 2)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := bfv.NewParameters(1024, primes, 256, sampler.DefaultSigma, sampler.DefaultMaxDeviation)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// applySubs returns base with subs applied.
func applySubs(base []int64, subs []subst) []int64 {
	e2 := slices.Clone(base)
	for _, sb := range subs {
		e2[sb.idx] = sb.val
	}
	return e2
}

// checkShifted compares the incremental u of base+subs with Eq. 2 computed
// directly, by the reference and by RecoverU, and returns the verdict.
func checkShifted(tb testing.TB, c *recoverCase, base []int64, subs []subst) bool {
	tb.Helper()
	o, err := newE2Oracle(c.params, c.pk, c.ct)
	if err != nil {
		tb.Fatal(err)
	}
	u0, err := o.u(base)
	if err != nil {
		tb.Fatal(err)
	}
	s := &shifted{o: o, u0: u0}
	s.set(base, subs)
	e2 := applySubs(base, subs)
	ref, refTernary, err := testkit.RefRecoverU(c.params, c.pk, c.ct, e2)
	if err != nil {
		tb.Fatal(err)
	}
	direct, ternary, err := RecoverU(c.params, c.pk, c.ct, e2)
	if err != nil {
		tb.Fatal(err)
	}
	if got := s.poly(); !polyEqual(got, ref) || !polyEqual(direct, ref) {
		tb.Fatalf("subs %v: u differs from the direct computation", subs)
	}
	if got := s.ternary(); got != refTernary || ternary != refTernary {
		tb.Fatalf("subs %v: incremental verdict %v, RecoverU %v, reference %v", subs, got, ternary, refTernary)
	}
	return refTernary
}

func polyEqual(a, b *ring.Poly) bool {
	if a.InNTT != b.InNTT || len(a.Coeffs) != len(b.Coeffs) {
		return false
	}
	for j := range a.Coeffs {
		if !slices.Equal(a.Coeffs[j], b.Coeffs[j]) {
			return false
		}
	}
	return true
}

// randomSubs picks k distinct coefficients of base and moves each by a
// random non-zero δ in [−20, 20].
func randomSubs(rng *testkit.RNG, base []int64, k int) []subst {
	var subs []subst
	for len(subs) < k {
		i := int(rng.Uint64Below(uint64(len(base))))
		if slices.ContainsFunc(subs, func(sb subst) bool { return sb.idx == i }) {
			continue
		}
		d := int64(rng.Uint64Below(40)) - 20
		if d >= 0 {
			d++
		}
		subs = append(subs, subst{i, base[i] + d})
	}
	return subs
}

// The incremental check must give the same u, bit for bit, and the same
// verdict as Eq. 2 computed directly, on random substitutions (almost all
// rejected) and on substitutions that undo planted errors (all accepted).
func TestShiftedMatchesDirectRecoverU(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params *bfv.Parameters
	}{
		{"paper", bfv.PaperParameters()},
		{"two-moduli", twoModulusParams(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newRecoverCase(t, tc.params, 31)
			rng := testkit.NewRNG(32)
			accepted := 0
			for round := 0; round < 24; round++ {
				k := 1 + round%3
				if round%2 == 0 {
					checkShifted(t, c, c.e2, randomSubs(rng, c.e2, k))
					continue
				}
				// Plant k errors, then substitute the true values back.
				planted := randomSubs(rng, c.e2, k)
				base := applySubs(c.e2, planted)
				var repair []subst
				for _, sb := range planted {
					repair = append(repair, subst{sb.idx, c.e2[sb.idx]})
				}
				if !checkShifted(t, c, base, repair) {
					t.Fatalf("repairing %v was rejected", planted)
				}
				accepted++
			}
			if accepted == 0 {
				t.Fatal("no accepted candidate was checked")
			}
		})
	}
}

// plantedResult is an attack result that is right except at the planted
// coefficients: their maximum-likelihood value is wrong, and the true one
// is an alternative of the given rank (0 = most likely alternative), or
// has posterior 0 when rank ≥ 4. Every other coefficient puts its mass on
// two alternatives; its other alternatives have posterior 0.
func plantedResult(truth []int64, planted map[int]int) *AttackResult {
	values := make([]int, len(truth))
	tables := make([]map[int]float64, len(truth))
	for i, t := range truth {
		v := int(t)
		values[i] = v
		tables[i] = map[int]float64{v: 0.9, v + 1: 0.06, v - 1: 0.04}
	}
	for idx, rank := range planted {
		truth := int(truth[idx])
		wrong := truth + 1
		probs := map[int]float64{wrong: 0.4}
		p := 0.3
		for r := 0; r < 6; r++ {
			label := truth + 2 + r
			if r == rank {
				label = truth
			}
			probs[label] = p
			p /= 2
		}
		if rank >= 4 {
			delete(probs, truth)
		}
		values[idx] = wrong
		tables[idx] = probs
	}
	return denseResult(values, tables)
}

// assertSameAsReference runs the search and the per-trial reference on one
// result and requires the same plaintext, e2, trial count and verdict.
func assertSameAsReference(t *testing.T, c *recoverCase, res *AttackResult, maxDepth, maxTrials int) (int, error) {
	t.Helper()
	pt, e2, trials, err := RepairAndRecover(c.params, c.pk, c.ct, res, maxDepth, maxTrials)
	refU, refE2, refTrials, refErr := testkit.RefRepairAndRecover(c.params, c.pk, c.ct, res.Values, rowMaps(res.Labels, res.Probs), maxDepth, maxTrials)
	if trials != refTrials || (err == nil) != (refErr == nil) || !slices.Equal(e2, refE2) {
		t.Fatalf("search: %d trials, err %v; reference: %d trials, err %v (e2 equal: %v)",
			trials, err, refTrials, refErr, slices.Equal(e2, refE2))
	}
	if err != nil {
		if pt != nil {
			t.Fatal("a failed search returned a plaintext")
		}
		return trials, err
	}
	refPt, err := RecoverMessage(c.params, c.pk, c.ct, refU)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pt.Coeffs, refPt.Coeffs) {
		t.Fatal("recovered plaintext differs from the reference")
	}
	if !slices.Equal(pt.Coeffs, c.pt.Coeffs) || !slices.Equal(e2, c.e2) {
		t.Fatal("accepted candidate is not the encryption's e2")
	}
	return trials, nil
}

// The incremental search must return exactly what the per-trial search
// returned: the same candidates in the same order, so the same plaintext,
// repaired e2, trial count and verdict.
func TestRepairAndRecoverMatchesReference(t *testing.T) {
	small := newRecoverCase(t, smallParams(t), 41)
	for _, tc := range []struct {
		name      string
		c         *recoverCase
		ranks     []int
		maxTrials int
		exhausted bool
	}{
		{"exact", small, nil, 100, false},
		{"single", small, []int{2}, 1000, false},
		{"pair", small, []int{1, 3}, 5000, false},
		{"triple", small, []int{0, 2, 1}, 20000, false},
		{"budget", small, []int{1, 3}, 150, true},
		{"unreachable", small, []int{0, 5}, 5000, true},
		{"paper-pair", newRecoverCase(t, bfv.PaperParameters(), 42), []int{3, 0}, 12000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Planted coefficients are the least confident, so pairs and
			// triples of them fall in the search window.
			planted := map[int]int{}
			for i, rank := range tc.ranks {
				planted[7+13*i] = rank
			}
			trials, err := assertSameAsReference(t, tc.c, plantedResult(tc.c.e2, planted), 16, tc.maxTrials)
			t.Logf("%d trials, err %v", trials, err)
			if (err != nil) != tc.exhausted {
				t.Fatalf("after %d trials: err %v, want exhausted %v", trials, err, tc.exhausted)
			}
			if tc.exhausted && trials < tc.maxTrials {
				t.Fatalf("exhausted after %d trials, budget %d", trials, tc.maxTrials)
			}
		})
	}
}

// A malformed attack result or a non-invertible p1 fails before the first
// trial instead of failing every trial until the budget runs out.
func TestRepairAndRecoverSetupErrors(t *testing.T) {
	c := newRecoverCase(t, smallParams(t), 51)
	good := plantedResult(c.e2, nil)
	zeroP1 := *c.pk
	zeroP1.P1 = c.params.Context().NewPoly()
	for _, tc := range []struct {
		name string
		pk   *bfv.PublicKey
		res  *AttackResult
	}{
		{"short values", c.pk, &AttackResult{Values: good.Values[1:], Probs: good.Probs[1:]}},
		{"short probs", c.pk, &AttackResult{Values: good.Values, Probs: good.Probs[1:]}},
		{"no probs", c.pk, &AttackResult{Values: good.Values}},
		{"singular p1", &zeroP1, good},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pt, e2, trials, err := RepairAndRecover(c.params, tc.pk, c.ct, tc.res, 16, 2000)
			if err == nil || pt != nil || e2 != nil || trials != 0 {
				t.Fatalf("got pt %v, e2 %v, %d trials, err %v; want a setup error after 0 trials", pt != nil, e2 != nil, trials, err)
			}
		})
	}
	if _, _, err := RecoverU(c.params, &zeroP1, c.ct, c.e2); err == nil {
		t.Error("RecoverU accepted a non-invertible p1")
	}
}

// Alternatives of equal posterior are tried in ascending label order. Here
// every alternative of the planted coefficient ties at posterior 0, so the
// four lowest labels are tried; the planted coefficient holds the smallest
// e2 value, whose truth is the second-lowest label, so the search repairs
// it, at the same trial on every run and as the reference does.
func TestRepairAndRecoverIgnoresMapOrder(t *testing.T) {
	c := newRecoverCase(t, smallParams(t), 61)
	idx := 0
	for i, v := range c.e2 {
		if v < c.e2[idx] {
			idx = i
		}
	}
	truth := int(c.e2[idx])
	res := plantedResult(c.e2, nil)
	res.Values[idx] = truth + 1
	row := res.Probs[idx]
	clear(row)
	row[slices.Index(res.Labels, truth+1)] = 1
	if got, want := topAlternatives(res.Labels, row, truth+1, 4), []int64{int64(truth - 1), int64(truth), int64(truth + 2), int64(truth + 3)}; !slices.Equal(got, want) {
		t.Fatalf("alternatives %v, want %v", got, want)
	}
	wantTrials, err := assertSameAsReference(t, c, res, 16, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 20; run++ {
		_, _, trials, err := RepairAndRecover(c.params, c.pk, c.ct, res, 16, 1000)
		if err != nil || trials != wantTrials {
			t.Fatalf("run %d: %d trials, err %v; first run: %d trials", run, trials, err, wantTrials)
		}
	}
}

// FuzzE2Oracle checks the incremental u of a random base e2 with up to
// three substitutions against Eq. 2 computed directly. When the fuzzer
// sets repair, the base carries the substitutions' inverse as planted
// errors, so the candidate is the true e2 and must verify.
func FuzzE2Oracle(f *testing.F) {
	cases := [2]*recoverCase{
		newRecoverCase(f, paramsOver(f, 12289), 71),
		newRecoverCase(f, paramsOver(f, 12289, 40961), 72),
	}
	f.Add(uint64(1), false, false, uint16(0), uint16(5), uint16(63), int8(1), int8(-1), int8(3), uint8(3))
	f.Add(uint64(2), true, true, uint16(7), uint16(7), uint16(40), int8(-41), int8(41), int8(0), uint8(2))
	f.Add(uint64(3), true, false, uint16(63), uint16(0), uint16(1), int8(127), int8(-128), int8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, twoModuli, repair bool, i0, i1, i2 uint16, d0, d1, d2 int8, k uint8) {
		c := cases[0]
		if twoModuli {
			c = cases[1]
		}
		n := len(c.e2)
		rng := testkit.NewRNG(seed)
		base := make([]int64, n)
		for i := range base {
			base[i] = int64(rng.Uint64Below(83)) - 41
		}
		var subs []subst
		idx, delta := [3]uint16{i0, i1, i2}, [3]int8{d0, d1, d2}
		for s := 0; s < 1+int(k%3); s++ {
			i := int(idx[s]) % n
			if slices.ContainsFunc(subs, func(sb subst) bool { return sb.idx == i }) {
				continue
			}
			subs = append(subs, subst{i, base[i] + int64(delta[s])})
		}
		if repair {
			base = slices.Clone(c.e2)
			for s, sb := range subs {
				subs[s].val = base[sb.idx]
				base[sb.idx] -= int64(delta[s])
			}
		}
		if got := checkShifted(t, c, base, subs); repair && !got {
			t.Fatalf("the true e2 was rejected (subs %v)", subs)
		}
	})
}

// paramsOver is n=64, t=16 over the given NTT-friendly primes.
func paramsOver(tb testing.TB, moduli ...uint64) *bfv.Parameters {
	tb.Helper()
	p, err := bfv.NewParameters(64, moduli, 16, sampler.DefaultSigma, sampler.DefaultMaxDeviation)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkRepairAndRecover times the residual search at paper parameters:
// a search that exhausts a 2000-trial budget (four planted errors are out
// of reach of three substitutions) and one whose first trial succeeds.
func BenchmarkRepairAndRecover(b *testing.B) {
	c := newRecoverCase(b, bfv.PaperParameters(), 81)
	for _, bc := range []struct {
		name    string
		planted map[int]int
	}{
		{"exhausted-2000", map[int]int{3: 0, 100: 1, 500: 2, 900: 0}},
		{"first-trial", nil},
	} {
		res := plantedResult(c.e2, bc.planted)
		b.Run(bc.name, func(b *testing.B) {
			trials := 0
			for i := 0; i < b.N; i++ {
				_, _, t, err := RepairAndRecover(c.params, c.pk, c.ct, res, 16, 2000)
				if (err == nil) != (bc.planted == nil) {
					b.Fatalf("after %d trials: %v", t, err)
				}
				trials += t
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(trials), "ns/trial")
		})
	}
}
