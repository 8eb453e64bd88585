package bfv

import (
	"math/big"
	"math/rand"
	"testing"

	"reveal/internal/sampler"
)

// freshNoiseBound is the worst-case ‖v‖∞ of a fresh encryption,
// v = −e_pk·u + e1 + e2·s with u, s ternary and every error at most
// B = MaxDeviation+1 in magnitude: B·(1 + 2n), plus the Δ-rounding slack t.
func freshNoiseBound(params *Parameters) *big.Int {
	b := big.NewInt(int64(2*params.N + 1))
	b.Mul(b, big.NewInt(int64(params.MaxDeviation)+1))
	return b.Add(b, new(big.Int).SetUint64(params.T))
}

// checkNoise fails t when the measured noise of ct exceeds bound.
func checkNoise(t *testing.T, dec *Decryptor, ct *Ciphertext, bound *big.Int) {
	t.Helper()
	measured, err := dec.MeasureNoise(ct)
	if err != nil {
		t.Fatal(err)
	}
	if measured.Cmp(bound) > 0 {
		t.Fatalf("measured noise %v exceeds analytic bound %v", measured, bound)
	}
}

func noiseSetup(t *testing.T, seed uint64) (*Parameters, *Encryptor, *Decryptor, *Evaluator) {
	t.Helper()
	params := PaperParameters()
	prng := sampler.NewXoshiro256(seed)
	kg := NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := NewEncryptor(params, pk, prng)
	dec := NewDecryptor(params, sk)
	ev, err := NewEvaluator(params)
	if err != nil {
		t.Fatal(err)
	}
	return params, enc, dec, ev
}

func TestFreshNoiseWithinBound(t *testing.T) {
	params, enc, dec, _ := noiseSetup(t, 800)
	bound := freshNoiseBound(params)
	half := new(big.Int).Rsh(params.Delta(), 1)
	if bound.Cmp(half) >= 0 {
		t.Fatal("fresh ciphertexts must decrypt at paper parameters")
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		pt := params.NewPlaintext()
		for i := range pt.Coeffs {
			pt.Coeffs[i] = uint64(rng.Intn(int(params.T)))
		}
		ct, err := enc.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		checkNoise(t, dec, ct, bound)
	}
}

func TestAddNoiseWithinBound(t *testing.T) {
	params, enc, dec, ev := noiseSetup(t, 801)
	pa := params.NewPlaintext()
	pa.Coeffs[0] = 3
	ca, _ := enc.Encrypt(pa)
	cb, _ := enc.Encrypt(pa)
	// Each addition adds the operands' bounds plus the rounding slack t.
	slack := new(big.Int).SetUint64(params.T)
	add := func(a, b *big.Int) *big.Int {
		s := new(big.Int).Add(a, b)
		return s.Add(s, slack)
	}
	fresh := freshNoiseBound(params)
	bound := add(fresh, fresh)
	checkNoise(t, dec, ev.Add(ca, cb), bound)
	// One addition is guaranteed by the worst-case analysis at these tiny
	// parameters (Δ/2 ≈ 2.6e5, fresh bound ≈ 8.6e4).
	half := new(big.Int).Rsh(params.Delta(), 1)
	if bound.Cmp(half) >= 0 {
		t.Error("one addition must be guaranteed decryptable")
	}
	// Repeated additions: the bound keeps tracking the measured noise, and
	// — being worst-case — gives up long before actual decryption fails.
	acc := ca
	accBound := fresh
	for i := 0; i < 32; i++ {
		acc = ev.Add(acc, cb)
		accBound = add(accBound, fresh)
	}
	checkNoise(t, dec, acc, accBound)
	// Reality: decryption still works (average-case noise ≪ worst case).
	got, err := dec.Decrypt(acc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Coeffs[0] != (3*33)%params.T {
		t.Errorf("decryption failed after 32 additions: %d", got.Coeffs[0])
	}
}

// TestBudgetBitsConsistentWithDecryptor: NoiseBudget must equal
// log2(Δ/(2·‖v‖∞)) of the measured noise, and the analytic fresh bound must
// not promise more budget than the measured one.
func TestBudgetBitsConsistentWithDecryptor(t *testing.T) {
	params, enc, dec, _ := noiseSetup(t, 803)
	pt := params.NewPlaintext()
	ct, _ := enc.Encrypt(pt)
	measuredBudget, err := dec.NoiseBudget(ct)
	if err != nil {
		t.Fatal(err)
	}
	noise, err := dec.MeasureNoise(ct)
	if err != nil {
		t.Fatal(err)
	}
	deltaBits := params.Delta().BitLen()
	if want := float64(deltaBits-noise.BitLen()) - 1; measuredBudget != want {
		t.Errorf("NoiseBudget %.1f, want %.1f from MeasureNoise", measuredBudget, want)
	}
	boundBudget := float64(deltaBits-freshNoiseBound(params).BitLen()) - 1
	if boundBudget > measuredBudget+1 {
		t.Errorf("analytic budget %.1f exceeds measured %.1f", boundBudget, measuredBudget)
	}
	if measuredBudget <= 0 {
		t.Error("fresh budget should be positive")
	}
}

func TestMeasureNoiseMatchesBudget(t *testing.T) {
	params, enc, dec, _ := noiseSetup(t, 804)
	pt := params.NewPlaintext()
	ct, _ := enc.Encrypt(pt)
	norm, err := dec.MeasureNoise(ct)
	if err != nil {
		t.Fatal(err)
	}
	if norm.Sign() <= 0 {
		t.Error("fresh ciphertext noise should be nonzero")
	}
	delta := params.Delta()
	delta.Rsh(delta, 1)
	if norm.Cmp(delta) >= 0 {
		t.Error("fresh noise exceeds Δ/2 — decryption would fail")
	}
}
