package bfv_test

// Differential tests: BFV decryption re-derived from first principles with
// the math/big reference (schoolbook negacyclic convolution + direct CRT +
// exact rational rounding), never touching the production NTT path, plus a
// committed golden vector pinning a full seeded encryption transcript.

import (
	"math/big"
	"testing"

	"reveal/internal/bfv"
	"reveal/internal/sampler"
	"reveal/internal/testkit"
)

func smallTestParams(t *testing.T) *bfv.Parameters {
	t.Helper()
	params, err := bfv.NewParameters(64, []uint64{12289}, 16, sampler.DefaultSigma, sampler.DefaultMaxDeviation)
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// refDecrypt decrypts ct without the production ring arithmetic: the phase
// c0 + c1*s + ... is computed per modulus with the schoolbook negacyclic
// convolution, composed with the direct CRT formula, and rounded with
// big.Int rationals exactly as round(t*x/Q) mod t.
func refDecrypt(t *testing.T, params *bfv.Parameters, sk *bfv.SecretKey, ct *bfv.Ciphertext) []uint64 {
	t.Helper()
	n := params.N
	moduli := params.Moduli
	// phase[j] = sum_i ct.C[i] * s^i mod q_j, all via the reference.
	phase := make([][]uint64, len(moduli))
	for j, q := range moduli {
		acc := append([]uint64(nil), ct.C[0].Coeffs[j]...)
		sPow := append([]uint64(nil), sk.S.Coeffs[j]...)
		for i := 1; i < len(ct.C); i++ {
			prod, err := testkit.RefNegacyclicMul(ct.C[i].Coeffs[j], sPow, q)
			if err != nil {
				t.Fatal(err)
			}
			for k := range acc {
				acc[k] = testkit.RefAddMod(acc[k], prod[k], q)
			}
			if i+1 < len(ct.C) {
				sPow, err = testkit.RefNegacyclicMul(sPow, sk.S.Coeffs[j], q)
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		phase[j] = acc
	}
	bigQ := params.Q()
	bigT := new(big.Int).SetUint64(params.T)
	halfQ := new(big.Int).Rsh(bigQ, 1)
	out := make([]uint64, n)
	residues := make([]uint64, len(moduli))
	num := new(big.Int)
	for i := 0; i < n; i++ {
		for j := range moduli {
			residues[j] = phase[j][i]
		}
		x, err := testkit.RefCRTCompose(residues, moduli)
		if err != nil {
			t.Fatal(err)
		}
		num.Mul(x, bigT)
		num.Add(num, halfQ)
		num.Quo(num, bigQ)
		num.Mod(num, bigT)
		out[i] = num.Uint64()
	}
	return out
}

func TestDecryptDifferential(t *testing.T) {
	params := smallTestParams(t)
	prng := sampler.NewXoshiro256(4242)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := bfv.NewEncryptor(params, pk, prng)
	dec := bfv.NewDecryptor(params, sk)

	r := testkit.NewRNG(4243)
	for iter := 0; iter < 5; iter++ {
		pt := params.NewPlaintext()
		copy(pt.Coeffs, r.Residues(params.N, params.T))
		ct, err := enc.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		want := refDecrypt(t, params, sk, ct)
		for i := range want {
			if got.Coeffs[i] != want[i] {
				t.Fatalf("iter %d coeff %d: Decrypt %d, reference %d (plaintext %d)",
					iter, i, got.Coeffs[i], want[i], pt.Coeffs[i])
			}
			if want[i] != pt.Coeffs[i] {
				t.Fatalf("iter %d coeff %d: reference decrypt %d != plaintext %d",
					iter, i, want[i], pt.Coeffs[i])
			}
		}
	}
}

// TestDecryptDifferentialAfterAdd extends the differential check to a
// degree-1 homomorphic add and a degree-2 product (3-component phase).
func TestDecryptDifferentialAfterOps(t *testing.T) {
	params := smallTestParams(t)
	prng := sampler.NewXoshiro256(99)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := bfv.NewEncryptor(params, pk, prng)
	dec := bfv.NewDecryptor(params, sk)
	ev, err := bfv.NewEvaluator(params)
	if err != nil {
		t.Fatal(err)
	}

	pt0, pt1 := params.NewPlaintext(), params.NewPlaintext()
	pt0.Coeffs[0], pt0.Coeffs[3] = 5, 7
	pt1.Coeffs[0], pt1.Coeffs[1] = 9, 2
	ct0, err := enc.Encrypt(pt0)
	if err != nil {
		t.Fatal(err)
	}
	ct1, err := enc.Encrypt(pt1)
	if err != nil {
		t.Fatal(err)
	}

	sum := ev.Add(ct0, ct1)
	got, err := dec.Decrypt(sum)
	if err != nil {
		t.Fatal(err)
	}
	want := refDecrypt(t, params, sk, sum)
	for i := range want {
		if got.Coeffs[i] != want[i] {
			t.Fatalf("add coeff %d: Decrypt %d, reference %d", i, got.Coeffs[i], want[i])
		}
	}
	if want[0] != 14 || want[1] != 2 || want[3] != 7 {
		t.Fatalf("homomorphic add decrypted to %v", want[:4])
	}

	prod, err := ev.Mul(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Degree() != 2 {
		t.Fatalf("product degree %d, want 2", prod.Degree())
	}
	got, err = dec.Decrypt(prod)
	if err != nil {
		t.Fatal(err)
	}
	want = refDecrypt(t, params, sk, prod)
	for i := range want {
		if got.Coeffs[i] != want[i] {
			t.Fatalf("mul coeff %d: Decrypt %d, reference %d", i, got.Coeffs[i], want[i])
		}
	}
}

// TestGoldenEncrypt pins a full seeded encryption: transcript noise values,
// branch counts, and ciphertext digests. Any change to the PRNG stream, the
// clipped-normal sampler, or the vulnerable setPolyCoeffsNormal path shows
// up here as a golden diff — exactly the class of silent change the
// side-channel model depends on noticing.
func TestGoldenEncrypt(t *testing.T) {
	params := smallTestParams(t)
	prng := sampler.NewXoshiro256(0xC0FFEE)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := bfv.NewEncryptor(params, pk, prng)

	pt := params.NewPlaintext()
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(i) % params.T
	}
	ct, tr, err := enc.EncryptWithTranscript(pt)
	if err != nil {
		t.Fatal(err)
	}
	if err := bfv.SanityCheckTranscript(params, tr); err != nil {
		t.Fatal(err)
	}
	branchNames := map[sampler.Branch]string{
		sampler.BranchZero: "zero", sampler.BranchPositive: "positive", sampler.BranchNegative: "negative",
	}
	branches := map[string]int{}
	for _, b := range tr.Branch1 {
		branches[branchNames[b]]++
	}
	testkit.Golden(t, "testdata/golden_encrypt.json", map[string]any{
		"n":           params.N,
		"q":           params.Moduli,
		"t":           params.T,
		"u":           tr.U,
		"e1":          tr.E1,
		"e2":          tr.E2,
		"branches_e1": branches,
		"sk_digest":   testkit.Digest(sk.S.Coeffs),
		"c0_digest":   testkit.Digest(ct.C[0].Coeffs),
		"c1_digest":   testkit.Digest(ct.C[1].Coeffs),
	})
}
