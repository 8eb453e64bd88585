package bfv_test

// Ladder tests: every SEAL-default parameter set (ring.LadderDegrees) must
// decrypt what it encrypts, and a seeded encryption at each degree must
// reproduce the pinned c0/c1 digests in testdata/golden_ladder_ct.json.

import (
	"fmt"
	"testing"

	"reveal/internal/bfv"
	"reveal/internal/ring"
	"reveal/internal/sampler"
	"reveal/internal/testkit"
)

func ladderSetup(t *testing.T, n int, seed uint64) (*bfv.Parameters, *bfv.Encryptor, *bfv.Decryptor) {
	t.Helper()
	rp, err := ring.LadderParams(n)
	if err != nil {
		t.Fatal(err)
	}
	params, err := bfv.NewParameters(n, rp.Moduli, 256, sampler.DefaultSigma, sampler.DefaultMaxDeviation)
	if err != nil {
		t.Fatalf("NewParameters(n=%d): %v", n, err)
	}
	prng := sampler.NewXoshiro256(seed)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	return params, bfv.NewEncryptor(params, pk, prng), bfv.NewDecryptor(params, sk)
}

func TestEncryptDecryptLadderMatrix(t *testing.T) {
	for _, n := range ring.LadderDegrees() {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			params, enc, dec := ladderSetup(t, n, 0xC0FFEE+uint64(n))
			pt := params.NewPlaintext()
			for i := range pt.Coeffs {
				pt.Coeffs[i] = uint64(i*31+7) % params.T
			}
			ct, err := enc.Encrypt(pt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pt.Coeffs {
				if got.Coeffs[i] != pt.Coeffs[i] {
					t.Fatalf("coeff %d decrypted to %d want %d", i, got.Coeffs[i], pt.Coeffs[i])
				}
			}
		})
	}
}

// ladderCiphertext is one pinned row of golden_ladder_ct.json.
type ladderCiphertext struct {
	N        int      `json:"n"`
	Moduli   []uint64 `json:"moduli"`
	Seed     uint64   `json:"seed"`
	C0Digest string   `json:"c0_digest"`
	C1Digest string   `json:"c1_digest"`
}

// TestGoldenLadderCiphertexts encrypts the plaintext i mod t under a seeded
// key pair at every ladder degree and compares the ciphertext digests with
// the committed golden, so a ring or sampler change that moves any residue
// of any ladder ciphertext fails here.
func TestGoldenLadderCiphertexts(t *testing.T) {
	var rows []ladderCiphertext
	for _, n := range ring.LadderDegrees() {
		seed := 0xBEEF + uint64(n)
		params, enc, _ := ladderSetup(t, n, seed)
		pt := params.NewPlaintext()
		for i := range pt.Coeffs {
			pt.Coeffs[i] = uint64(i) % params.T
		}
		ct, err := enc.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, ladderCiphertext{
			N:        n,
			Moduli:   params.Moduli,
			Seed:     seed,
			C0Digest: testkit.Digest(ct.C[0].Coeffs),
			C1Digest: testkit.Digest(ct.C[1].Coeffs),
		})
	}
	testkit.Golden(t, "testdata/golden_ladder_ct.json", rows)
}
