package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"reveal/internal/bfv"
	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// traceDigest is the SHA-256 over the little-endian math.Float64bits of
// every sample of every trace, each trace prefixed by its length.
func traceDigest(trs ...trace.Trace) string {
	h := sha256.New()
	var b [8]byte
	for _, tr := range trs {
		binary.LittleEndian.PutUint64(b[:], uint64(len(tr)))
		h.Write(b[:])
		for _, v := range tr {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCaptureGolden pins the exact bits of the traces each capture path
// renders, so an optimisation of the ISS or the power synthesizer that
// moves a single sample (a reordered sum, a skipped noise draw, a lost
// jitter prefix) fails here by name. Each device captures twice, so the
// per-run noise counter is pinned too.
func TestCaptureGolden(t *testing.T) {
	const n = 1025
	cn := sampler.DefaultClippedNormal()
	values, metas := cn.SamplePoly(sampler.NewXoshiro256(91), n)
	assemble := func(gen func(int, uint64) (string, error)) []byte {
		src, err := gen(n, bfv.PaperQ)
		if err != nil {
			t.Fatal(err)
		}
		fw, err := AssembleFirmware(src)
		if err != nil {
			t.Fatal(err)
		}
		return fw
	}
	paper, branchless := assemble(FirmwareSource), assemble(FirmwareBranchless)
	twice := func(dev *Device, fw []byte) string {
		t.Helper()
		var trs []trace.Trace
		for i := 0; i < 2; i++ {
			tr, err := dev.Capture(fw, values, metas)
			if err != nil {
				t.Fatal(err)
			}
			trs = append(trs, tr)
		}
		return traceDigest(trs...)
	}
	jittery := NewDevice(94)
	jittery.TriggerJitter = 40

	cases := []struct {
		name string
		got  func() string
		want string
	}{
		{"paper/default", func() string { return twice(NewDevice(92), paper) }, "c9256fc6373b76d05d2008867f8256b2f8bcc475514c85d61249d88366b9825b"},
		{"paper/lownoise", func() string { return twice(NewLowNoiseDevice(93), paper) }, "a994791297acc07f6cea80c2f1a56088b366a59ff03c70de6bbad6858ffbe120"},
		{"paper/jitter40", func() string { return twice(jittery, paper) }, "2a08d5a2bf8bc3df9c0abda2ec3bf2ec9ae303b6a32edbbe95cc3114615d039a"},
		{"branchless/default", func() string { return twice(NewDevice(95), branchless) }, "ffec70d52eadd13bc8873116ab548e5da55e3f9905210ba2a8fb505ee86f8a3c"},
		{"masked/default", func() string {
			dev := NewDevice(96)
			var trs []trace.Trace
			for i := 0; i < 2; i++ {
				tr, err := CaptureMasked(dev, n, bfv.PaperQ, values, metas, 97)
				if err != nil {
					t.Fatal(err)
				}
				trs = append(trs, tr)
			}
			return traceDigest(trs...)
		}, "70a47a97c6f2f791a2e381aa3042f6065ba46a6f9dfc195301dd958e26be9a0f"},
		{"decryption/setup", func() string {
			src, err := DecryptionFirmware(n)
			if err != nil {
				t.Fatal(err)
			}
			fw, err := AssembleFirmware(src)
			if err != nil {
				t.Fatal(err)
			}
			sk, c1 := make([]uint32, n), make([]uint32, n)
			prng := sampler.NewXoshiro256(99)
			for i := range sk {
				sk[i] = []uint32{0, 1, uint32(bfv.PaperQ - 1)}[sampler.Uint64Below(prng, 3)]
				c1[i] = uint32(sampler.Uint64Below(prng, bfv.PaperQ))
			}
			tr, err := CaptureDecryption(NewDevice(99), fw, sk, c1)
			if err != nil {
				t.Fatal(err)
			}
			return traceDigest(tr)
		}, "46d25013b02d0920a81cc45827f0f378806c59e682a42db83fc7301723f9099c"},
		{"stored-poly", func() string {
			words, err := NewDevice(98).StoredPoly(paper, values, metas)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := binary.Write(h, binary.LittleEndian, words); err != nil {
				t.Fatal(err)
			}
			return hex.EncodeToString(h.Sum(nil))
		}, "075e47f0051ec842c4debca9f193cdecbabc906d2d74368908c3541d54bc010b"},
	}
	for _, c := range cases {
		if got := c.got(); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
