package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"reveal/internal/bfv"
	"reveal/internal/sampler"
	"reveal/internal/sca"
	"reveal/internal/testkit"
	"reveal/internal/trace"
)

// smallParams is a fast single-modulus configuration for pipeline tests:
// n=64, q=12289 (prime, ≡ 1 mod 128), t=16 so Δ = 768 ≫ 2·41.
func smallParams(t *testing.T) *bfv.Parameters {
	t.Helper()
	p, err := bfv.NewParameters(64, []uint64{12289}, 16,
		sampler.DefaultSigma, sampler.DefaultMaxDeviation)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// smallProfile trains a classifier against q=12289 at reduced scale.
func smallProfile(t *testing.T, dev *Device) *CoefficientClassifier {
	t.Helper()
	return smallProfileAt(t, dev, 24, 1)
}

// smallProfileAt is smallProfile with pois POIs at least minSpacing apart.
func smallProfileAt(t *testing.T, dev *Device, pois, minSpacing int) *CoefficientClassifier {
	t.Helper()
	opts := DefaultProfileOptions()
	opts.Q = 12289
	opts.TracesPerValue = 60
	opts.Templates.POICount = pois
	opts.Templates.MinSpacing = minSpacing
	cls, err := Profile(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

func TestFirmwareSourceValidation(t *testing.T) {
	if _, err := FirmwareSource(0, 12289); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := FirmwareSource(4, 0); err == nil {
		t.Error("q=0 should fail")
	}
	if _, err := FirmwareSource(4, 1<<32); err == nil {
		t.Error("oversized q should fail")
	}
	if _, err := FirmwareBranchless(0, 12289); err == nil {
		t.Error("branchless n=0 should fail")
	}
	if _, err := FirmwareBranchless(4, 1<<32); err == nil {
		t.Error("branchless oversized q should fail")
	}
	if _, err := AssembleFirmware("bogus instr"); err == nil {
		t.Error("bad assembly should fail")
	}
}

// The firmware must implement exactly the AssignSigned semantics of the Go
// sampler (cross-module consistency: Fig. 2 in two languages).
func TestFirmwareMatchesAssignSigned(t *testing.T) {
	const q = 12289
	values := []int64{0, 1, -1, 5, -5, 41, -41, 14, -14}
	src, err := FirmwareSource(len(values), q)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := AssembleFirmware(src)
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(1)
	metas := make([]sampler.SampleMeta, len(values))
	stored, err := dev.StoredPoly(fw, values, metas)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		want, _ := sampler.AssignSigned(v, []uint64{q})
		if uint64(stored[i]) != want[0] {
			t.Errorf("coeff %d (value %d): stored %d want %d", i, v, stored[i], want[0])
		}
	}
}

func TestBranchlessFirmwareMatchesToo(t *testing.T) {
	const q = 12289
	values := []int64{0, 3, -3, 41, -41}
	src, err := FirmwareBranchless(len(values), q)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := AssembleFirmware(src)
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(2)
	metas := make([]sampler.SampleMeta, len(values))
	stored, err := dev.StoredPoly(fw, values, metas)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		want, _ := sampler.AssignSigned(v, []uint64{q})
		if uint64(stored[i]) != want[0] {
			t.Errorf("coeff %d (value %d): stored %d want %d", i, v, stored[i], want[0])
		}
	}
}

func TestCaptureValidation(t *testing.T) {
	dev := NewDevice(3)
	src, _ := FirmwareSource(2, 12289)
	fw, _ := AssembleFirmware(src)
	if _, err := dev.Capture(fw, []int64{1, 2}, make([]sampler.SampleMeta, 1)); err == nil {
		t.Error("values/metas mismatch should fail")
	}
	// Too few queued values: firmware reads zeros past the queue, but the
	// consumed-count check must flag it... with 2 queued for 2 coeffs it
	// passes; with 3 coefficients in firmware and 2 queued it fails.
	src3, _ := FirmwareSource(3, 12289)
	fw3, _ := AssembleFirmware(src3)
	if _, err := dev.Capture(fw3, []int64{1, 2}, make([]sampler.SampleMeta, 2)); err == nil {
		t.Error("under-provisioned port should fail")
	}
}

func TestSegmentCaptureCounts(t *testing.T) {
	dev := NewDevice(4)
	const n = 12
	src, _ := FirmwareSource(n, 12289)
	fw, _ := AssembleFirmware(src)
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i%7 - 3)
	}
	cn := sampler.DefaultClippedNormal()
	metas := SyntheticMetas(sampler.NewXoshiro256(5), cn, n)
	tr, segs, err := dev.SegmentCapture(fw, values, metas)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != n {
		t.Fatalf("segments=%d want %d", len(segs), n)
	}
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	// Segments tile the trace from the first peak.
	for k := 1; k < len(segs); k++ {
		if segs[k].Start != segs[k-1].End {
			t.Error("segments must tile")
		}
	}
}

func TestProfileValidation(t *testing.T) {
	dev := NewDevice(6)
	bad := DefaultProfileOptions()
	bad.MaxAbsValue = 0
	if _, err := Profile(dev, bad); err == nil {
		t.Error("MaxAbsValue 0 should fail")
	}
	bad = DefaultProfileOptions()
	bad.TracesPerValue = 1
	if _, err := Profile(dev, bad); err == nil {
		t.Error("too few traces should fail")
	}
	bad = DefaultProfileOptions()
	bad.CoeffsPerRun = 2
	if _, err := Profile(dev, bad); err == nil {
		t.Error("too few coefficients per run should fail")
	}
}

// The paper's core claims, at test scale: sign recovery 100%, zero
// recovery 100%, negatives better than positives.
func TestAttackAccuracyStructure(t *testing.T) {
	dev := NewDevice(7)
	cls := smallProfile(t, dev)
	params := smallParams(t)

	prng := sampler.NewXoshiro256(100)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	_ = sk
	enc := bfv.NewEncryptor(params, pk, prng)

	conf := sca.NewConfusion()
	signOK, signTotal := 0, 0
	for run := 0; run < 8; run++ {
		pt := params.NewPlaintext()
		cap, err := CaptureEncryption(dev, params, enc, pt)
		if err != nil {
			t.Fatal(err)
		}
		out, err := cls.Attack(cap, params.N)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out.E2.Values {
			truth := int(cap.Truth.E2[i])
			conf.Add(truth, out.E2.Values[i])
			signTotal++
			if out.E2.Signs[i] == sca.SignOf(truth) {
				signOK++
			}
		}
	}
	if signOK != signTotal {
		t.Errorf("sign accuracy %d/%d, paper claims 100%%", signOK, signTotal)
	}
	if conf.Accuracy(0) != 1.0 {
		t.Errorf("zero accuracy %.3f, paper claims 100%%", conf.Accuracy(0))
	}
	// Negatives must beat positives on average (V3 at work).
	var negSum, posSum float64
	var negN, posN int
	for v := 1; v <= 5; v++ {
		if conf.Total(v) > 5 {
			posSum += conf.Accuracy(v)
			posN++
		}
		if conf.Total(-v) > 5 {
			negSum += conf.Accuracy(-v)
			negN++
		}
	}
	if posN == 0 || negN == 0 {
		t.Fatal("not enough samples per class")
	}
	negAvg, posAvg := negSum/float64(negN), posSum/float64(posN)
	if negAvg <= posAvg {
		t.Errorf("negative accuracy %.3f should exceed positive %.3f (V3)", negAvg, posAvg)
	}
	if conf.OverallAccuracy() < 0.4 {
		t.Errorf("overall accuracy %.3f too low for the attack to be meaningful", conf.OverallAccuracy())
	}
}

func TestRecoverMessageWithGroundTruth(t *testing.T) {
	params := smallParams(t)
	prng := sampler.NewXoshiro256(200)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	_ = sk
	enc := bfv.NewEncryptor(params, pk, prng)

	pt := params.NewPlaintext()
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(i) % params.T
	}
	ct, tr, err := enc.EncryptWithTranscript(pt)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 2: u from exact e2 must be ternary and recover m exactly.
	o, err := newE2Oracle(params, pk, ct)
	if err != nil {
		t.Fatal(err)
	}
	u, ternary, err := testkit.RefRecoverU(params, pk, ct, tr.E2)
	if err != nil {
		t.Fatal(err)
	}
	if !ternary {
		t.Fatal("exact e2 must give ternary u")
	}
	got, err := RecoverMessage(params, pk, ct, u)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pt.Coeffs {
		if got.Coeffs[i] != pt.Coeffs[i] {
			t.Fatalf("coeff %d: recovered %d want %d", i, got.Coeffs[i], pt.Coeffs[i])
		}
	}
	// A wrong e2 must be rejected by the ternary oracle.
	bad := append([]int64(nil), tr.E2...)
	bad[0] += 3
	if _, ternary, err := testkit.RefRecoverU(params, pk, ct, bad); err != nil {
		t.Fatal(err)
	} else if ternary {
		t.Error("wrong e2 accepted by the ternary verification")
	}
	// The residual search must reject it too when it has no budget for
	// alternatives.
	wrongProbs := make([]map[int]float64, params.N)
	for i, v := range bad {
		wrongProbs[i] = map[int]float64{int(v): 1}
	}
	wrong := denseResult(make([]int, params.N), wrongProbs)
	for i, v := range bad {
		wrong.Values[i] = int(v)
	}
	if got, _, trials, err := RepairAndRecover(params, pk, ct, wrong, 16, 1); err == nil || got != nil || trials != 1 {
		t.Errorf("RepairAndRecover accepted wrong e2: pt %v, %d trials, err %v", got != nil, trials, err)
	}
	if _, err := o.u(bad[:3]); err == nil {
		t.Error("short e2 should fail")
	}
}

func TestRepairAndRecoverPlantedErrors(t *testing.T) {
	params := smallParams(t)
	prng := sampler.NewXoshiro256(201)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	_ = sk
	enc := bfv.NewEncryptor(params, pk, prng)
	pt := params.NewPlaintext()
	pt.Coeffs[1] = 7
	ct, tr, err := enc.EncryptWithTranscript(pt)
	if err != nil {
		t.Fatal(err)
	}
	// Build a synthetic attack result: correct everywhere except two
	// planted errors whose true values are the second candidates.
	values := make([]int, params.N)
	signs := make([]int, params.N)
	probs := make([]map[int]float64, params.N)
	for i, v := range tr.E2 {
		values[i] = int(v)
		signs[i] = sca.SignOf(int(v))
		probs[i] = map[int]float64{int(v): 0.9, int(v) + 1: 0.1}
	}
	for _, idx := range []int{5, 40} {
		truth := values[idx]
		values[idx] = truth - 1 // wrong ML guess
		probs[idx] = map[int]float64{truth - 1: 0.5, truth: 0.45, truth + 2: 0.05}
	}
	res := denseResult(values, probs)
	res.Signs = signs
	got, repairedE2, trials, err := RepairAndRecover(params, pk, ct, res, 16, 20000)
	if err != nil {
		t.Fatalf("repair failed after %d trials: %v", trials, err)
	}
	for i := range pt.Coeffs {
		if got.Coeffs[i] != pt.Coeffs[i] {
			t.Fatalf("repaired recovery wrong at %d", i)
		}
	}
	for i := range repairedE2 {
		if repairedE2[i] != tr.E2[i] {
			t.Fatalf("repaired e2 wrong at %d", i)
		}
	}
	if trials < 2 {
		t.Error("repair should have needed more than one trial")
	}
}

// The headline end-to-end result: single-trace full message recovery on
// the low-noise device.
func TestEndToEndSingleTraceRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline is expensive")
	}
	dev := NewLowNoiseDevice(8)
	opts := HighAccuracyProfileOptions()
	opts.Q = 12289
	opts.TracesPerValue = 90
	cls, err := Profile(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	params := smallParams(t)
	prng := sampler.NewXoshiro256(300)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	_ = sk
	enc := bfv.NewEncryptor(params, pk, prng)

	recovered := 0
	const runs = 4
	for run := 0; run < runs; run++ {
		pt := params.NewPlaintext()
		for i := range pt.Coeffs {
			pt.Coeffs[i] = uint64((i*7 + run) % int(params.T))
		}
		cap, err := CaptureEncryption(dev, params, enc, pt)
		if err != nil {
			t.Fatal(err)
		}
		out, err := cls.Attack(cap, params.N)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := RepairAndRecover(params, pk, cap.Ciphertext, out.E2, 16, 50000)
		if err != nil {
			t.Logf("run %d: %v", run, err)
			continue
		}
		ok := true
		for i := range pt.Coeffs {
			if got.Coeffs[i] != pt.Coeffs[i] {
				ok = false
			}
		}
		if ok {
			recovered++
		}
	}
	if recovered < runs-1 {
		t.Errorf("recovered %d/%d messages from single traces", recovered, runs)
	}
}

func TestEstimatesFromAttack(t *testing.T) {
	// Estimation needs the paper-scale instance: the n=64 test ring is
	// already LLL-weak without any hints.
	params := bfv.PaperParameters()
	// Synthetic perfect attack result.
	values := make([]int, params.N)
	signs := make([]int, params.N)
	probs := make([]map[int]float64, params.N)
	for i := range probs {
		v := (i % 7) - 3
		values[i] = v
		signs[i] = sca.SignOf(v)
		probs[i] = map[int]float64{v: 1}
	}
	res := denseResult(values, probs)
	res.Signs = signs
	loss, err := EstimateFullHints(params, res)
	if err != nil {
		t.Fatal(err)
	}
	if loss.HintedBikz >= loss.BaselineBikz {
		t.Errorf("full hints should collapse hardness: %+v", loss)
	}
	signLoss, err := EstimateSignOnly(params, res)
	if err != nil {
		t.Fatal(err)
	}
	if signLoss.HintedBikz >= signLoss.BaselineBikz {
		t.Error("sign hints should reduce hardness")
	}
	if signLoss.HintedBikz <= loss.HintedBikz {
		t.Error("sign-only hints must be weaker than full hints")
	}
	bikz, guess, err := SignOnlyWithGuess(params, res)
	if err != nil {
		t.Fatal(err)
	}
	if guess.SuccessProb <= 0 || guess.SuccessProb > 1 {
		t.Errorf("guess probability %v out of range", guess.SuccessProb)
	}
	if bikz > signLoss.HintedBikz+1e-9 {
		t.Error("a guess must not increase hardness")
	}
	// Wrong-length results must be rejected.
	short := denseResult([]int{1}, []map[int]float64{{1: 1}})
	short.Signs = []int{1}
	if _, err := EstimateFullHints(params, short); err == nil {
		t.Error("short result should fail")
	}
	if _, err := EstimateSignOnly(params, short); err == nil {
		t.Error("short result should fail")
	}
}

func TestEstimateRejectsMultiModulus(t *testing.T) {
	p, err := bfv.DefaultParameters(4096, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LWEInstanceForParams(p); err == nil {
		t.Error("multi-modulus params should be rejected")
	}
}

func TestShufflingCountermeasure(t *testing.T) {
	dev := NewDevice(9)
	cls := smallProfile(t, dev)

	const n = 64
	src, err := FirmwareSource(n+1, 12289)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := AssembleFirmware(src)
	if err != nil {
		t.Fatal(err)
	}
	cn := sampler.DefaultClippedNormal()
	samplePRNG := sampler.NewXoshiro256(400)
	values, metas := cn.SamplePoly(samplePRNG, n)
	values = append(values, 0)
	metas = append(metas, sampler.SampleMeta{})

	tr, perm, err := CaptureShuffled(dev, fw, values, metas, sampler.NewXoshiro256(401))
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) != n+1 {
		t.Fatalf("perm length %d", len(perm))
	}
	ev, err := EvaluateShuffledAttack(cls, tr, values, perm)
	if err != nil {
		t.Fatal(err)
	}
	// Values are still recovered (multiset), but positions are destroyed.
	if ev.MultisetAccuracy < 0.4 {
		t.Errorf("multiset accuracy %.3f collapsed — shuffling should not hide values", ev.MultisetAccuracy)
	}
	if ev.PositionalAccuracy > 0.75*ev.MultisetAccuracy+0.15 {
		t.Errorf("positional accuracy %.3f too high vs multiset %.3f — shuffle ineffective?",
			ev.PositionalAccuracy, ev.MultisetAccuracy)
	}
	// Mismatched perm length must fail.
	if _, err := EvaluateShuffledAttack(cls, tr, values, perm[:3]); err == nil {
		t.Error("perm length mismatch should fail")
	}
}

func TestBranchlessKernelDefeatsBranchClassifier(t *testing.T) {
	dev := NewDevice(10)
	cls := smallProfile(t, dev)

	const n = 40
	src, err := FirmwareBranchless(n+1, 12289)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := AssembleFirmware(src)
	if err != nil {
		t.Fatal(err)
	}
	cn := sampler.DefaultClippedNormal()
	prng := sampler.NewXoshiro256(500)
	values, metas := cn.SamplePoly(prng, n)
	values = append(values, 0)
	metas = append(metas, sampler.SampleMeta{})
	tr, err := dev.Capture(fw, values, metas)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := trace.NewSegmenter(n+1).Segment(tr, n+1, 8)
	var res *AttackResult
	if err == nil {
		res, err = cls.AttackSegmentsCtx(context.Background(), segs[:n])
	}
	if err != nil {
		// Segmentation can legitimately fail on the patched kernel; that
		// is also a defense success.
		t.Logf("attack failed on patched kernel (fine): %v", err)
		return
	}
	// Sign accuracy should collapse well below the 100% of the vulnerable
	// kernel (templates were trained on different code).
	ok := 0
	for i := 0; i < n; i++ {
		if res.Signs[i] == sca.SignOf(int(values[i])) {
			ok++
		}
	}
	acc := float64(ok) / float64(n)
	if acc > 0.9 {
		t.Errorf("sign accuracy %.3f against the patched kernel — defense ineffective", acc)
	}
}

func TestTVLAFlagsVulnerableKernel(t *testing.T) {
	dev := NewDevice(31)
	res, err := RunTVLA(dev, 12289, 5, 60, false, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Leaky {
		t.Errorf("vulnerable kernel must fail TVLA: max |t| = %.2f", res.MaxT)
	}
	if res.MaxTAt < 0 || res.MaxTAt >= len(res.TStat) {
		t.Error("peak index out of range")
	}
	if res.Threshold != TVLAThreshold {
		t.Error("threshold not propagated")
	}
	if _, err := RunTVLA(dev, 12289, 5, 3, false, 32); err == nil {
		t.Error("too few traces should fail")
	}
}

// The branch-free (SEAL v3.6-style) kernel removes the control-flow
// leakage but its stores still process secret-dependent data, so a
// fixed-vs-random TVLA still fails — exactly the paper's §V caveat that
// "SEAL v3.6 and later versions may have a different vulnerability".
func TestTVLABranchlessStillLeaksData(t *testing.T) {
	dev := NewDevice(33)
	vuln, err := RunTVLA(dev, 12289, -5, 60, false, 34)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := RunTVLA(dev, 12289, -5, 60, true, 34)
	if err != nil {
		t.Fatal(err)
	}
	if !vuln.Leaky {
		t.Errorf("vulnerable kernel must fail TVLA: %.2f", vuln.MaxT)
	}
	if !patched.Leaky {
		t.Errorf("patched kernel still processes secret data and must fail TVLA too: %.2f", patched.MaxT)
	}
}

func TestClassifierSerializationRoundTrip(t *testing.T) {
	dev := NewDevice(41)
	opts := DefaultProfileOptions()
	opts.Q = 12289
	opts.TracesPerValue = 20
	cls, err := Profile(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteClassifier(&buf, cls); err != nil {
		t.Fatal(err)
	}
	got, err := ReadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Length != cls.Length || got.MaxAbsValue != cls.MaxAbsValue {
		t.Error("classifier metadata mismatch")
	}
	// Both classifiers must agree on fresh segments.
	const n = 16
	src, _ := FirmwareSource(n, 12289)
	fw, _ := AssembleFirmware(src)
	cn := sampler.DefaultClippedNormal()
	values, metas := cn.SamplePoly(sampler.NewXoshiro256(42), n)
	_, segs, err := dev.SegmentCapture(fw, values, metas)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(segs)-1; i++ {
		a, err := classifyOne(cls, segs[i].Samples)
		if err != nil {
			t.Fatal(err)
		}
		b, err := classifyOne(got, segs[i].Samples)
		if err != nil {
			t.Fatal(err)
		}
		if a.Value != b.Value || a.Sign != b.Sign {
			t.Fatalf("segment %d: classifications diverge after round trip", i)
		}
	}
	// Errors.
	if err := WriteClassifier(&buf, nil); err == nil {
		t.Error("nil classifier should fail")
	}
	if _, err := ReadClassifier(strings.NewReader("BAD!")); err == nil {
		t.Error("bad magic should fail")
	}
}

// The decryption-side extension (§II-B): the secret key repeats across
// decryptions, so multi-trace CPA recovers it — and a single trace does
// not suffice, which is exactly why the encryption attack had to be
// single-trace.
func TestDecryptionMultiTraceCPA(t *testing.T) {
	const (
		q = 12289
		n = 24
	)
	dev := NewDevice(51)
	sk := sampler.TernaryPoly(sampler.NewXoshiro256(52), n)

	res, err := RunDecryptionAttack(dev, sk, q, 150, 53)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := KeyRecoveryRate(res.Recovered, sk)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0.95 {
		t.Errorf("multi-trace key recovery rate %.3f, want ≥ 0.95", rate)
	}

	// A single trace must NOT recover the key (CPA needs variance).
	if _, err := RunDecryptionAttack(dev, sk, q, 1, 54); err == nil {
		t.Error("single-trace CPA should be rejected")
	}
	few, err := RunDecryptionAttack(dev, sk, q, 8, 55)
	if err != nil {
		t.Fatal(err)
	}
	fewRate, err := KeyRecoveryRate(few.Recovered, sk)
	if err != nil {
		t.Fatal(err)
	}
	if fewRate >= rate {
		t.Errorf("8-trace recovery %.3f should be worse than 150-trace %.3f", fewRate, rate)
	}
}

func TestDecryptionAttackValidation(t *testing.T) {
	dev := NewDevice(56)
	if _, err := RunDecryptionAttack(dev, nil, 12289, 10, 1); err == nil {
		t.Error("empty key should fail")
	}
	if _, err := RunDecryptionAttack(dev, []int64{5}, 12289, 10, 1); err == nil {
		t.Error("non-ternary key should fail")
	}
	if _, err := DecryptionFirmware(0); err == nil {
		t.Error("n=0 firmware should fail")
	}
	if _, err := KeyRecoveryRate([]int{1}, []int64{1, 0}); err == nil {
		t.Error("length mismatch should fail")
	}
}

// Trigger jitter must not hurt the attack: peak-based segmentation
// (§III-C) absorbs it, unlike fixed-offset windowing.
func TestAttackRobustToTriggerJitter(t *testing.T) {
	dev := NewDevice(71)
	cls := smallProfile(t, dev)
	params := smallParams(t)
	prng := sampler.NewXoshiro256(700)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	_ = sk
	enc := bfv.NewEncryptor(params, pk, prng)

	// Baseline without jitter.
	cap1, err := CaptureEncryption(dev, params, enc, params.NewPlaintext())
	if err != nil {
		t.Fatal(err)
	}
	out1, err := cls.Attack(cap1, params.N)
	if err != nil {
		t.Fatal(err)
	}
	acc1, sign1, err := out1.E2.Accuracy(cap1.Truth.E2)
	if err != nil {
		t.Fatal(err)
	}

	// Heavy jitter.
	dev.TriggerJitter = 40
	cap2, err := CaptureEncryption(dev, params, enc, params.NewPlaintext())
	if err != nil {
		t.Fatal(err)
	}
	out2, err := cls.Attack(cap2, params.N)
	if err != nil {
		t.Fatal(err)
	}
	acc2, sign2, err := out2.E2.Accuracy(cap2.Truth.E2)
	if err != nil {
		t.Fatal(err)
	}
	if sign1 != 1.0 || sign2 != 1.0 {
		t.Errorf("sign accuracy degraded under jitter: %.3f -> %.3f", sign1, sign2)
	}
	if acc2 < acc1-0.2 {
		t.Errorf("value accuracy collapsed under jitter: %.3f -> %.3f", acc1, acc2)
	}
	dev.TriggerJitter = 0
}

// Masking study (§V-A): the paper advises against masking because the
// sign-dependent branches cannot be masked. Against the 2-share masked
// kernel, sign recovery must stay (near) perfect while value recovery
// collapses toward the branch-only information level.
func TestMaskingLeavesBranchLeakage(t *testing.T) {
	dev := NewDevice(81)
	ev, err := EvaluateMasking(dev, 12289, 40, 128, 82)
	if err != nil {
		t.Fatal(err)
	}
	if ev.SignAccuracy < 0.98 {
		t.Errorf("sign accuracy %.3f against masked kernel — branches should still leak", ev.SignAccuracy)
	}
	// Value recovery drops well below the unmasked kernel's (~65%): the
	// share stores are randomized. It does NOT drop to the zero-floor,
	// because the raw noise value still transits a register before being
	// split — the sign-dependent branch forces unmasked handling, which is
	// precisely why the paper rejects masking as a defense here.
	if ev.ValueAccuracy > 0.55 {
		t.Errorf("value accuracy %.3f against masked kernel — masking ineffective?", ev.ValueAccuracy)
	}
	if ev.ValueAccuracy < 0.10 {
		t.Errorf("value accuracy %.3f below the branch-information floor — suspicious", ev.ValueAccuracy)
	}
}

func TestFirmwareMaskedSemantics(t *testing.T) {
	// The two shares must recombine to the unmasked assignment.
	const q = 12289
	values := []int64{0, 5, -5, 41, -41, 1, -1}
	dev := NewDevice(83)
	src, err := FirmwareMasked(len(values), q)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := AssembleFirmware(src)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := dev.runMaskedForTest(fw, values, q, 84)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		r := binary.LittleEndian.Uint32(cpu.Mem[PolyBase+uint32(8*i):])
		s2 := binary.LittleEndian.Uint32(cpu.Mem[PolyBase+uint32(8*i+4):])
		want, _ := sampler.AssignSigned(v, []uint64{q})
		got := (uint64(r) + uint64(s2)) % q
		if got != want[0] {
			t.Errorf("coeff %d (value %d): shares %d+%d = %d mod q, want %d",
				i, v, r, s2, got, want[0])
		}
	}
	if _, err := FirmwareMasked(0, q); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := FirmwareMasked(4, 1<<32); err == nil {
		t.Error("oversized q should fail")
	}
}

// Timing dimension of V1: the vulnerable kernel's iteration length depends
// on the branch taken (zero/positive/negative execute different
// instruction counts), while the branch-free kernel is constant-time.
// Trace length equals cycle count (one sample per cycle).
func TestBranchlessKernelIsConstantTime(t *testing.T) {
	dev := NewDevice(85)
	dev.Model.NoiseSigma = 0
	cycleCount := func(branchless bool, v int64) int {
		var src string
		var err error
		if branchless {
			src, err = FirmwareBranchless(1, 12289)
		} else {
			src, err = FirmwareSource(1, 12289)
		}
		if err != nil {
			t.Fatal(err)
		}
		fw, err := AssembleFirmware(src)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := dev.Capture(fw, []int64{v}, make([]sampler.SampleMeta, 1))
		if err != nil {
			t.Fatal(err)
		}
		return len(tr)
	}
	// Vulnerable kernel: three distinct durations.
	zero := cycleCount(false, 0)
	pos := cycleCount(false, 5)
	neg := cycleCount(false, -5)
	if zero == pos && pos == neg {
		t.Error("vulnerable kernel should be time-variant across branches")
	}
	if neg <= pos {
		t.Errorf("negative branch (%d cycles) should be longest (extra neg/sub), positive %d", neg, pos)
	}
	// Branch-free kernel: identical duration for every value.
	base := cycleCount(true, 0)
	for _, v := range []int64{1, -1, 41, -41, 7} {
		if got := cycleCount(true, v); got != base {
			t.Errorf("branch-free kernel time-variant: value %d took %d cycles, want %d", v, got, base)
		}
	}
}

// Masking order: on the share-store region the masked kernel must be
// (near) clean at first order and leak at second order — the canonical
// higher-order evaluation.
func TestSecondOrderLeakageOfMaskedKernel(t *testing.T) {
	// High-SNR acquisition: the second-order signal scales with the square
	// of the data-leakage coefficient, so the evaluation uses a boosted
	// probe (standard practice when certifying masking order). Small q
	// keeps the shares short; the fixed value 14 sits at the extreme of
	// the E[HW(r)·HW(v−r)] curve, maximizing the fixed-vs-random contrast.
	dev := NewDevice(97)
	dev.Model.AlphaHWData *= 3
	dev.Model.DeltaHDBus *= 3
	dev.Model.NoiseSigma = 0.005
	dev.Model.PortSpike = 25
	study, err := RunSecondOrderStudy(dev, 257, 14, 1500, 98)
	if err != nil {
		t.Fatal(err)
	}
	// First order: the shares are uniform — no leakage on the store region.
	if study.FirstOrderMaxT > TVLAThreshold {
		t.Errorf("first-order t %.2f flags the masked share region — masking broken?", study.FirstOrderMaxT)
	}
	// Second order: centered products recombine the shares.
	if study.SecondOrderMaxT < TVLAThreshold {
		t.Errorf("second-order analysis should flag the masked kernel: max t %.2f", study.SecondOrderMaxT)
	}
	if study.SecondOrderMaxT < study.FirstOrderMaxT {
		t.Errorf("second-order t (%.2f) should exceed first-order t (%.2f)",
			study.SecondOrderMaxT, study.FirstOrderMaxT)
	}
	// Validation.
	if _, err := RunSecondOrderStudy(dev, 257, -5, 100, 98); err == nil {
		t.Error("negative fixed value should fail (branch would vary)")
	}
	if _, err := RunSecondOrderStudy(dev, 257, 5, 3, 98); err == nil {
		t.Error("too few traces should fail")
	}
}
