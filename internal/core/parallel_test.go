package core

import (
	"context"
	"reflect"
	"testing"

	"reveal/internal/bfv"
	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// captureSmall profiles the device and captures one encryption at the
// q=12289, n=64 test scale.
func captureSmall(t *testing.T, seed uint64) (*CoefficientClassifier, *EncryptionCapture, *bfv.Parameters) {
	t.Helper()
	dev := NewDevice(seed)
	return captureOn(t, dev, smallProfile(t, dev), seed)
}

// captureOn captures one encryption on dev for the classifier cls.
func captureOn(t *testing.T, dev *Device, cls *CoefficientClassifier, seed uint64) (*CoefficientClassifier, *EncryptionCapture, *bfv.Parameters) {
	t.Helper()
	params := smallParams(t)
	prng := sampler.NewXoshiro256(seed ^ 0xFACE)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := bfv.NewEncryptor(params, pk, prng)
	pt := params.NewPlaintext()
	cap, err := CaptureEncryption(dev, params, enc, pt)
	if err != nil {
		t.Fatal(err)
	}
	_ = sk
	return cls, cap, params
}

// TestParallelClassificationMatchesSerial is the worker-pool determinism
// guarantee: sharded parallel classification must be byte-identical to the
// serial loop for any worker count.
func TestParallelClassificationMatchesSerial(t *testing.T) {
	cls, cap, params := captureSmall(t, 11)
	segs, err := trace.NewSegmenter(params.N+1).Segment(cap.TraceE2, params.N+1, 8)
	if err != nil {
		t.Fatal(err)
	}
	segs = segs[:params.N]
	ctx := context.Background()
	serial, err := cls.AttackSegmentsCtx(ctx, segs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 64, 200} {
		par, err := cls.AttackSegmentsParallel(ctx, segs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial.Values, par.Values) {
			t.Fatalf("workers=%d: Values diverge from serial", workers)
		}
		if !reflect.DeepEqual(serial.Signs, par.Signs) {
			t.Fatalf("workers=%d: Signs diverge from serial", workers)
		}
		if !reflect.DeepEqual(serial.Probs, par.Probs) {
			t.Fatalf("workers=%d: Probs diverge from serial", workers)
		}
	}
}

// TestAttackWithOptionsMatchesAttack checks the full parallel attack path
// (concurrent e1/e2 + sharded classification) against the serial Attack.
func TestAttackWithOptionsMatchesAttack(t *testing.T) {
	cls, cap, params := captureSmall(t, 12)
	serial, err := cls.Attack(cap, params.N)
	if err != nil {
		t.Fatal(err)
	}
	par, err := cls.AttackWithOptions(context.Background(), cap, params.N, AttackOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.E1, par.E1) || !reflect.DeepEqual(serial.E2, par.E2) {
		t.Fatal("parallel attack outcome diverges from serial")
	}
}

// TestClassificationCancellation verifies both classification paths honor
// an already-canceled context.
func TestClassificationCancellation(t *testing.T) {
	cls, cap, params := captureSmall(t, 13)
	segs, err := trace.NewSegmenter(params.N+1).Segment(cap.TraceE2, params.N+1, 8)
	if err != nil {
		t.Fatal(err)
	}
	segs = segs[:params.N]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cls.AttackSegmentsCtx(ctx, segs); err == nil {
		t.Error("serial classification ignored canceled context")
	}
	if _, err := cls.AttackSegmentsParallel(ctx, segs, 4); err == nil {
		t.Error("parallel classification ignored canceled context")
	}
	if _, err := cls.AttackWithOptions(ctx, cap, params.N, AttackOptions{Workers: 2}); err == nil {
		t.Error("AttackWithOptions ignored canceled context")
	}
}

// TestProfileCancellation verifies profiling and diagnostics abort at stage
// boundaries once the context is done.
func TestProfileCancellation(t *testing.T) {
	dev := NewDevice(14)
	opts := DefaultProfileOptions()
	opts.Q = 12289
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ProfileCtx(ctx, dev, opts); err == nil {
		t.Error("ProfileCtx ignored canceled context")
	}
	if _, err := DiagnoseCtx(ctx, dev, DiagnosticsOptions{Profile: opts}); err == nil {
		t.Error("DiagnoseCtx ignored canceled context")
	}
}

// TestTrainClassifierCtxMatchesSerialTraining verifies the concurrent
// per-class training produces the same classifier as a fresh profile run
// (training is deterministic given the collected sets).
func TestTrainClassifierCtxMatchesSerialTraining(t *testing.T) {
	dev := NewDevice(15)
	opts := DefaultProfileOptions()
	opts.Q = 12289
	opts.TracesPerValue = 20
	sets, err := CollectProfilingSetsCtx(context.Background(), dev, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := TrainClassifierCtx(context.Background(), sets, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainClassifierCtx(context.Background(), sets, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated training on the same sets diverged")
	}
}
