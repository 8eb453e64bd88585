package core

import (
	"context"
	"fmt"

	"reveal/internal/bfv"
	"reveal/internal/obs"
	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// EncryptionCapture is one observed encryption: the public ciphertext, the
// two power traces of the Gaussian sampling runs (e1 then e2), and — for
// evaluation only — the ground-truth transcript.
type EncryptionCapture struct {
	Ciphertext *bfv.Ciphertext
	TraceE1    trace.Trace
	TraceE2    trace.Trace

	// Truth is the encryption transcript; the attack never reads it, the
	// evaluation harness does.
	Truth *bfv.EncryptionTranscript
}

// CaptureEncryption performs one BFV encryption and records the power
// traces of both error-polynomial sampling runs on the device — the
// "single power measurement" of the paper (one trace per error polynomial,
// captured within the same encryption).
func CaptureEncryption(dev *Device, params *bfv.Parameters, enc *bfv.Encryptor, pt *bfv.Plaintext) (*EncryptionCapture, error) {
	return CaptureEncryptionCtx(context.Background(), dev, params, enc, pt)
}

// CaptureEncryptionCtx is CaptureEncryption carrying the caller's trace
// identity: the capture span is stamped with the request trace ID from ctx
// (service path), so per-job trace exports include the capture stage.
func CaptureEncryptionCtx(ctx context.Context, dev *Device, params *bfv.Parameters, enc *bfv.Encryptor, pt *bfv.Plaintext) (*EncryptionCapture, error) {
	sp := obs.StartSpanCtx(ctx, "capture_encryption")
	sp.AddItems(2) // two sampling traces per encryption (e1, e2)
	defer sp.End()
	ct, tr, err := enc.EncryptWithTranscript(pt)
	if err != nil {
		return nil, err
	}
	// One sentinel iteration is appended so the last real coefficient's
	// segment has the same tail shape as the others (its successor peak
	// exists); the attack discards the sentinel's classification.
	src, err := FirmwareSource(params.N+1, FirmwareModulus(params.Moduli[0]))
	if err != nil {
		return nil, err
	}
	fw, err := AssembleFirmware(src)
	if err != nil {
		return nil, err
	}
	withSentinel := func(vals []int64, metas []sampler.SampleMeta) ([]int64, []sampler.SampleMeta) {
		v := append(append([]int64(nil), vals...), 0)
		m := append(append([]sampler.SampleMeta(nil), metas...), sampler.SampleMeta{})
		return v, m
	}
	v1, m1 := withSentinel(tr.E1, tr.Meta1)
	t1, err := dev.Capture(fw, v1, m1)
	if err != nil {
		return nil, fmt.Errorf("core: capturing e1 sampling: %w", err)
	}
	v2, m2 := withSentinel(tr.E2, tr.Meta2)
	t2, err := dev.Capture(fw, v2, m2)
	if err != nil {
		return nil, fmt.Errorf("core: capturing e2 sampling: %w", err)
	}
	return &EncryptionCapture{Ciphertext: ct, TraceE1: t1, TraceE2: t2, Truth: tr}, nil
}

// AttackOutcome is the result of the full single-trace attack on one
// encryption.
type AttackOutcome struct {
	E1, E2 *AttackResult
}

// AttackOptions tunes one attack execution.
type AttackOptions struct {
	// Workers is the number of classification goroutines used per error
	// polynomial; values <= 1 run the serial path. The sharded parallel
	// path produces byte-identical results to the serial one, so this is
	// purely a throughput knob. When Workers > 1 the two polynomials are
	// additionally segmented and classified concurrently.
	Workers int
}

// Attack runs the single-trace attack on both error polynomials of a
// captured encryption (each trace contains n real coefficients plus the
// sentinel iteration, which is discarded).
func (c *CoefficientClassifier) Attack(cap *EncryptionCapture, n int) (*AttackOutcome, error) {
	return c.AttackWithOptions(context.Background(), cap, n, AttackOptions{})
}

// AttackWithOptions runs the single-trace attack with explicit concurrency
// options and cancellation: the attack aborts at the next stage boundary
// once ctx is done. It is the full entry point behind Attack.
func (c *CoefficientClassifier) AttackWithOptions(ctx context.Context, cap *EncryptionCapture, n int, opts AttackOptions) (*AttackOutcome, error) {
	sp := obs.StartSpanCtx(ctx, "attack")
	sp.AddItems(2 * n)
	defer sp.End()
	attackOne := func(poly string, tr trace.Trace) (*AttackResult, error) {
		psp := sp.Child(poly)
		psp.AddItems(n)
		defer psp.End()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: attack canceled: %w", err)
		}
		// Zero-copy segmentation: the segment views only need to live for
		// the classification below, and tr outlives it.
		segs, err := segmentTrace(ctx, trace.NewSegmenter(n+1), tr, n+1)
		if err != nil {
			return nil, err
		}
		return c.AttackSegmentsParallel(ctx, segs[:n], opts.Workers)
	}
	if opts.Workers > 1 {
		// The two error polynomials are independent: segment and classify
		// them concurrently, each with its own shard pool.
		type polyRes struct {
			r   *AttackResult
			err error
		}
		ch := make(chan polyRes, 1)
		go func() {
			r, err := attackOne("e1", cap.TraceE1)
			ch <- polyRes{r, err}
		}()
		r2, err2 := attackOne("e2", cap.TraceE2)
		p1 := <-ch
		if p1.err != nil {
			return nil, fmt.Errorf("core: attacking e1 trace: %w", p1.err)
		}
		if err2 != nil {
			return nil, fmt.Errorf("core: attacking e2 trace: %w", err2)
		}
		return &AttackOutcome{E1: p1.r, E2: r2}, nil
	}
	r1, err := attackOne("e1", cap.TraceE1)
	if err != nil {
		return nil, fmt.Errorf("core: attacking e1 trace: %w", err)
	}
	r2, err := attackOne("e2", cap.TraceE2)
	if err != nil {
		return nil, fmt.Errorf("core: attacking e2 trace: %w", err)
	}
	return &AttackOutcome{E1: r1, E2: r2}, nil
}
