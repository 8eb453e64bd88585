package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"reveal/internal/bfv"
	"reveal/internal/core"
	"reveal/internal/dbdd"
	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// batchWorkload describes the two workloads that attack one encryption per
// op in the benchmark's own goroutine: table1 and recover.
type batchWorkload struct {
	// lowNoise selects the low-noise device and the 28-POI
	// HighAccuracyProfileOptions templates instead of the default device
	// and the 12-POI DefaultProfileOptions ones.
	lowNoise bool
	// recover extends each op with the DBDD estimate of e2's hints and the
	// residual search that brings the encryption to a verdict.
	recover bool
	op      func(seed uint64, i int) batchOp
	// passLen > 0 ends the timed phase on a whole pass over a fixed op
	// list, so every run sees the same outcome mix.
	passLen int
	// tailP is the planned latency_tail_s rung (see summarizeLatency).
	tailP float64
}

var (
	// ≈400 ops in 20 s: p95 has ≈20 samples beyond it.
	table1Workload = batchWorkload{op: table1Op, tailP: 0.95}
	// ≈80 ops in 20 s: p75 has ≈20 beyond it, all of them exhausted
	// searches, while p50 is a recovery.
	recoverWorkload = batchWorkload{lowNoise: true, recover: true, op: recoverOp, passLen: len(recoverPool), tailP: 0.75}
)

const (
	// fixtureSeed seeds the profiling device and the key pair.
	fixtureSeed = 1
	// recoverMaxDepth and recoverTrialBudget bound RepairAndRecover: the
	// pair/triple window of revealctl attack, and a trial budget small
	// enough that an exhausted search costs about half a second.
	recoverMaxDepth    = 16
	recoverTrialBudget = 2000
	// digestOps is how many leading ops output_digest covers: a fixed
	// prefix, so runs of different lengths digest the same ops.
	digestOps = 8
)

// batchFixture is a profiled device and a key pair.
type batchFixture struct {
	w      batchWorkload
	params *bfv.Parameters
	cls    *core.CoefficientClassifier
	pk     *bfv.PublicKey
}

// newBatchFixture profiles the device and generates the keys; it returns
// the time core.Profile took.
func newBatchFixture(w batchWorkload) (*batchFixture, time.Duration, error) {
	params := bfv.PaperParameters()
	dev, opts := core.NewDevice(fixtureSeed), core.DefaultProfileOptions()
	if w.lowNoise {
		dev, opts = core.NewLowNoiseDevice(fixtureSeed), core.HighAccuracyProfileOptions()
	}
	t0 := time.Now()
	cls, err := core.Profile(dev, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("profiling: %w", err)
	}
	profile := time.Since(t0)
	kg := bfv.NewKeyGenerator(params, sampler.NewXoshiro256(fixtureSeed^0xABCD))
	pk := kg.GenPublicKey(kg.GenSecretKey())
	return &batchFixture{w: w, params: params, cls: cls, pk: pk}, profile, nil
}

// inputs builds an op's attack device, encryptor and plaintext. A fresh
// device per op makes the traces a function of the op alone.
func (f *batchFixture) inputs(op batchOp) (*core.Device, *bfv.Encryptor, *bfv.Plaintext) {
	dev := core.NewDevice(op.DevSeed)
	if f.w.lowNoise {
		dev = core.NewLowNoiseDevice(op.DevSeed)
	}
	enc := bfv.NewEncryptor(f.params, f.pk, sampler.NewXoshiro256(op.EncSeed))
	pt := f.params.NewPlaintext()
	prng := sampler.NewXoshiro256(op.MsgSeed)
	for i := range pt.Coeffs {
		pt.Coeffs[i] = sampler.Uint64Below(prng, f.params.T)
	}
	return dev, enc, pt
}

// batchOutcome is one op's checked output.
type batchOutcome struct {
	out        *core.AttackOutcome
	correct    int // classified coefficients equal to the transcript
	classified int
	samples    int // trace samples captured for e1 and e2
	recovered  bool
	trials     int
	hintedBikz float64
	// failure is non-empty when an output check failed.
	failure string
}

// verdict is the op's deterministic result line for output_digest.
func (o *batchOutcome) verdict(w batchWorkload) string {
	switch {
	case !w.recover:
		return "attacked"
	case o.recovered:
		return fmt.Sprintf("recovered trials=%d", o.trials)
	default:
		return fmt.Sprintf("exhausted trials=%d", o.trials)
	}
}

// runProduct runs one op through the product entry points and returns its
// latency: CaptureEncryption then Attack on the serial path, plus the DBDD
// estimate and RepairAndRecover for the recover workload.
func (f *batchFixture) runProduct(op batchOp) (*batchOutcome, time.Duration, error) {
	dev, enc, pt := f.inputs(op)
	n := f.params.N
	t0 := time.Now()
	cap, err := core.CaptureEncryption(dev, f.params, enc, pt)
	if err != nil {
		return nil, 0, err
	}
	out, err := f.cls.Attack(cap, n)
	if err != nil {
		return nil, 0, err
	}
	var v recoverVerdict
	if f.w.recover {
		if v, err = f.recoverE2(cap, out.E2); err != nil {
			return nil, 0, err
		}
	}
	lat := time.Since(t0)
	return f.check(cap, pt, out, v), lat, nil
}

// recoverVerdict is what the recover stage returned.
type recoverVerdict struct {
	loss   *dbdd.SecurityLoss
	pt     *bfv.Plaintext
	trials int
	err    error
}

func (f *batchFixture) recoverE2(cap *core.EncryptionCapture, e2 *core.AttackResult) (recoverVerdict, error) {
	loss, err := core.EstimateFullHints(f.params, e2)
	if err != nil {
		return recoverVerdict{}, err
	}
	pt, _, trials, err := core.RepairAndRecover(f.params, f.pk, cap.Ciphertext, e2, recoverMaxDepth, recoverTrialBudget)
	return recoverVerdict{loss: loss, pt: pt, trials: trials, err: err}, nil
}

// runTraced runs the same op as runProduct with the layers called one by
// one, each inside a span: encrypt with transcript, firmware, Device.Capture
// for e1 and e2, then Segment and AttackSegmentsCtx per polynomial, then
// the estimate and the residual search. It must reproduce runProduct's
// result exactly; the caller compares the digests.
func (f *batchFixture) runTraced(ctx context.Context, op batchOp, rec *spanRecorder) (*batchOutcome, error) {
	dev, enc, pt := f.inputs(op)
	root := rec.open(op.Index, -1, rootSpan)
	cap, out, v, err := f.callLayers(ctx, op.Index, root, rec, dev, enc, pt)
	rec.close(root)
	if err != nil {
		return nil, err
	}
	return f.check(cap, pt, out, v), nil
}

// callLayers is runTraced's body: every layer call of one op, each inside a
// span under root.
func (f *batchFixture) callLayers(ctx context.Context, i, root int, rec *spanRecorder, dev *core.Device,
	enc *bfv.Encryptor, pt *bfv.Plaintext) (*core.EncryptionCapture, *core.AttackOutcome, recoverVerdict, error) {
	n := f.params.N
	var v recoverVerdict
	var (
		ct *bfv.Ciphertext
		tr *bfv.EncryptionTranscript
		fw []byte
	)
	err := rec.timed(i, root, "capture.encrypt", func() (err error) {
		ct, tr, err = enc.EncryptWithTranscript(pt)
		return err
	})
	if err != nil {
		return nil, nil, v, err
	}
	// One sentinel iteration, as CaptureEncryption appends, gives the last
	// real coefficient's segment the same tail shape as the others.
	err = rec.timed(i, root, "capture.firmware", func() error {
		src, err := core.FirmwareSource(n+1, core.FirmwareModulus(f.params.Moduli[0]))
		if err != nil {
			return err
		}
		fw, err = core.AssembleFirmware(src)
		return err
	})
	if err != nil {
		return nil, nil, v, err
	}
	capturePoly := func(vals []int64, metas []sampler.SampleMeta) (t trace.Trace, err error) {
		vs := append(slices.Clone(vals), 0)
		ms := append(slices.Clone(metas), sampler.SampleMeta{})
		err = rec.timed(i, root, "capture.iss", func() (err error) {
			t, err = dev.Capture(fw, vs, ms)
			return err
		})
		return t, err
	}
	t1, err := capturePoly(tr.E1, tr.Meta1)
	if err != nil {
		return nil, nil, v, err
	}
	t2, err := capturePoly(tr.E2, tr.Meta2)
	if err != nil {
		return nil, nil, v, err
	}
	attackPoly := func(t trace.Trace) (res *core.AttackResult, err error) {
		var segs []trace.Segment
		err = rec.timed(i, root, "segment", func() (err error) {
			segs, err = trace.NewSegmenter(n+1).Segment(t, n+1, 8)
			return err
		})
		if err != nil {
			return nil, err
		}
		err = rec.timed(i, root, "classify", func() (err error) {
			res, err = f.cls.AttackSegmentsCtx(ctx, segs[:n])
			return err
		})
		return res, err
	}
	r1, err := attackPoly(t1)
	if err != nil {
		return nil, nil, v, err
	}
	r2, err := attackPoly(t2)
	if err != nil {
		return nil, nil, v, err
	}
	cap := &core.EncryptionCapture{Ciphertext: ct, TraceE1: t1, TraceE2: t2, Truth: tr}
	out := &core.AttackOutcome{E1: r1, E2: r2}
	if f.w.recover {
		err = rec.timed(i, root, "dbdd.estimate", func() (err error) {
			v.loss, err = core.EstimateFullHints(f.params, r2)
			return err
		})
		if err != nil {
			return nil, nil, v, err
		}
		rec.timed(i, root, "recover", func() error {
			v.pt, _, v.trials, v.err = core.RepairAndRecover(f.params, f.pk, ct, r2, recoverMaxDepth, recoverTrialBudget)
			return nil
		})
	}
	return cap, out, v, nil
}

// check applies the output checks to one op: each polynomial classifies
// exactly n coefficients, and a plaintext the residual search returns must
// equal the encrypted one bit for bit. An exhausted search is a verdict
// ("not recovered"), not a failure; any other recovery error is a failure.
func (f *batchFixture) check(cap *core.EncryptionCapture, pt *bfv.Plaintext, out *core.AttackOutcome, v recoverVerdict) *batchOutcome {
	o := &batchOutcome{out: out, trials: v.trials, samples: len(cap.TraceE1) + len(cap.TraceE2)}
	n := f.params.N
	for _, p := range []struct {
		res   *core.AttackResult
		truth []int64
	}{{out.E1, cap.Truth.E1}, {out.E2, cap.Truth.E2}} {
		if len(p.res.Values) != n || len(p.res.Signs) != n || len(p.res.Probs) != n {
			o.failure = fmt.Sprintf("classified %d of %d coefficients", len(p.res.Values), n)
			return o
		}
		for i, val := range p.res.Values {
			if int64(val) == p.truth[i] {
				o.correct++
			}
		}
		o.classified += n
	}
	if !f.w.recover {
		return o
	}
	o.hintedBikz = v.loss.HintedBikz
	switch {
	case v.err != nil && v.trials < recoverTrialBudget:
		o.failure = fmt.Sprintf("recovery failed after %d of %d trials: %v", v.trials, recoverTrialBudget, v.err)
	case v.err != nil:
		// The budget ran out: not recovered.
	case !slices.Equal(v.pt.Coeffs, pt.Coeffs):
		o.failure = "recovered plaintext differs from the encrypted one"
	default:
		o.recovered = true
	}
	return o
}

// outcomeDigests returns the digests of both polynomials' results.
func outcomeDigests(o *batchOutcome) (e1, e2 string, err error) {
	if e1, err = o.out.E1.Digest(); err != nil {
		return "", "", err
	}
	e2, err = o.out.E2.Digest()
	return e1, e2, err
}

// batchTally accumulates the ops of one phase.
type batchTally struct {
	w          batchWorkload
	latencies  []float64
	attempted  int
	failed     int
	failures   []string
	correct    int
	classified int
	recovered  int
	trials     int
	bikz       []float64
	samples    []float64
	digest     outputDigest
	wall       time.Duration
	cpu        float64 // process CPU seconds of the phase
}

func (t *batchTally) add(op batchOp, o *batchOutcome, lat time.Duration, err error) {
	t.attempted++
	if err != nil {
		t.fail(fmt.Sprintf("op %d: %v", op.Index, err))
		return
	}
	if o.failure != "" {
		t.fail(fmt.Sprintf("op %d: %s", op.Index, o.failure))
	}
	t.latencies = append(t.latencies, lat.Seconds())
	t.correct += o.correct
	t.classified += o.classified
	t.trials += o.trials
	t.samples = append(t.samples, float64(o.samples))
	if o.recovered {
		t.recovered++
	}
	if t.w.recover {
		t.bikz = append(t.bikz, o.hintedBikz)
	}
	if op.Index < digestOps {
		e1, e2, err := outcomeDigests(o)
		if err != nil {
			t.fail(fmt.Sprintf("op %d: digest: %v", op.Index, err))
			return
		}
		t.digest.add(op.Index, e1+" "+e2, o.verdict(t.w), o.classified)
	}
}

func (t *batchTally) fail(msg string) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, msg)
	}
}

// keepGoing reports whether the timed phase continues at op i.
func (w batchWorkload) keepGoing(i int, start time.Time, d time.Duration) bool {
	return time.Since(start) < d || (w.passLen > 0 && i%w.passLen != 0)
}

// measure is the untraced timed phase: a closed loop of one client running
// product-path ops back to back for d (rounded up to whole passes).
func (f *batchFixture) measure(seed uint64, d time.Duration) *batchTally {
	t := &batchTally{w: f.w}
	c := startClock()
	for i := 0; f.w.keepGoing(i, c.wall, d); i++ {
		op := f.w.op(seed, i)
		o, lat, err := f.runProduct(op)
		t.add(op, o, lat, err)
	}
	t.wall, t.cpu = c.stop()
	return t
}

// tracedPhase is the outcome of the traced run of a batch workload.
type tracedPhase struct {
	product  *batchTally
	spans    []span
	pairs    int
	mismatch int
}

// measureTraced runs every op twice, alternating which goes first: once
// composed layer by layer under spans, once through the product path
// untraced. The two must produce identical digests and verdicts; the
// latency difference is the tracing overhead.
func (f *batchFixture) measureTraced(ctx context.Context, seed uint64, d time.Duration) *tracedPhase {
	rec := newSpanRecorder()
	ph := &tracedPhase{product: &batchTally{w: f.w}}
	start := time.Now()
	for i := 0; f.w.keepGoing(i, start, d); i++ {
		op := f.w.op(seed, i)
		var (
			traced, prod *batchOutcome
			lat          time.Duration
			terr, perr   error
		)
		if i%2 == 0 {
			traced, terr = f.runTraced(ctx, op, rec)
			prod, lat, perr = f.runProduct(op)
		} else {
			prod, lat, perr = f.runProduct(op)
			traced, terr = f.runTraced(ctx, op, rec)
		}
		ph.product.add(op, prod, lat, perr)
		ph.pairs++
		if terr != nil {
			ph.product.fail(fmt.Sprintf("op %d traced: %v", i, terr))
			continue
		}
		if perr == nil && !sameOutcome(traced, prod, f.w) {
			ph.mismatch++
			ph.product.fail(fmt.Sprintf("op %d: traced composition digest differs from CaptureEncryption+Attack", i))
		}
	}
	ph.spans = rec.snapshot()
	return ph
}

func sameOutcome(a, b *batchOutcome, w batchWorkload) bool {
	a1, a2, err := outcomeDigests(a)
	if err != nil {
		return false
	}
	b1, b2, err := outcomeDigests(b)
	if err != nil {
		return false
	}
	return a1 == b1 && a2 == b2 && a.verdict(w) == b.verdict(w)
}
