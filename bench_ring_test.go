// Ring benchmarks gated by scripts/bench_gate.sh: the production NTT (and
// the testkit reference NTT for comparison) and the RNS ring product at a
// real ladder parameter set, and the trace-generation path over a wide
// ladder modulus. Each snapshots into
// bench_snapshots/ and is compared against its committed baseline in CI.
package reveal

import (
	"testing"

	"reveal/internal/core"
	"reveal/internal/ring"
	"reveal/internal/sampler"
	"reveal/internal/testkit"
)

// benchLadderCtx builds the n=4096 ladder ring (three-prime chain) — large
// enough that lazy reduction and Barrett dominate, small enough for a
// stable -benchtime 1x CI run.
func benchLadderCtx(b *testing.B) *ring.Context {
	b.Helper()
	ctx, err := ring.NewContextFor(ring.ParamsN4096())
	if err != nil {
		b.Fatal(err)
	}
	return ctx
}

// BenchmarkNTT measures one forward+inverse transform of a full RNS poly
// (n=4096, three primes) on the production Context.
func BenchmarkNTT(b *testing.B) {
	br := snapshotBench(b)
	ctx := benchLadderCtx(b)
	p := testkit.NewRNG(61).Poly(ctx)
	coeffs := float64(ctx.N * ctx.Level())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.NTT(p)
		ctx.INTT(p)
	}
	br.Metric(coeffs, "coeffs_per_op")
}

// BenchmarkNTTReference is the testkit strict-reduction oracle on the same
// workload — the committed baselines document the production speedup.
func BenchmarkNTTReference(b *testing.B) {
	br := snapshotBench(b)
	ctx := benchLadderCtx(b)
	ref, err := testkit.NewRefNTT(ctx.N, ctx.Moduli)
	if err != nil {
		b.Fatal(err)
	}
	p := testkit.NewRNG(61).Poly(ctx)
	coeffs := float64(ctx.N * ctx.Level())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range p.Coeffs {
			ref.NTT(j, p.Coeffs[j])
			ref.INTT(j, p.Coeffs[j])
		}
	}
	br.Metric(coeffs, "coeffs_per_op")
}

// BenchmarkRNSMul measures a full ring product (two forward NTTs, Barrett
// pointwise multiply, one inverse) at n=4096.
func BenchmarkRNSMul(b *testing.B) {
	br := snapshotBench(b)
	ctx := benchLadderCtx(b)
	r := testkit.NewRNG(62)
	x, y := r.Poly(ctx), r.Poly(ctx)
	out := ctx.NewPoly()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.MulPoly(x, y, out)
	}
	br.Metric(float64(ctx.N*ctx.Level()), "coeffs_per_op")
}

// BenchmarkTracegen measures the RV32 capture path over a wide (54-bit)
// ladder modulus reduced through FirmwareModulus — the per-trace cost a
// ladder campaign pays at the device layer.
func BenchmarkTracegen(b *testing.B) {
	br := snapshotBench(b)
	const coeffs = 64
	q := ring.ParamsN2048().Moduli[0]
	src, err := core.FirmwareSource(coeffs, core.FirmwareModulus(q))
	if err != nil {
		b.Fatal(err)
	}
	fw, err := core.AssembleFirmware(src)
	if err != nil {
		b.Fatal(err)
	}
	dev := core.NewDevice(63)
	cn := sampler.DefaultClippedNormal()
	values, metas := cn.SamplePoly(sampler.NewXoshiro256(64), coeffs)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		tr, err := dev.Capture(fw, values, metas)
		if err != nil {
			b.Fatal(err)
		}
		n = len(tr)
	}
	br.Metric(float64(n), "samples")
}
