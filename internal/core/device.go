package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"reveal/internal/obs"
	"reveal/internal/power"
	"reveal/internal/rv32"
	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// samplerPort is the MMIO device the firmware reads Gaussian samples from.
// Each read pops one queued value and stalls the bus for a data-dependent
// number of wait cycles, reproducing the time-variant behaviour of the
// soft-float distribution code (§III-C: "the distribution function shows
// time-variant execution behavior").
type samplerPort struct {
	values []int64
	waits  []int
	next   int
	reads  int
}

func (p *samplerPort) Read(offset uint32) (uint32, int) {
	p.reads++
	if p.next >= len(p.values) {
		return 0, 0
	}
	v := p.values[p.next]
	w := p.waits[p.next]
	p.next++
	return uint32(int32(v)), w
}

func (p *samplerPort) Write(uint32, uint32) int { return 0 }

// Device bundles the simulated measurement target: the RV32 core, the
// leakage model, and the port timing behaviour.
type Device struct {
	// Model is the power model; the port spike location is overridden to
	// the sampler port region automatically.
	Model *power.Model
	// WaitBase and WaitPerRejection set the port latency:
	// wait = WaitBase + WaitPerRejection · rejections.
	WaitBase, WaitPerRejection int
	// MemSize is the RAM size of the core.
	MemSize int
	// NoiseSeed seeds the measurement-noise PRNG; successive runs advance
	// an internal counter so repeated captures differ like real traces.
	NoiseSeed uint64
	// TriggerJitter prepends up to this many noise-floor samples per
	// capture, modeling oscilloscope trigger uncertainty. The paper's
	// peak-based segmentation (§III-C) is invariant to it; naive
	// fixed-offset windowing is not.
	TriggerJitter int

	runCounter uint64
}

// NewDevice returns a device with the default profile: the measurement
// conditions that reproduce the partial-accuracy confusion structure of
// Table I.
func NewDevice(seed uint64) *Device {
	m := power.DefaultModel()
	m.PortBase = PortBase
	m.PortSize = 0x100
	return &Device{
		Model:            m,
		WaitBase:         9,
		WaitPerRejection: 7,
		MemSize:          1 << 17,
		NoiseSeed:        seed,
	}
}

// NewLowNoiseDevice returns a device measured under favourable conditions —
// lower acquisition noise and strongly heterogeneous bus lines — under
// which the template attack recovers nearly every coefficient exactly and
// full plaintext recovery from a single trace succeeds (the paper's
// headline claim, demonstrated end to end).
func NewLowNoiseDevice(seed uint64) *Device {
	d := NewDevice(seed)
	d.Model.NoiseSigma = 0.002
	for b := range d.Model.BitWeights {
		z := uint64(b)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 30)) * 0x94d049bb133111eb
		z ^= z >> 31
		frac := float64(z>>11) / (1 << 53)
		d.Model.BitWeights[b] = 1 + 0.9*(frac-0.5)
	}
	return d
}

// Capture runs the given firmware with the given queued noise values and
// returns the power trace. Each call uses fresh measurement noise.
func (d *Device) Capture(firmware []byte, values []int64, metas []sampler.SampleMeta) (trace.Trace, error) {
	sp := obs.StartSpan("capture")
	sp.AddItems(len(values))
	defer sp.End()
	return d.captureWithSetup(firmware, values, metas, nil)
}

// cyclesPerIteration bounds the cycles one sampling-kernel iteration spends
// outside its port wait (33 for the paper kernel, 44 for the branchless
// one), so a capture's trace buffer is allocated once at its final size.
const cyclesPerIteration = 48

// newSamplerPort queues values behind the sampler port with the device's
// data-dependent wait states, and bounds the samples a kernel run renders:
// the summed waits plus cyclesPerIteration per iteration and prologue.
func (d *Device) newSamplerPort(values []int64, metas []sampler.SampleMeta) (port *samplerPort, traceCap int, err error) {
	if len(values) != len(metas) {
		return nil, 0, fmt.Errorf("core: %d values but %d metas", len(values), len(metas))
	}
	port = &samplerPort{values: values, waits: make([]int, len(values))}
	traceCap = cyclesPerIteration * (len(values) + 1)
	for i, m := range metas {
		port.waits[i] = d.WaitBase + d.WaitPerRejection*m.Rejections
		traceCap += port.waits[i]
	}
	return port, traceCap, nil
}

// captureWithSetup additionally lets the caller plant device state (e.g. a
// secret key in RAM) before execution starts, via a word-writer callback.
func (d *Device) captureWithSetup(firmware []byte, values []int64, metas []sampler.SampleMeta,
	setup func(write func(addr, v uint32) error) error) (trace.Trace, error) {
	port, traceCap, err := d.newSamplerPort(values, metas)
	if err != nil {
		return nil, err
	}
	// Budget: each coefficient costs ~10 instructions; 64 is generous slack.
	samples, err := d.captureRegions(firmware, []mmioRegionSpec{{base: PortBase, size: 0x100, handler: port}},
		setup, 64*(len(values)+4), traceCap+d.TriggerJitter)
	if err != nil {
		return nil, err
	}
	if port.reads != len(port.values) {
		return nil, fmt.Errorf("core: firmware performed %d port reads for %d queued samples",
			port.reads, len(port.values))
	}
	if d.TriggerJitter > 0 {
		jitterPRNG := sampler.NewXoshiro256(d.NoiseSeed ^ d.runCounter ^ 0x5151)
		shift := int(sampler.Uint64Below(jitterPRNG, uint64(d.TriggerJitter+1)))
		if shift > 0 {
			// Shift the trace right in its own buffer, which was sized
			// for the jitter, and fill the prefix with noise floor.
			floor := samples.Mean()
			samples = append(samples, make(trace.Trace, shift)...)
			copy(samples[shift:], samples)
			for i := 0; i < shift; i++ {
				n, _ := sampler.NormFloat64(jitterPRNG)
				samples[i] = floor + n*d.Model.NoiseSigma
			}
		}
	}
	return samples, nil
}

// StoredPoly reads back the polynomial residues the firmware wrote (ground
// truth for tests).
func (d *Device) StoredPoly(firmware []byte, values []int64, metas []sampler.SampleMeta) ([]uint32, error) {
	port := &samplerPort{values: values, waits: make([]int, len(values))}
	cpu := rv32.NewCPU(d.MemSize)
	cpu.MapMMIO(PortBase, 0x100, port)
	if err := cpu.Load(firmware, 0); err != nil {
		return nil, err
	}
	if _, err := cpu.Run(64 * (len(values) + 4)); err != nil {
		return nil, err
	}
	if int(PolyBase)+4*len(values) > len(cpu.Mem) {
		return nil, fmt.Errorf("core: %d stored words exceed device memory", len(values))
	}
	out := make([]uint32, len(values))
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(cpu.Mem[PolyBase+uint32(4*i):])
	}
	return out, nil
}

// SegmentCapture captures a trace and cuts it into the per-coefficient
// sub-traces using the port-spike peaks, returning exactly len(values)
// segments. The segments are views into the returned trace.
func (d *Device) SegmentCapture(firmware []byte, values []int64, metas []sampler.SampleMeta) (trace.Trace, []trace.Segment, error) {
	tr, err := d.Capture(firmware, values, metas)
	if err != nil {
		return nil, nil, err
	}
	segs, err := segmentTrace(context.Background(), trace.NewSegmenter(len(values)), tr, len(values))
	if err != nil {
		return nil, nil, err
	}
	return tr, segs, nil
}

// segmentTrace cuts tr into want per-coefficient segments (§III-C, minimum
// peak spacing 8) inside a "segment" span. The segments are views into tr,
// held in sg's reused slice until its next call.
func segmentTrace(ctx context.Context, sg *trace.Segmenter, tr trace.Trace, want int) ([]trace.Segment, error) {
	sp := obs.StartSpanCtx(ctx, "segment")
	defer sp.End()
	segs, err := sg.Segment(tr, want, 8)
	if err != nil {
		return nil, err
	}
	sp.AddItems(len(segs))
	return segs, nil
}

// mmioRegionSpec describes one device region for captureRegions.
type mmioRegionSpec struct {
	base, size uint32
	handler    rv32.MMIOHandler
}

// captureRegions runs firmware with caller-provided MMIO regions (for
// kernels with custom port layouts, e.g. the masked variant) after setup,
// when non-nil, has planted device state, for at most budget instructions.
// traceCap presizes the trace buffer. The caller is responsible for
// consumption checks.
func (d *Device) captureRegions(firmware []byte, regions []mmioRegionSpec,
	setup func(write func(addr, v uint32) error) error, budget, traceCap int) (trace.Trace, error) {
	cpu := rv32.NewCPU(d.MemSize)
	for _, r := range regions {
		cpu.MapMMIO(r.base, r.size, r.handler)
	}
	if err := cpu.Load(firmware, 0); err != nil {
		return nil, err
	}
	if setup != nil {
		if err := setup(cpu.WriteWord); err != nil {
			return nil, err
		}
	}
	d.runCounter++
	syn, err := power.NewSynthesizer(d.Model, sampler.NewXoshiro256(d.NoiseSeed^(d.runCounter*0x9e3779b97f4a7c15)), traceCap)
	if err != nil {
		return nil, err
	}
	cpu.OnEvent = syn.HandleEvent
	if _, err := cpu.Run(budget); err != nil {
		return nil, fmt.Errorf("core: firmware run: %w", err)
	}
	return trace.Trace(syn.Samples()), nil
}

// SyntheticMetas draws realistic rejection-count metadata (the timing side
// of the distribution call) without constraining the values, used when the
// profiler pins coefficient values.
func SyntheticMetas(prng sampler.PRNG, cn *sampler.ClippedNormal, n int) []sampler.SampleMeta {
	metas := make([]sampler.SampleMeta, n)
	for i := range metas {
		_, m := cn.Sample(prng)
		metas[i] = m
	}
	return metas
}

// Perturb returns a copy of the device with manufacturing-variation noise
// applied to its leakage coefficients: every bit-line weight and class
// base cost is scaled by 1 ± spread. Profiling on one device and attacking
// its perturbed sibling models the paper's §V-B cross-device caveat
// ("cross-device attacks may need a more complicated, machine-learning-
// based profiling").
func (d *Device) Perturb(seed uint64, spread float64) *Device {
	out := NewDevice(d.NoiseSeed ^ seed)
	*out.Model = *d.Model
	out.Model.Base = make(map[rv32.Class]float64, len(d.Model.Base))
	out.WaitBase = d.WaitBase
	out.WaitPerRejection = d.WaitPerRejection
	out.MemSize = d.MemSize
	out.TriggerJitter = d.TriggerJitter

	prng := sampler.NewXoshiro256(seed)
	jitter := func() float64 {
		return 1 + spread*(2*sampler.Float64(prng)-1)
	}
	// One draw per class in ascending class order, not map order, so the
	// sibling is a function of (device, seed).
	classes := make([]rv32.Class, 0, len(d.Model.Base))
	for c := range d.Model.Base {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		out.Model.Base[c] = d.Model.Base[c] * jitter()
	}
	for b := range out.Model.BitWeights {
		out.Model.BitWeights[b] = d.Model.BitWeights[b] * jitter()
	}
	out.Model.AlphaHWData = d.Model.AlphaHWData * jitter()
	out.Model.BetaHDReg = d.Model.BetaHDReg * jitter()
	out.Model.DeltaHDBus = d.Model.DeltaHDBus * jitter()
	return out
}

// runMaskedForTest executes the masked kernel and returns the CPU so tests
// can inspect the written shares.
func (d *Device) runMaskedForTest(firmware []byte, values []int64, q uint64, maskSeed uint64) (*rv32.CPU, error) {
	cpu := rv32.NewCPU(d.MemSize)
	cpu.MapMMIO(PortBase, 0x100, &samplerPort{values: values, waits: make([]int, len(values))})
	cpu.MapMMIO(MaskPortBase, 0x100, &maskPort{q: q, prng: sampler.NewXoshiro256(maskSeed)})
	if err := cpu.Load(firmware, 0); err != nil {
		return nil, err
	}
	if _, err := cpu.Run(96 * (len(values) + 4)); err != nil {
		return nil, err
	}
	return cpu, nil
}
