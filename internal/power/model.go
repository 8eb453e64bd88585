// Package power turns rv32 execution events into synthetic side-channel
// traces using the standard CMOS leakage model: instantaneous power is a
// per-instruction-class base cost plus terms proportional to the Hamming
// weight of the data being written (V2/V3 of the paper), the Hamming
// distance of register updates, and the Hamming weight of the instruction
// word (which makes different branch bodies distinguishable — V1), plus
// Gaussian measurement noise. It substitutes for the SAKURA-G shunt
// resistor + oscilloscope of the paper's experimental setup.
package power

import (
	"fmt"
	"math/bits"

	"reveal/internal/rv32"
	"reveal/internal/sampler"
)

// Model holds the leakage coefficients of a simulated device.
type Model struct {
	// Base is the per-cycle static power for each instruction class.
	Base map[rv32.Class]float64
	// AlphaHWData scales the Hamming weight of the data value written to
	// memory or to a register (the "second vulnerability": value stores).
	AlphaHWData float64
	// BetaHDReg scales the Hamming distance between old and new contents
	// of the destination register.
	BetaHDReg float64
	// GammaHWInstr scales the Hamming weight of the executing instruction
	// word, making distinct code paths distinguishable (V1).
	GammaHWInstr float64
	// DeltaHDBus scales the Hamming distance on memory writes (old vs new
	// memory word), the term the negation store leaks through (V3).
	DeltaHDBus float64
	// NoiseSigma is the standard deviation of the additive Gaussian
	// measurement noise per sample.
	NoiseSigma float64
	// BitWeights are per-bit-line contributions to the data-dependent
	// terms: real buses have unequal line capacitances, which is what lets
	// a template attack separate values of equal Hamming weight. A zero
	// value means "uniform weights".
	BitWeights [32]float64
	// PortBase, PortSize delimit a memory-mapped region whose accesses
	// draw a large spike (the Gaussian-sampler port; reproduces the
	// distinctive peaks of Fig. 3a the attacker segments by).
	PortBase, PortSize uint32
	// PortSpike is the extra power on a port access.
	PortSpike float64
}

// DefaultModel returns the device profile used throughout the reproduction.
// The coefficients are arbitrary but fixed: the attack never uses them
// directly, it learns templates from profiling traces like the paper does.
func DefaultModel() *Model {
	m := &Model{
		Base: map[rv32.Class]float64{
			rv32.ClassALU:    1.00,
			rv32.ClassALUImm: 0.95,
			rv32.ClassBranch: 1.20,
			rv32.ClassJump:   1.30,
			rv32.ClassLoad:   1.60,
			rv32.ClassStore:  1.75,
			rv32.ClassMulDiv: 2.10,
			rv32.ClassSystem: 0.90,
		},
		AlphaHWData:  0.085,
		BetaHDReg:    0.018,
		GammaHWInstr: 0.020,
		DeltaHDBus:   0.060,
		NoiseSigma:   0.015,
		PortBase:     0xffff0000,
		PortSize:     0x100,
		PortSpike:    10.0,
	}
	// Deterministic ±18% spread across bit lines (SplitMix64 of the bit
	// index), fixed per device like physical line capacitances are.
	for b := range m.BitWeights {
		z := uint64(b)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 30)) * 0x94d049bb133111eb
		z ^= z >> 31
		frac := float64(z>>11) / (1 << 53) // [0,1)
		m.BitWeights[b] = 1 + 0.36*(frac-0.5)
	}
	return m
}

// Validate reports configuration errors.
func (m *Model) Validate() error {
	if m.NoiseSigma < 0 {
		return fmt.Errorf("power: negative noise sigma %v", m.NoiseSigma)
	}
	if len(m.Base) == 0 {
		return fmt.Errorf("power: no base costs configured")
	}
	return nil
}

// Synthesizer renders the events of a CPU run into a power trace.
type Synthesizer struct {
	model *Model
	prng  sampler.PRNG

	// base is model.Base by class (an absent class reads 0, as from the
	// map), and uniform records that every BitWeights entry is 0; both
	// are fixed for the synthesizer's lifetime.
	base    [rv32.NumClasses]float64
	uniform bool

	samples []float64
}

// NewSynthesizer creates a trace synthesizer with the given noise PRNG.
// capacity presizes the trace buffer in samples; a run that renders more
// grows it.
func NewSynthesizer(model *Model, prng sampler.PRNG, capacity int) (*Synthesizer, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	s := &Synthesizer{model: model, prng: prng, uniform: model.BitWeights == [32]float64{},
		samples: make([]float64, 0, capacity)}
	for c, v := range model.Base {
		if c >= 0 && c < rv32.NumClasses {
			s.base[c] = v
		}
	}
	return s, nil
}

// weightedHW returns the bit-weighted Hamming weight of v.
func (s *Synthesizer) weightedHW(v uint32) float64 {
	if s.uniform {
		return float64(bits.OnesCount32(v))
	}
	sum := 0.0
	for b := 0; v != 0; b++ {
		if v&1 == 1 {
			sum += s.model.BitWeights[b]
		}
		v >>= 1
	}
	return sum
}

// HandleEvent renders one event into power samples; wire it to
// rv32.CPU.OnEvent.
func (s *Synthesizer) HandleEvent(e rv32.Event) {
	m := s.model
	base := s.base[e.Instr.Op.Class()]
	instrHW := float64(bits.OnesCount32(e.Instr.Raw)) * m.GammaHWInstr

	isPort := e.MemAccess && e.MemAddr >= m.PortBase && e.MemAddr < m.PortBase+m.PortSize

	for c := 0; c < e.Cycles; c++ {
		p := base + instrHW
		switch {
		case c == e.Cycles-1:
			// Write-back cycle: data-dependent terms.
			if e.RegWrite {
				p += s.weightedHW(e.RegNew) * m.AlphaHWData
				p += float64(bits.OnesCount32(e.RegOld^e.RegNew)) * m.BetaHDReg
			}
			if e.MemWrite {
				p += s.weightedHW(e.MemValue) * m.AlphaHWData
				p += s.weightedHW(e.MemOld^e.MemValue) * m.DeltaHDBus
			}
		case c == 0 && isPort:
			p += m.PortSpike
		}
		if isPort && c > 0 && c < e.Cycles-1 {
			// Port wait states burn extra current (sampler logic active),
			// well below the access spike so peak detection stays clean.
			p += m.PortSpike * 0.15
		}
		noise, _ := sampler.NormFloat64(s.prng)
		s.samples = append(s.samples, p+noise*m.NoiseSigma)
	}
}

// Samples returns the rendered power trace (one sample per cycle). It is
// the synthesizer's own buffer, handed over without a copy: take it once
// the run is over, and render no further events into the synthesizer.
func (s *Synthesizer) Samples() []float64 { return s.samples }
