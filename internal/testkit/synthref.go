package testkit

import (
	"math/bits"

	"reveal/internal/power"
	"reveal/internal/rv32"
	"reveal/internal/sampler"
)

// This file holds the reference the trace synthesizer in internal/power is
// differentially tested against: each event rendered straight from the
// model, as the synthesizer did before it precomputed anything. Every
// event looks its class cost up in Model.Base, and every Hamming weight
// rescans BitWeights to decide whether the weights are uniform. The
// production synthesizer must reproduce it bit for bit, noise draws
// included.

// RefSynthesizer renders rv32 events into a power trace the reference way.
type RefSynthesizer struct {
	m       *power.Model
	prng    sampler.PRNG
	samples []float64
}

// NewRefSynthesizer returns a reference synthesizer drawing its noise from
// prng. It does not validate m.
func NewRefSynthesizer(m *power.Model, prng sampler.PRNG) *RefSynthesizer {
	return &RefSynthesizer{m: m, prng: prng}
}

// refWeightedHW is the bit-weighted Hamming weight of v; all-zero weights
// mean uniform ones.
func refWeightedHW(m *power.Model, v uint32) float64 {
	uniform := true
	for _, w := range m.BitWeights {
		if w != 0 {
			uniform = false
			break
		}
	}
	if uniform {
		return float64(bits.OnesCount32(v))
	}
	sum := 0.0
	for b := 0; v != 0; b++ {
		if v&1 == 1 {
			sum += m.BitWeights[b]
		}
		v >>= 1
	}
	return sum
}

// HandleEvent renders one event: a sample per cycle, with the port spike
// on the first cycle of a port access, the wait-state current on its
// middle cycles and the data terms on the write-back cycle.
func (s *RefSynthesizer) HandleEvent(e rv32.Event) {
	m := s.m
	base := m.Base[e.Instr.Op.Class()]
	instrHW := float64(bits.OnesCount32(e.Instr.Raw)) * m.GammaHWInstr
	isPort := e.MemAccess && e.MemAddr >= m.PortBase && e.MemAddr < m.PortBase+m.PortSize
	for c := 0; c < e.Cycles; c++ {
		p := base + instrHW
		switch {
		case c == e.Cycles-1:
			if e.RegWrite {
				p += refWeightedHW(m, e.RegNew) * m.AlphaHWData
				p += float64(bits.OnesCount32(e.RegOld^e.RegNew)) * m.BetaHDReg
			}
			if e.MemWrite {
				p += refWeightedHW(m, e.MemValue) * m.AlphaHWData
				p += refWeightedHW(m, e.MemOld^e.MemValue) * m.DeltaHDBus
			}
		case c == 0 && isPort:
			p += m.PortSpike
		}
		if isPort && c > 0 && c < e.Cycles-1 {
			p += m.PortSpike * 0.15
		}
		noise, _ := sampler.NormFloat64(s.prng)
		s.samples = append(s.samples, p+noise*m.NoiseSigma)
	}
}

// Samples returns the rendered trace.
func (s *RefSynthesizer) Samples() []float64 { return s.samples }
