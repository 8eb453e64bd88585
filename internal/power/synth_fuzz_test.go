package power_test

import (
	"encoding/binary"
	"math"
	"testing"

	"reveal/internal/power"
	"reveal/internal/rv32"
	"reveal/internal/sampler"
	"reveal/internal/testkit"
)

// eventBytes is how much of the fuzz stream one event consumes.
const eventBytes = 24

// fuzzEvents decodes stream into events: op, cycle count, flags and an
// address selector, then five data words. The selector puts a memory
// access in low RAM, inside the port window, just past it or just below it.
func fuzzEvents(stream []byte, m *power.Model) []rv32.Event {
	var events []rv32.Event
	for ; len(stream) >= eventBytes; stream = stream[eventBytes:] {
		b := stream[:eventBytes]
		word := func(i int) uint32 { return binary.LittleEndian.Uint32(b[4+4*i:]) }
		e := rv32.Event{
			Instr:     rv32.Instr{Op: rv32.Op(int(b[0]) % int(rv32.OpEBREAK+1)), Raw: word(0)},
			Cycles:    int(b[1] % 48),
			RegWrite:  b[2]&1 != 0,
			MemAccess: b[2]&2 != 0,
			MemWrite:  b[2]&4 != 0,
			RegOld:    word(1),
			RegNew:    word(2),
			MemValue:  word(3),
			MemOld:    word(4),
		}
		off := uint32(b[3])
		switch b[2] >> 3 & 3 {
		case 0:
			e.MemAddr = off << 4
		case 1:
			if m.PortSize > 0 {
				off %= m.PortSize
			}
			e.MemAddr = m.PortBase + off
		case 2:
			e.MemAddr = m.PortBase + m.PortSize + off
		case 3:
			e.MemAddr = m.PortBase - 1 - off
		}
		events = append(events, e)
	}
	return events
}

// requireSameBits feeds events to the synthesizer and to the reference,
// both drawing noise from the same seed, and requires bit-identical traces.
func requireSameBits(t *testing.T, m *power.Model, seed uint64, events []rv32.Event) {
	t.Helper()
	syn, err := power.NewSynthesizer(m, sampler.NewXoshiro256(seed), 0)
	if err != nil {
		if m.Validate() == nil {
			t.Fatalf("NewSynthesizer rejected a valid model: %v", err)
		}
		return
	}
	ref := testkit.NewRefSynthesizer(m, sampler.NewXoshiro256(seed))
	for _, e := range events {
		syn.HandleEvent(e)
		ref.HandleEvent(e)
	}
	got, want := syn.Samples(), ref.Samples()
	if len(got) != len(want) {
		t.Fatalf("%d samples, reference has %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sample %d = %v (%#x), reference %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// FuzzSynthesizer checks the synthesizer against the per-event reference
// on fuzzed event streams. drop removes one Base class per set bit, so a
// class with no cost must read 0 as the map does; flags bit 0 zeroes the
// bit weights (uniform), bit 1 adds Base entries for classes no op has,
// and bit 2 empties the port window.
func FuzzSynthesizer(f *testing.F) {
	stream := make([]byte, 8*eventBytes)
	for i := range stream {
		stream[i] = byte(i*37 + 11)
	}
	f.Add(uint64(1), 0.015, uint8(0), uint8(0), stream)
	f.Add(uint64(2), 0.0, uint8(0x81), uint8(1), stream)
	f.Add(uint64(3), 0.5, uint8(0xfe), uint8(2), stream)
	f.Add(uint64(4), 0.002, uint8(0x10), uint8(7), stream[:3*eventBytes])
	f.Add(uint64(5), -1.0, uint8(0), uint8(0), stream)
	f.Add(uint64(6), 0.015, uint8(0xff), uint8(0), stream)
	f.Fuzz(func(t *testing.T, seed uint64, sigma float64, drop, flags uint8, stream []byte) {
		if len(stream) > 256*eventBytes {
			stream = stream[:256*eventBytes]
		}
		m := power.DefaultModel()
		m.NoiseSigma = sigma
		for c := rv32.Class(0); c < rv32.NumClasses; c++ {
			if drop&(1<<c) != 0 {
				delete(m.Base, c)
			}
		}
		if flags&1 != 0 {
			m.BitWeights = [32]float64{}
		}
		if flags&2 != 0 {
			m.Base[rv32.Class(-1)] = 7
			m.Base[rv32.NumClasses] = 9
		}
		if flags&4 != 0 {
			m.PortSize = 0
		}
		requireSameBits(t, m, seed, fuzzEvents(stream, m))
	})
}

// TestSynthesizerMatchesReferenceOnKernel runs a sampling-loop program with
// port waits on the ISS and requires the synthesizer and the reference to
// render identical bits from its real event stream, for the default and
// the uniform-weight model.
func TestSynthesizerMatchesReferenceOnKernel(t *testing.T) {
	img, _, err := rv32.Assemble(`
		li   s0, 0x8000
		li   s1, 0x1000
		li   t0, 64
	loop:
		lw   t1, 0(s0)
		mul  t2, t1, t1
		sw   t2, 0(s1)
		addi s1, s1, 4
		addi t0, t0, -1
		bnez t0, loop
		ebreak
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := rv32.NewCPU(1 << 16)
	cpu.MapMMIO(0x8000, 0x100, &countingPort{})
	if err := cpu.Load(img, 0); err != nil {
		t.Fatal(err)
	}
	var events []rv32.Event
	cpu.OnEvent = func(e rv32.Event) { events = append(events, e) }
	if _, err := cpu.Run(10000); err != nil {
		t.Fatal(err)
	}
	m := power.DefaultModel()
	m.PortBase, m.PortSize = 0x8000, 0x100
	requireSameBits(t, m, 11, events)
	m.BitWeights = [32]float64{}
	requireSameBits(t, m, 12, events)
}

// countingPort returns successive values with a value-dependent wait.
type countingPort struct{ n uint32 }

func (p *countingPort) Read(uint32) (uint32, int) {
	p.n++
	return p.n * 2654435761, int(p.n % 5)
}

func (p *countingPort) Write(uint32, uint32) int { return 0 }
