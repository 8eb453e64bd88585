package power

import (
	"math"
	"testing"

	"reveal/internal/rv32"
	"reveal/internal/sampler"
)

// run is one rendered program: its trace and its executed events.
type run struct {
	samples []float64
	events  []rv32.Event
}

// runProgram renders src's trace and records its events through its own
// OnEvent wrapper.
func runProgram(t *testing.T, src string, model *Model, seed uint64) run {
	t.Helper()
	img, _, err := rv32.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := rv32.NewCPU(1 << 16)
	if err := cpu.Load(img, 0); err != nil {
		t.Fatal(err)
	}
	syn, err := NewSynthesizer(model, sampler.NewXoshiro256(seed), 0)
	if err != nil {
		t.Fatal(err)
	}
	var events []rv32.Event
	cpu.OnEvent = func(e rv32.Event) {
		events = append(events, e)
		syn.HandleEvent(e)
	}
	if _, err := cpu.Run(10000); err != nil {
		t.Fatal(err)
	}
	return run{syn.Samples(), events}
}

// storeWriteBack returns the last sample of the first store event: one
// sample per cycle, so an event's samples start at its Cycle.
func (r run) storeWriteBack(t *testing.T) float64 {
	t.Helper()
	for _, e := range r.events {
		if e.MemWrite {
			return r.samples[int(e.Cycle)+e.Cycles-1]
		}
	}
	t.Fatal("no store event")
	return 0
}

func TestValidate(t *testing.T) {
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.NoiseSigma = -1
	if err := m.Validate(); err == nil {
		t.Error("negative sigma should fail")
	}
	if err := (&Model{}).Validate(); err == nil {
		t.Error("empty base map should fail")
	}
	if _, err := NewSynthesizer(&Model{}, sampler.NewXoshiro256(0), 0); err == nil {
		t.Error("NewSynthesizer must validate")
	}
}

func TestTraceLengthMatchesCycles(t *testing.T) {
	r := runProgram(t, `
		li  t0, 5
		add t1, t0, t0
		ebreak
	`, DefaultModel(), 1)
	total := 0
	for _, e := range r.events {
		if int(e.Cycle) != total {
			t.Errorf("event at %#x starts at cycle %d, previous events total %d", e.PC, e.Cycle, total)
		}
		total += e.Cycles
	}
	if len(r.samples) != total {
		t.Errorf("trace has %d samples, events total %d cycles", len(r.samples), total)
	}
}

// Higher Hamming weight in a stored value must raise the write-back sample.
func TestHammingWeightLeakage(t *testing.T) {
	m := DefaultModel()
	m.NoiseSigma = 0             // deterministic for this test
	m.BitWeights = [32]float64{} // uniform weights for the exact check
	low := runProgram(t, `
		li t0, 0x1000
		li t1, 1          # HW 1
		sw t1, 0(t0)
		ebreak
	`, m, 2).storeWriteBack(t)
	high := runProgram(t, `
		li t0, 0x1000
		li t1, 0xff       # HW 8
		sw t1, 0(t0)
		ebreak
	`, m, 2).storeWriteBack(t)
	if high <= low {
		t.Errorf("HW leakage inverted: HW8 store %v <= HW1 store %v", high, low)
	}
	// Difference should be ≈ 7·(alpha + deltaBus) since old memory was 0.
	want := 7 * (m.AlphaHWData + m.DeltaHDBus)
	if math.Abs((high-low)-want) > 1e-9 {
		t.Errorf("HW delta %v want %v", high-low, want)
	}
}

func TestPortSpikeVisible(t *testing.T) {
	m := DefaultModel()
	m.PortBase = 0x8000
	m.PortSize = 0x100
	src := `
		li t0, 0x8000
		lw a0, 0(t0)      # port access -> spike
		li t1, 0x1000
		lw a1, 0(t1)      # plain load
		ebreak
	`
	img, _, err := rv32.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := rv32.NewCPU(1 << 16)
	cpu.MapMMIO(0x8000, 0x100, &constDevice{})
	if err := cpu.Load(img, 0); err != nil {
		t.Fatal(err)
	}
	syn, err := NewSynthesizer(m, sampler.NewXoshiro256(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu.OnEvent = syn.HandleEvent
	if _, err := cpu.Run(1000); err != nil {
		t.Fatal(err)
	}
	samples := syn.Samples()
	max := 0.0
	for _, v := range samples {
		if v > max {
			max = v
		}
	}
	if max < m.PortSpike {
		t.Errorf("no visible port spike: max sample %v < spike %v", max, m.PortSpike)
	}
}

type constDevice struct{}

func (d *constDevice) Read(uint32) (uint32, int) { return 7, 2 }
func (d *constDevice) Write(uint32, uint32) int  { return 0 }

// Different code paths (branch bodies) must produce different deterministic
// power shapes — the V1 leakage.
func TestControlFlowDistinguishable(t *testing.T) {
	m := DefaultModel()
	m.NoiseSigma = 0
	a := runProgram(t, `
		li   a0, 5
		blt  zero, a0, positive
		j    done
	positive:
		mv   a1, a0
	done:
		ebreak
	`, m, 4).samples
	b := runProgram(t, `
		li   a0, -5
		blt  zero, a0, positive
		j    done
	positive:
		mv   a1, a0
	done:
		ebreak
	`, m, 4).samples
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different branches produced identical traces")
		}
	}
}

func TestNoiseStatistics(t *testing.T) {
	m := DefaultModel()
	m.NoiseSigma = 0.5
	// A long run of identical instructions: variance of samples ≈ σ².
	samples := runProgram(t, `
		li t0, 1000
	loop:
		addi t0, t0, -1
		bnez t0, loop
		ebreak
	`, m, 6).samples
	// Use only addi write-back samples? Simpler: overall variance is
	// dominated by class/HW structure; instead compare same-position
	// samples across iterations. Take every 7th sample (addi=3 + taken
	// bnez=4 cycles per iteration).
	var vals []float64
	for i := 20; i+7 < len(samples)-20; i += 7 {
		vals = append(vals, samples[i])
	}
	if len(vals) < 500 {
		t.Fatalf("not enough periodic samples: %d", len(vals))
	}
	var mean, varSum float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		varSum += (v - mean) * (v - mean)
	}
	variance := varSum / float64(len(vals))
	// The periodic samples differ slightly in data HW (counter value), so
	// allow generous bounds around σ² = 0.25.
	if variance < 0.1 || variance > 0.6 {
		t.Errorf("sample variance %v implausible for sigma 0.5", variance)
	}
}

// Unequal bit weights must separate equal-HW values — the property that
// lets templates distinguish coefficients 1, 2 and 4.
func TestBitWeightedLeakageSeparatesEqualHW(t *testing.T) {
	m := DefaultModel()
	m.NoiseSigma = 0
	storeSample := func(value string) float64 {
		return runProgram(t, `
		li t0, 0x1000
		li t1, `+value+`
		sw t1, 0(t0)
		ebreak
	`, m, 20).storeWriteBack(t)
	}
	v1, v2, v4 := storeSample("1"), storeSample("2"), storeSample("4")
	if v1 == v2 || v2 == v4 || v1 == v4 {
		t.Errorf("equal-HW values not separated: %v %v %v", v1, v2, v4)
	}
}
