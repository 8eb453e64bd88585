package core

import (
	"reflect"
	"runtime"
	"testing"

	"reveal/internal/bfv"
	"reveal/internal/rv32"
	"reveal/internal/sampler"
)

// TestPerturbDeterministic: a sibling device is a function of the device
// and the seed. Jitter is drawn per class in ascending class order, not in
// map order, and the trigger jitter carries over.
func TestPerturbDeterministic(t *testing.T) {
	dev := NewDevice(1)
	dev.TriggerJitter = 17
	first := dev.Perturb(7, 0.25)
	for i := 0; i < 20; i++ {
		if got := dev.Perturb(7, 0.25); !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d: Perturb(7, 0.25) gave Base %v, first call %v", i+2, got.Model.Base, first.Model.Base)
		}
	}
	if first.TriggerJitter != dev.TriggerJitter {
		t.Errorf("sibling TriggerJitter = %d, want %d", first.TriggerJitter, dev.TriggerJitter)
	}
	// The first draw scales the lowest class.
	want := dev.Model.Base[rv32.ClassALU] * (1 + 0.25*(2*sampler.Float64(sampler.NewXoshiro256(7))-1))
	if got := first.Model.Base[rv32.ClassALU]; got != want {
		t.Errorf("Base[ClassALU] = %v, want %v from the first draw", got, want)
	}
}

// TestCaptureAllocations bounds the heap one 1025-coefficient capture
// allocates: the CPU's RAM plus at most twice the trace's own bytes. The
// ISS and the synthesizer allocate nothing per instruction, and the trace
// buffer is allocated once at its final size rather than grown.
func TestCaptureAllocations(t *testing.T) {
	const n = 1025
	src, err := FirmwareSource(n, bfv.PaperQ)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := AssembleFirmware(src)
	if err != nil {
		t.Fatal(err)
	}
	values, metas := sampler.DefaultClippedNormal().SamplePoly(sampler.NewXoshiro256(81), n)
	dev := NewDevice(81)
	tr, err := dev.Capture(fw, values, metas) // warm up lazily built state
	if err != nil {
		t.Fatal(err)
	}
	limit := uint64(2*8*len(tr) + dev.MemSize)
	// Other goroutines can allocate during a round, so the best of three
	// rounds is what the capture itself costs.
	const captures = 3
	var best uint64
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < captures; i++ {
			if _, err := dev.Capture(fw, values, metas); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / captures; round == 0 || per < best {
			best = per
		}
	}
	if best > limit {
		t.Errorf("a capture of %d samples allocates %d bytes, want <= %d (2 x 8 B x samples + %d B RAM)",
			len(tr), best, limit, dev.MemSize)
	}
}
