package rv32

import (
	"strings"
	"testing"
)

func assembleRun(t *testing.T, src string, maxInstrs int) *CPU {
	t.Helper()
	img, _, err := Assemble(src, 0)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cpu := NewCPU(1 << 16)
	if err := cpu.Load(img, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(maxInstrs); err != nil {
		t.Fatalf("run: %v", err)
	}
	return cpu
}

func TestArithmeticProgram(t *testing.T) {
	cpu := assembleRun(t, `
		li   a0, 7
		li   a1, 5
		add  a2, a0, a1     # 12
		sub  a3, a0, a1     # 2
		mul  a4, a0, a1     # 35
		div  a5, a0, a1     # 1
		rem  a6, a0, a1     # 2
		ebreak
	`, 100)
	want := map[int]uint32{12: 12, 13: 2, 14: 35, 15: 1, 16: 2}
	for reg, v := range want {
		if cpu.Regs[reg] != v {
			t.Errorf("x%d = %d want %d", reg, cpu.Regs[reg], v)
		}
	}
}

func TestLiLargeConstant(t *testing.T) {
	cpu := assembleRun(t, `
		li a0, 132120577
		li a1, -42
		li a2, 0x7fffffff
		li a3, 2047
		li a4, -2048
		ebreak
	`, 100)
	if cpu.Regs[10] != 132120577 {
		t.Errorf("a0=%d want 132120577", cpu.Regs[10])
	}
	if int32(cpu.Regs[11]) != -42 {
		t.Errorf("a1=%d want -42", int32(cpu.Regs[11]))
	}
	if cpu.Regs[12] != 0x7fffffff {
		t.Errorf("a2=%#x", cpu.Regs[12])
	}
	if cpu.Regs[13] != 2047 || int32(cpu.Regs[14]) != -2048 {
		t.Error("12-bit edge immediates wrong")
	}
}

func TestBranchesAndLoops(t *testing.T) {
	// Sum 1..10 with a loop.
	cpu := assembleRun(t, `
		li   a0, 0      # sum
		li   a1, 1      # i
		li   a2, 10
	loop:
		add  a0, a0, a1
		addi a1, a1, 1
		bge  a2, a1, loop
		ebreak
	`, 1000)
	if cpu.Regs[10] != 55 {
		t.Errorf("sum=%d want 55", cpu.Regs[10])
	}
}

func TestAllBranchKinds(t *testing.T) {
	cpu := assembleRun(t, `
		li t0, 5
		li t1, -3
		li a0, 0
		beq  t0, t0, L1
		ebreak
	L1:	addi a0, a0, 1
		bne  t0, t1, L2
		ebreak
	L2:	addi a0, a0, 1
		blt  t1, t0, L3      # signed: -3 < 5
		ebreak
	L3:	addi a0, a0, 1
		bge  t0, t1, L4
		ebreak
	L4:	addi a0, a0, 1
		bltu t0, t1, L5      # unsigned: 5 < 0xfffffffd
		ebreak
	L5:	addi a0, a0, 1
		bgeu t1, t0, L6
		ebreak
	L6:	addi a0, a0, 1
		ebreak
	`, 1000)
	if cpu.Regs[10] != 6 {
		t.Errorf("passed %d/6 branch checks", cpu.Regs[10])
	}
}

func TestLoadStore(t *testing.T) {
	cpu := assembleRun(t, `
		li   t0, 0x1000
		li   t1, 0x12345678
		sw   t1, 0(t0)
		lw   a0, 0(t0)
		lb   a1, 0(t0)      # 0x78
		lbu  a2, 3(t0)      # 0x12
		lh   a3, 0(t0)      # 0x5678
		lhu  a4, 2(t0)      # 0x1234
		sb   t1, 8(t0)
		lbu  a5, 8(t0)      # 0x78
		sh   t1, 12(t0)
		lhu  a6, 12(t0)     # 0x5678
		ebreak
	`, 100)
	checks := map[int]uint32{
		10: 0x12345678, 11: 0x78, 12: 0x12, 13: 0x5678, 14: 0x1234,
		15: 0x78, 16: 0x5678,
	}
	for reg, v := range checks {
		if cpu.Regs[reg] != v {
			t.Errorf("x%d=%#x want %#x", reg, cpu.Regs[reg], v)
		}
	}
}

func TestSignExtensionLoads(t *testing.T) {
	cpu := assembleRun(t, `
		li  t0, 0x1000
		li  t1, 0xff80
		sw  t1, 0(t0)
		lb  a0, 0(t0)    # 0x80 -> -128
		lh  a1, 0(t0)    # 0xff80 -> -128
		ebreak
	`, 100)
	if int32(cpu.Regs[10]) != -128 {
		t.Errorf("lb sign extension: %d", int32(cpu.Regs[10]))
	}
	if int32(cpu.Regs[11]) != -128 {
		t.Errorf("lh sign extension: %d", int32(cpu.Regs[11]))
	}
}

func TestFunctionCall(t *testing.T) {
	cpu := assembleRun(t, `
		li   a0, 21
		call double
		ebreak
	double:
		add  a0, a0, a0
		ret
	`, 100)
	if cpu.Regs[10] != 42 {
		t.Errorf("a0=%d want 42", cpu.Regs[10])
	}
}

func TestJalAndJalr(t *testing.T) {
	cpu := assembleRun(t, `
		jal  ra, target
		ebreak
	target:
		li   a0, 9
		jr   ra
	`, 100)
	if cpu.Regs[10] != 9 {
		t.Errorf("a0=%d want 9", cpu.Regs[10])
	}
}

func TestShiftsAndLogic(t *testing.T) {
	cpu := assembleRun(t, `
		li   t0, 0xf0
		li   t1, 4
		sll  a0, t0, t1    # 0xf00
		srl  a1, t0, t1    # 0xf
		li   t2, -16
		sra  a2, t2, t1    # -1
		srl  a3, t2, t1    # 0x0ffffff f
		slli a4, t0, 8
		srai a5, t2, 2     # -4
		xor  a6, t0, t0    # 0
		ebreak
	`, 100)
	if cpu.Regs[10] != 0xf00 || cpu.Regs[11] != 0xf {
		t.Error("shift left/right wrong")
	}
	if int32(cpu.Regs[12]) != -1 {
		t.Errorf("sra=%d want -1", int32(cpu.Regs[12]))
	}
	if cpu.Regs[13] != 0x0fffffff {
		t.Errorf("srl of negative=%#x", cpu.Regs[13])
	}
	if cpu.Regs[14] != 0xf000 || int32(cpu.Regs[15]) != -4 || cpu.Regs[16] != 0 {
		t.Error("slli/srai/xor wrong")
	}
}

func TestMulhVariants(t *testing.T) {
	cpu := assembleRun(t, `
		li   t0, -2
		li   t1, 3
		mulh   a0, t0, t1    # high of -6 = -1
		mulhu  a1, t0, t1    # high of (2^32-2)*3
		mulhsu a2, t0, t1    # high of -2 * 3 unsigned rs2 = -1
		ebreak
	`, 100)
	if int32(cpu.Regs[10]) != -1 {
		t.Errorf("mulh=%d", int32(cpu.Regs[10]))
	}
	if cpu.Regs[11] != 2 { // (2^32-2)*3 = 3·2^32 - 6 -> high word 2
		t.Errorf("mulhu=%d want 2", cpu.Regs[11])
	}
	if int32(cpu.Regs[12]) != -1 {
		t.Errorf("mulhsu=%d", int32(cpu.Regs[12]))
	}
}

func TestDivisionEdgeCases(t *testing.T) {
	cpu := assembleRun(t, `
		li   t0, 7
		li   t1, 0
		div  a0, t0, t1      # -1
		divu a1, t0, t1      # 0xffffffff
		rem  a2, t0, t1      # 7
		remu a3, t0, t1      # 7
		li   t2, 0x80000000
		li   t3, -1
		div  a4, t2, t3      # overflow: 0x80000000
		rem  a5, t2, t3      # 0
		ebreak
	`, 100)
	if cpu.Regs[10] != 0xffffffff || cpu.Regs[11] != 0xffffffff {
		t.Error("division by zero wrong")
	}
	if cpu.Regs[12] != 7 || cpu.Regs[13] != 7 {
		t.Error("remainder by zero wrong")
	}
	if cpu.Regs[14] != 0x80000000 || cpu.Regs[15] != 0 {
		t.Error("signed overflow division wrong")
	}
}

func TestX0IsHardwiredZero(t *testing.T) {
	cpu := assembleRun(t, `
		li   x0, 55
		addi x0, x0, 3
		mv   a0, x0
		ebreak
	`, 100)
	if cpu.Regs[10] != 0 || cpu.Regs[0] != 0 {
		t.Error("x0 must stay zero")
	}
}

func TestPseudoInstructions(t *testing.T) {
	cpu := assembleRun(t, `
		li   t0, 10
		mv   a0, t0
		neg  a1, t0
		not  a2, t0
		seqz a3, zero
		snez a4, t0
		nop
		ebreak
	`, 100)
	if cpu.Regs[10] != 10 || int32(cpu.Regs[11]) != -10 || cpu.Regs[12] != ^uint32(10) {
		t.Error("mv/neg/not wrong")
	}
	if cpu.Regs[13] != 1 || cpu.Regs[14] != 1 {
		t.Error("seqz/snez wrong")
	}
}

func TestWordDirectiveAndLa(t *testing.T) {
	img, labels, err := Assemble(`
		la   t0, data
		lw   a0, 0(t0)
		lw   a1, 4(t0)
		ebreak
	data:
		.word 0xdeadbeef, 42
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := labels["data"]; !ok {
		t.Fatal("label data missing")
	}
	cpu := NewCPU(1 << 16)
	if err := cpu.Load(img, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.Regs[10] != 0xdeadbeef || cpu.Regs[11] != 42 {
		t.Errorf("a0=%#x a1=%d", cpu.Regs[10], cpu.Regs[11])
	}
}

func TestAssemblerErrors(t *testing.T) {
	bad := []string{
		"frobnicate a0, a1",
		"addi a0, a1",         // missing arg
		"addi a0, a1, 5000",   // imm out of range
		"lw a0, a1",           // bad memory operand
		"add a0, a1, notareg", // bad register
		"beq a0, a1, nolabel", // unknown label
		"slli a0, a1, 99",     // shift out of range
		"dup: nop\ndup: nop",  // duplicate label
	}
	for _, src := range bad {
		if _, _, err := Assemble(src, 0); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, w := range []uint32{0x00000000, 0xffffffff, 0x0000007f} {
		if _, err := Decode(w); err == nil {
			t.Errorf("Decode(%#x) should fail", w)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	// Assemble each instruction and decode it back.
	cases := []struct {
		src string
		op  Op
	}{
		{"add a0, a1, a2", OpADD}, {"sub s0, s1, s2", OpSUB},
		{"addi t0, t1, -7", OpADDI}, {"lui a0, 0x12345", OpLUI},
		{"lw a0, 8(sp)", OpLW}, {"sw a0, -4(sp)", OpSW},
		{"mul a0, a1, a2", OpMUL}, {"divu a0, a1, a2", OpDIVU},
		{"srai a0, a1, 3", OpSRAI}, {"ebreak", OpEBREAK},
	}
	for _, c := range cases {
		img, _, err := Assemble(c.src, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		word := uint32(img[0]) | uint32(img[1])<<8 | uint32(img[2])<<16 | uint32(img[3])<<24
		in, err := Decode(word)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.src, err)
		}
		if in.Op != c.op {
			t.Errorf("%s decoded to %v want %v", c.src, in.Op, c.op)
		}
	}
}

func TestEventsEmitted(t *testing.T) {
	img, _, err := Assemble(`
		li t0, 0x1000
		li t1, 0xab
		sw t1, 0(t0)
		lw t2, 0(t0)
		ebreak
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := NewCPU(1 << 16)
	if err := cpu.Load(img, 0); err != nil {
		t.Fatal(err)
	}
	var events []Event
	cpu.OnEvent = func(e Event) { events = append(events, e) }
	if _, err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	// li 0x1000 expands to lui+addi, so 6 instructions total.
	if len(events) != 6 {
		t.Fatalf("got %d events want 6", len(events))
	}
	// The store event must carry the value and old memory content.
	var stores, loads int
	for _, e := range events {
		if e.MemWrite {
			stores++
			if e.MemValue != 0xab || e.MemOld != 0 {
				t.Errorf("store event value=%#x old=%#x", e.MemValue, e.MemOld)
			}
		} else if e.MemAccess {
			loads++
			if e.MemValue != 0xab {
				t.Errorf("load event value=%#x", e.MemValue)
			}
		}
		if e.Cycles <= 0 {
			t.Error("event missing cycle cost")
		}
	}
	if stores != 1 || loads != 1 {
		t.Errorf("stores=%d loads=%d", stores, loads)
	}
	// Cycles must be monotonically increasing.
	for i := 1; i < len(events); i++ {
		if events[i].Cycle <= events[i-1].Cycle {
			t.Error("event cycles not increasing")
		}
	}
}

type fakeDevice struct {
	reads, writes int
	lastWrite     uint32
	value         uint32
	wait          int
}

func (d *fakeDevice) Read(offset uint32) (uint32, int) {
	d.reads++
	return d.value + offset, d.wait
}

func (d *fakeDevice) Write(offset uint32, v uint32) int {
	d.writes++
	d.lastWrite = v
	return d.wait
}

func TestMMIO(t *testing.T) {
	img, _, err := Assemble(`
		li t0, 0x8000
		lw a0, 0(t0)
		lw a1, 4(t0)
		li t1, 77
		sw t1, 0(t0)
		ebreak
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := NewCPU(1 << 16)
	dev := &fakeDevice{value: 1000, wait: 7}
	cpu.MapMMIO(0x8000, 0x100, dev)
	if err := cpu.Load(img, 0); err != nil {
		t.Fatal(err)
	}
	var memCycles []int
	cpu.OnEvent = func(e Event) {
		if e.MemAccess {
			memCycles = append(memCycles, e.Cycles)
		}
	}
	if _, err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.Regs[10] != 1000 || cpu.Regs[11] != 1004 {
		t.Errorf("MMIO reads: a0=%d a1=%d", cpu.Regs[10], cpu.Regs[11])
	}
	if dev.reads != 2 || dev.writes != 1 || dev.lastWrite != 77 {
		t.Errorf("device saw reads=%d writes=%d last=%d", dev.reads, dev.writes, dev.lastWrite)
	}
	// Wait cycles must show up in the events.
	for _, cyc := range memCycles {
		if cyc < 5+7 {
			t.Errorf("MMIO access took %d cycles, want >= 12 (base+wait)", cyc)
		}
	}
}

func TestRunBudgetExhausted(t *testing.T) {
	img, _, err := Assemble(`
	spin:	j spin
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := NewCPU(1 << 12)
	if err := cpu.Load(img, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(10); err == nil {
		t.Error("infinite loop should exhaust the budget with an error")
	}
}

func TestOutOfBoundsAccess(t *testing.T) {
	img, _, err := Assemble(`
		li t0, 0x100000
		lw a0, 0(t0)
		ebreak
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := NewCPU(1 << 12)
	if err := cpu.Load(img, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(100); err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("want out-of-bounds error, got %v", err)
	}
}

func TestLoadImageTooBig(t *testing.T) {
	cpu := NewCPU(8)
	if err := cpu.Load(make([]byte, 100), 0); err == nil {
		t.Error("oversized image should fail")
	}
}

func TestHaltedCPURefusesToStep(t *testing.T) {
	cpu := assembleRun(t, "ebreak", 10)
	if !cpu.Halted {
		t.Fatal("CPU should be halted")
	}
	if err := cpu.Step(); err == nil {
		t.Error("stepping a halted CPU should fail")
	}
}

func TestNegativeBranchOffsets(t *testing.T) {
	// Backward branch over more than one instruction.
	cpu := assembleRun(t, `
		li   a0, 0
		li   a1, 3
		j    check
	body:
		addi a0, a0, 10
		addi a1, a1, -1
	check:
		bnez a1, body
		ebreak
	`, 1000)
	if cpu.Regs[10] != 30 {
		t.Errorf("a0=%d want 30", cpu.Regs[10])
	}
}

func BenchmarkCPUStep(b *testing.B) {
	img, _, err := Assemble(`
	loop:
		addi t0, t0, 1
		mul  t1, t0, t0
		j    loop
	`, 0)
	if err != nil {
		b.Fatal(err)
	}
	cpu := NewCPU(1 << 12)
	if err := cpu.Load(img, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cpu.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDisasm(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"add a0, a1, a2", "add    a0, a1, a2"},
		{"addi t0, t1, -7", "addi   t0, t1, -7"},
		{"lw a0, 8(sp)", "lw     a0, 8(sp)"},
		{"sw a0, -4(sp)", "sw     a0, -4(sp)"},
		{"ebreak", "ebreak"},
		{"mul s2, s3, s4", "mul    s2, s3, s4"},
	}
	for _, c := range cases {
		img, _, err := Assemble(c.src, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		word := uint32(img[0]) | uint32(img[1])<<8 | uint32(img[2])<<16 | uint32(img[3])<<24
		in, err := Decode(word)
		if err != nil {
			t.Fatal(err)
		}
		if got := in.DisasmAt(0); got != c.want {
			t.Errorf("DisasmAt(%s) = %q want %q", c.src, got, c.want)
		}
	}
}

// Assemble → disassemble → re-assemble must produce identical binaries
// (stability of the assembler/disassembler pair).
func TestDisasmRoundTrip(t *testing.T) {
	src := `
		li   a0, 7
		add  a1, a0, a0
		sw   a1, 16(sp)
		lw   a2, 16(sp)
		beq  a1, a2, 8
		mul  a3, a1, a2
		ebreak
	`
	img1, _, err := Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	listing := DisasmImage(img1, 0)
	// Re-assemble each disassembled line (strip address/word columns).
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(listing), "\n") {
		parts := strings.SplitN(line, "  ", 3)
		if len(parts) != 3 {
			t.Fatalf("bad listing line %q", line)
		}
		lines = append(lines, strings.TrimSpace(parts[2]))
	}
	img2, _, err := Assemble(strings.Join(lines, "\n"), 0)
	if err != nil {
		t.Fatalf("reassembly failed: %v\nlisting:\n%s", err, listing)
	}
	if len(img1) != len(img2) {
		t.Fatalf("round trip changed size: %d vs %d", len(img1), len(img2))
	}
	for i := range img1 {
		if img1[i] != img2[i] {
			t.Fatalf("round trip changed byte %d", i)
		}
	}
}

func TestDisasmImageHandlesData(t *testing.T) {
	img, _, err := Assemble(".word 0xffffffff", 0)
	if err != nil {
		t.Fatal(err)
	}
	out := DisasmImage(img, 0x100)
	if !strings.Contains(out, ".word") || !strings.Contains(out, "00000100") {
		t.Errorf("data listing wrong: %q", out)
	}
}

// Smoke wrapper around the shared decode property (see fuzz_test.go); the
// native FuzzDecode target explores the same invariant coverage-guided.
func TestDecodeFuzzQuick(t *testing.T) {
	if err := quickDecodeSmoke(5000); err != nil {
		t.Error(err)
	}
}
