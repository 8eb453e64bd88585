package rv32

import (
	"fmt"
)

// Event describes one executed instruction, with everything the power
// model needs: the instruction word, the register write (old and new
// value), memory traffic, and cycle accounting.
type Event struct {
	PC     uint32
	Instr  Instr
	Cycle  uint64 // cycle at which the instruction started
	Cycles int    // how many cycles it took

	RegWrite bool
	RegDst   int
	RegOld   uint32
	RegNew   uint32

	MemAccess bool
	MemWrite  bool
	MemAddr   uint32
	MemValue  uint32 // value read or written
	MemOld    uint32 // previous memory content on writes (bus HD)
}

// MMIOHandler services loads/stores in a memory-mapped device region.
type MMIOHandler interface {
	// Read returns the 32-bit value at the given offset within the region
	// and the number of extra wait cycles the access stalls the core.
	Read(offset uint32) (value uint32, waitCycles int)
	// Write stores a 32-bit value at the given offset.
	Write(offset uint32, value uint32) (waitCycles int)
}

type mmioRegion struct {
	base, size uint32
	handler    MMIOHandler
}

// CPU is an RV32IM hart with flat RAM and optional MMIO regions.
type CPU struct {
	Regs  [32]uint32
	PC    uint32
	Mem   []byte
	Cycle uint64

	mmio []mmioRegion

	// OnEvent, when non-nil, receives every executed instruction.
	OnEvent func(Event)

	// Halted is set when EBREAK executes.
	Halted bool
}

// NewCPU allocates a CPU with memSize bytes of zeroed RAM.
func NewCPU(memSize int) *CPU {
	return &CPU{Mem: make([]byte, memSize)}
}

// MapMMIO registers a device at [base, base+size).
func (c *CPU) MapMMIO(base, size uint32, h MMIOHandler) {
	c.mmio = append(c.mmio, mmioRegion{base: base, size: size, handler: h})
}

// Load copies a program image into RAM at addr and sets PC there.
func (c *CPU) Load(image []byte, addr uint32) error {
	if int(addr)+len(image) > len(c.Mem) {
		return fmt.Errorf("rv32: image of %d bytes at %#x exceeds %d-byte RAM", len(image), addr, len(c.Mem))
	}
	copy(c.Mem[addr:], image)
	c.PC = addr
	return nil
}

func (c *CPU) findMMIO(addr uint32) *mmioRegion {
	for i := range c.mmio {
		r := &c.mmio[i]
		if addr >= r.base && addr < r.base+r.size {
			return r
		}
	}
	return nil
}

func (c *CPU) read32(addr uint32) (uint32, int, error) {
	if r := c.findMMIO(addr); r != nil {
		v, wait := r.handler.Read(addr - r.base)
		return v, wait, nil
	}
	if int(addr)+4 > len(c.Mem) {
		return 0, 0, fmt.Errorf("rv32: load at %#x out of bounds", addr)
	}
	return uint32(c.Mem[addr]) | uint32(c.Mem[addr+1])<<8 |
		uint32(c.Mem[addr+2])<<16 | uint32(c.Mem[addr+3])<<24, 0, nil
}

func (c *CPU) write32(addr, v uint32) (old uint32, wait int, err error) {
	if r := c.findMMIO(addr); r != nil {
		wait = r.handler.Write(addr-r.base, v)
		return 0, wait, nil
	}
	if int(addr)+4 > len(c.Mem) {
		return 0, 0, fmt.Errorf("rv32: store at %#x out of bounds", addr)
	}
	old = uint32(c.Mem[addr]) | uint32(c.Mem[addr+1])<<8 |
		uint32(c.Mem[addr+2])<<16 | uint32(c.Mem[addr+3])<<24
	c.Mem[addr] = byte(v)
	c.Mem[addr+1] = byte(v >> 8)
	c.Mem[addr+2] = byte(v >> 16)
	c.Mem[addr+3] = byte(v >> 24)
	return old, 0, nil
}

// Step executes one instruction.
func (c *CPU) Step() error {
	if c.Halted {
		return fmt.Errorf("rv32: CPU is halted")
	}
	if c.PC&3 != 0 {
		return fmt.Errorf("rv32: misaligned PC %#x", c.PC)
	}
	word, _, err := c.read32(c.PC)
	if err != nil {
		return fmt.Errorf("rv32: fetch: %w", err)
	}
	in, err := Decode(word)
	if err != nil {
		return fmt.Errorf("rv32: at %#x: %w", c.PC, err)
	}

	ev := Event{PC: c.PC, Instr: in, Cycle: c.Cycle, Cycles: in.Op.Cycles()}
	nextPC := c.PC + 4
	rs1 := c.Regs[in.Rs1]
	rs2 := c.Regs[in.Rs2]

	setRd := func(v uint32) {
		ev.RegWrite = true
		ev.RegDst = in.Rd
		ev.RegOld = c.Regs[in.Rd]
		ev.RegNew = v
		if in.Rd != 0 {
			c.Regs[in.Rd] = v
		} else {
			ev.RegNew = 0
		}
	}

	switch in.Op {
	case OpLUI:
		setRd(uint32(in.Imm))
	case OpAUIPC:
		setRd(c.PC + uint32(in.Imm))
	case OpJAL:
		setRd(c.PC + 4)
		nextPC = c.PC + uint32(in.Imm)
	case OpJALR:
		t := (rs1 + uint32(in.Imm)) &^ 1
		setRd(c.PC + 4)
		nextPC = t
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		taken := false
		switch in.Op {
		case OpBEQ:
			taken = rs1 == rs2
		case OpBNE:
			taken = rs1 != rs2
		case OpBLT:
			taken = int32(rs1) < int32(rs2)
		case OpBGE:
			taken = int32(rs1) >= int32(rs2)
		case OpBLTU:
			taken = rs1 < rs2
		case OpBGEU:
			taken = rs1 >= rs2
		}
		if taken {
			nextPC = c.PC + uint32(in.Imm)
			ev.Cycles++ // taken branches refill the fetch unit
		}
	case OpLB, OpLH, OpLW, OpLBU, OpLHU:
		addr := rs1 + uint32(in.Imm)
		aligned := addr &^ 3
		wordVal, wait, err := c.read32(aligned)
		if err != nil {
			return err
		}
		ev.Cycles += wait
		shift := (addr & 3) * 8
		var v uint32
		switch in.Op {
		case OpLW:
			if addr&3 != 0 {
				return fmt.Errorf("rv32: misaligned LW at %#x", addr)
			}
			v = wordVal
		case OpLB:
			v = uint32(int32(int8(wordVal >> shift)))
		case OpLBU:
			v = (wordVal >> shift) & 0xff
		case OpLH:
			if addr&1 != 0 {
				return fmt.Errorf("rv32: misaligned LH at %#x", addr)
			}
			v = uint32(int32(int16(wordVal >> shift)))
		case OpLHU:
			if addr&1 != 0 {
				return fmt.Errorf("rv32: misaligned LHU at %#x", addr)
			}
			v = (wordVal >> shift) & 0xffff
		}
		ev.MemAccess = true
		ev.MemAddr = addr
		ev.MemValue = v
		setRd(v)
	case OpSB, OpSH, OpSW:
		addr := rs1 + uint32(in.Imm)
		var old uint32
		var wait int
		switch in.Op {
		case OpSW:
			if addr&3 != 0 {
				return fmt.Errorf("rv32: misaligned SW at %#x", addr)
			}
			old, wait, err = c.write32(addr, rs2)
			if err != nil {
				return err
			}
			ev.MemValue = rs2
		case OpSB:
			aligned := addr &^ 3
			cur, _, err := c.read32(aligned)
			if err != nil {
				return err
			}
			shift := (addr & 3) * 8
			nv := cur&^(0xff<<shift) | (rs2&0xff)<<shift
			old, wait, err = c.write32(aligned, nv)
			if err != nil {
				return err
			}
			ev.MemValue = rs2 & 0xff
		case OpSH:
			if addr&1 != 0 {
				return fmt.Errorf("rv32: misaligned SH at %#x", addr)
			}
			aligned := addr &^ 3
			cur, _, err := c.read32(aligned)
			if err != nil {
				return err
			}
			shift := (addr & 3) * 8
			nv := cur&^(0xffff<<shift) | (rs2&0xffff)<<shift
			old, wait, err = c.write32(aligned, nv)
			if err != nil {
				return err
			}
			ev.MemValue = rs2 & 0xffff
		}
		ev.Cycles += wait
		ev.MemAccess = true
		ev.MemWrite = true
		ev.MemAddr = addr
		ev.MemOld = old
	case OpADDI:
		setRd(rs1 + uint32(in.Imm))
	case OpSLTI:
		setRd(boolToU32(int32(rs1) < in.Imm))
	case OpSLTIU:
		setRd(boolToU32(rs1 < uint32(in.Imm)))
	case OpXORI:
		setRd(rs1 ^ uint32(in.Imm))
	case OpORI:
		setRd(rs1 | uint32(in.Imm))
	case OpANDI:
		setRd(rs1 & uint32(in.Imm))
	case OpSLLI:
		setRd(rs1 << uint(in.Imm&31))
	case OpSRLI:
		setRd(rs1 >> uint(in.Imm&31))
	case OpSRAI:
		setRd(uint32(int32(rs1) >> uint(in.Imm&31)))
	case OpADD:
		setRd(rs1 + rs2)
	case OpSUB:
		setRd(rs1 - rs2)
	case OpSLL:
		setRd(rs1 << (rs2 & 31))
	case OpSLT:
		setRd(boolToU32(int32(rs1) < int32(rs2)))
	case OpSLTU:
		setRd(boolToU32(rs1 < rs2))
	case OpXOR:
		setRd(rs1 ^ rs2)
	case OpSRL:
		setRd(rs1 >> (rs2 & 31))
	case OpSRA:
		setRd(uint32(int32(rs1) >> (rs2 & 31)))
	case OpOR:
		setRd(rs1 | rs2)
	case OpAND:
		setRd(rs1 & rs2)
	case OpMUL:
		setRd(rs1 * rs2)
	case OpMULH:
		setRd(uint32(uint64(int64(int32(rs1))*int64(int32(rs2))) >> 32))
	case OpMULHSU:
		setRd(uint32(uint64(int64(int32(rs1))*int64(rs2)) >> 32))
	case OpMULHU:
		setRd(uint32(uint64(rs1) * uint64(rs2) >> 32))
	case OpDIV:
		switch {
		case rs2 == 0:
			setRd(0xffffffff)
		case rs1 == 0x80000000 && rs2 == 0xffffffff:
			setRd(0x80000000)
		default:
			setRd(uint32(int32(rs1) / int32(rs2)))
		}
	case OpDIVU:
		if rs2 == 0 {
			setRd(0xffffffff)
		} else {
			setRd(rs1 / rs2)
		}
	case OpREM:
		switch {
		case rs2 == 0:
			setRd(rs1)
		case rs1 == 0x80000000 && rs2 == 0xffffffff:
			setRd(0)
		default:
			setRd(uint32(int32(rs1) % int32(rs2)))
		}
	case OpREMU:
		if rs2 == 0 {
			setRd(rs1)
		} else {
			setRd(rs1 % rs2)
		}
	case OpECALL:
		// Treated as a no-op hook in this bare-metal simulator.
	case OpEBREAK:
		c.Halted = true
	default:
		return fmt.Errorf("rv32: unhandled op %v", in.Op)
	}

	c.PC = nextPC
	c.Cycle += uint64(ev.Cycles)
	if c.OnEvent != nil {
		c.OnEvent(ev)
	}
	return nil
}

func boolToU32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Run executes until EBREAK or until maxInstrs instructions have retired.
// It returns the number of instructions executed.
func (c *CPU) Run(maxInstrs int) (int, error) {
	for n := 0; n < maxInstrs; n++ {
		if c.Halted {
			return n, nil
		}
		if err := c.Step(); err != nil {
			return n, err
		}
	}
	if !c.Halted {
		return maxInstrs, fmt.Errorf("rv32: instruction budget %d exhausted at PC %#x", maxInstrs, c.PC)
	}
	return maxInstrs, nil
}

// WriteWord writes RAM directly (test/debug helper, no MMIO).
func (c *CPU) WriteWord(addr, v uint32) error {
	if int(addr)+4 > len(c.Mem) {
		return fmt.Errorf("rv32: WriteWord at %#x out of bounds", addr)
	}
	c.Mem[addr] = byte(v)
	c.Mem[addr+1] = byte(v >> 8)
	c.Mem[addr+2] = byte(v >> 16)
	c.Mem[addr+3] = byte(v >> 24)
	return nil
}
