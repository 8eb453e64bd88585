package rv32

import (
	"fmt"
	"strings"
)

// abiNames are the canonical ABI register names used by the disassembler.
var abiNames = [32]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
	"s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
	"t3", "t4", "t5", "t6",
}

// DisasmAt renders a decoded instruction, as it sits at address pc, as
// assembler text using ABI register names. Branch and jump targets are
// absolute addresses, so the output re-assembles to the identical encoding.
func (in Instr) DisasmAt(pc uint32) string {
	rd := abiNames[in.Rd]
	rs1 := abiNames[in.Rs1]
	rs2 := abiNames[in.Rs2]
	target := func() string { return fmt.Sprintf("%#x", pc+uint32(in.Imm)) }
	switch in.Op {
	case OpLUI, OpAUIPC:
		return fmt.Sprintf("%-6s %s, %#x", in.Op, rd, uint32(in.Imm)>>12)
	case OpJAL:
		return fmt.Sprintf("%-6s %s, %s", in.Op, rd, target())
	case OpJALR:
		return fmt.Sprintf("%-6s %s, %d(%s)", in.Op, rd, in.Imm, rs1)
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return fmt.Sprintf("%-6s %s, %s, %s", in.Op, rs1, rs2, target())
	case OpLB, OpLH, OpLW, OpLBU, OpLHU:
		return fmt.Sprintf("%-6s %s, %d(%s)", in.Op, rd, in.Imm, rs1)
	case OpSB, OpSH, OpSW:
		return fmt.Sprintf("%-6s %s, %d(%s)", in.Op, rs2, in.Imm, rs1)
	case OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI, OpSLLI, OpSRLI, OpSRAI:
		return fmt.Sprintf("%-6s %s, %s, %d", in.Op, rd, rs1, in.Imm)
	case OpECALL, OpEBREAK:
		return in.Op.String()
	default: // register-register ALU and M extension
		return fmt.Sprintf("%-6s %s, %s, %s", in.Op, rd, rs1, rs2)
	}
}

// DisasmImage disassembles a binary image (4-byte little-endian words)
// loaded at base, one line per word. Undecodable words are rendered as
// ".word 0x…" so data sections stay readable.
func DisasmImage(img []byte, base uint32) string {
	var b strings.Builder
	for off := 0; off+4 <= len(img); off += 4 {
		word := uint32(img[off]) | uint32(img[off+1])<<8 |
			uint32(img[off+2])<<16 | uint32(img[off+3])<<24
		fmt.Fprintf(&b, "%08x:  %08x  ", base+uint32(off), word)
		if in, err := Decode(word); err == nil {
			b.WriteString(in.DisasmAt(base + uint32(off)))
		} else {
			fmt.Fprintf(&b, ".word  %#x", word)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
