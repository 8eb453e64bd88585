package rv32

import (
	"fmt"
	"testing"
	"testing/quick"
)

// decodeProperty is the shared invariant behind both FuzzDecode and the
// quick smoke test: an arbitrary word either fails to decode or yields a
// well-formed instruction whose disassembly does not panic.
func decodeProperty(word uint32) error {
	in, err := Decode(word)
	if err != nil {
		return nil
	}
	if in.Op == OpInvalid {
		return fmt.Errorf("word %#08x decoded without error to OpInvalid", word)
	}
	if in.Rd < 0 || in.Rd > 31 || in.Rs1 < 0 || in.Rs1 > 31 || in.Rs2 < 0 || in.Rs2 > 31 {
		return fmt.Errorf("word %#08x decoded to out-of-range register (rd=%d rs1=%d rs2=%d)",
			word, in.Rd, in.Rs1, in.Rs2)
	}
	_ = in.DisasmAt(0x1000)
	// Decode must be deterministic.
	again, err2 := Decode(word)
	if err2 != nil || again != in {
		return fmt.Errorf("word %#08x: second decode differs (%v, %v)", word, again, err2)
	}
	return nil
}

// FuzzDecode is the native fuzz target; its seed corpus lives under
// testdata/fuzz/FuzzDecode. Run with `go test -fuzz=FuzzDecode ./internal/rv32`.
func FuzzDecode(f *testing.F) {
	// One representative of every major encoding format, plus junk.
	for _, word := range []uint32{
		0x00000013, // addi x0, x0, 0 (I-type nop)
		0x003100b3, // add x1, x2, x3 (R-type)
		0x000000b7, // lui x1, 0 (U-type)
		0x0000006f, // jal x0, 0 (J-type)
		0x00012083, // lw x1, 0(x2) (load)
		0x00112023, // sw x1, 0(x2) (S-type)
		0x00208463, // beq x1, x2, 8 (B-type)
		0x00000073, // ecall (system)
		0x0ff0000f, // fence
		0x40315093, // srai x1, x2, 3 (shift with funct7 bit)
		0x00000000, // all-zero (invalid)
		0xffffffff, // all-ones (invalid)
		0x00000001, // compressed-looking low bits
	} {
		f.Add(word)
	}
	f.Fuzz(func(t *testing.T, word uint32) {
		if err := decodeProperty(word); err != nil {
			t.Error(err)
		}
	})
}

// TestDecodeSeedCorpusProperty pins the seed encodings as decodable where
// expected, so corpus rot is caught even without -fuzz.
func TestDecodeSeedCorpusProperty(t *testing.T) {
	valid := []uint32{0x00000013, 0x003100b3, 0x000000b7, 0x0000006f, 0x00012083}
	for _, w := range valid {
		if _, err := Decode(w); err != nil {
			t.Errorf("seed %#08x no longer decodes: %v", w, err)
		}
	}
	for _, w := range []uint32{0x00000000, 0xffffffff} {
		if _, err := Decode(w); err == nil {
			t.Errorf("seed %#08x unexpectedly decodes", w)
		}
	}
}

// quickDecodeSmoke runs the shared property through testing/quick; kept so
// plain `go test` still exercises 5000 random words without -fuzz.
func quickDecodeSmoke(maxCount int) error {
	prop := func(word uint32) bool { return decodeProperty(word) == nil }
	return quick.Check(prop, &quick.Config{MaxCount: maxCount})
}
