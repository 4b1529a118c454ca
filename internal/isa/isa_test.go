package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// sliceReader serves instruction words from a slice for decoding tests.
type sliceReader []uint16

func (s sliceReader) ReadCodeWord(addr uint16) uint16 {
	i := int(addr) / 2
	if i >= len(s) {
		return 0xFFFF
	}
	return s[i]
}

func TestRegString(t *testing.T) {
	cases := map[Reg]string{PC: "PC", SP: "SP", SR: "SR", CG: "CG", R4: "R4", R15: "R15"}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestOpClasses(t *testing.T) {
	for op := MOV; op <= AND; op++ {
		if !op.IsTwoOperand() || op.IsOneOperand() || op.IsJump() {
			t.Errorf("%v misclassified", op)
		}
	}
	for op := RRC; op <= RETI; op++ {
		if op.IsTwoOperand() || !op.IsOneOperand() || op.IsJump() {
			t.Errorf("%v misclassified", op)
		}
	}
	for op := JNE; op <= JMP; op++ {
		if op.IsTwoOperand() || op.IsOneOperand() || !op.IsJump() {
			t.Errorf("%v misclassified", op)
		}
	}
}

func TestEncodeKnownWords(t *testing.T) {
	// Hand-assembled reference encodings, cross-checked against the MSP430
	// instruction-set encoding rules.
	cases := []struct {
		in   Instr
		want []uint16
	}{
		// MOV R4, R5 -> 0x4405
		{Instr{Op: MOV, Src: RegOp(R4), Dst: RegOp(R5)}, []uint16{0x4405}},
		// MOV #0, R5 via CG (As=00, reg=R3) -> 0x4305
		{Instr{Op: MOV, Src: Imm(0), Dst: RegOp(R5)}, []uint16{0x4305}},
		// MOV #1, R5 via CG (As=01, reg=R3) -> 0x4315
		{Instr{Op: MOV, Src: Imm(1), Dst: RegOp(R5)}, []uint16{0x4315}},
		// MOV #2, R5 -> 0x4325 ; #-1 -> 0x4335 ; #4 -> 0x4225 ; #8 -> 0x4235
		{Instr{Op: MOV, Src: Imm(2), Dst: RegOp(R5)}, []uint16{0x4325}},
		{Instr{Op: MOV, Src: Imm(0xFFFF), Dst: RegOp(R5)}, []uint16{0x4335}},
		{Instr{Op: MOV, Src: Imm(4), Dst: RegOp(R5)}, []uint16{0x4225}},
		{Instr{Op: MOV, Src: Imm(8), Dst: RegOp(R5)}, []uint16{0x4235}},
		// MOV #0x1234, R5 -> 0x4035 0x1234 (@PC+)
		{Instr{Op: MOV, Src: Imm(0x1234), Dst: RegOp(R5)}, []uint16{0x4035, 0x1234}},
		// MOV @R4, R5 -> 0x4425 ; MOV @R4+, R5 -> 0x4435
		{Instr{Op: MOV, Src: Ind(R4), Dst: RegOp(R5)}, []uint16{0x4425}},
		{Instr{Op: MOV, Src: IndInc(R4), Dst: RegOp(R5)}, []uint16{0x4435}},
		// MOV 6(R4), R5 -> 0x4415 0x0006
		{Instr{Op: MOV, Src: Idx(6, R4), Dst: RegOp(R5)}, []uint16{0x4415, 0x0006}},
		// MOV &0x0200, R5 -> 0x4215 0x0200
		{Instr{Op: MOV, Src: Abs(0x0200), Dst: RegOp(R5)}, []uint16{0x4215, 0x0200}},
		// MOV R5, &0x0200 -> 0x4582 0x0200
		{Instr{Op: MOV, Src: RegOp(R5), Dst: Abs(0x0200)}, []uint16{0x4582, 0x0200}},
		// MOV.B R4, R5 -> 0x4445
		{Instr{Op: MOV, Byte: true, Src: RegOp(R4), Dst: RegOp(R5)}, []uint16{0x4445}},
		// ADD R4, R5 -> 0x5405 ; XOR -> 0xE405 ; AND -> 0xF405
		{Instr{Op: ADD, Src: RegOp(R4), Dst: RegOp(R5)}, []uint16{0x5405}},
		{Instr{Op: XOR, Src: RegOp(R4), Dst: RegOp(R5)}, []uint16{0xE405}},
		{Instr{Op: AND, Src: RegOp(R4), Dst: RegOp(R5)}, []uint16{0xF405}},
		// PUSH R10 -> 0x120A ; CALL R10 -> 0x128A
		{Instr{Op: PUSH, Src: RegOp(R10)}, []uint16{0x120A}},
		{Instr{Op: CALL, Src: RegOp(R10)}, []uint16{0x128A}},
		// CALL #0x4400 -> 0x12B0 0x4400
		{Instr{Op: CALL, Src: Imm(0x4400)}, []uint16{0x12B0, 0x4400}},
		// RETI -> 0x1300
		{Instr{Op: RETI}, []uint16{0x1300}},
		// SWPB R9 -> 0x1089 ; RRA R9 -> 0x1109 ; SXT R9 -> 0x1189 ; RRC R9 -> 0x1009
		{Instr{Op: SWPB, Src: RegOp(R9)}, []uint16{0x1089}},
		{Instr{Op: RRA, Src: RegOp(R9)}, []uint16{0x1109}},
		{Instr{Op: SXT, Src: RegOp(R9)}, []uint16{0x1189}},
		{Instr{Op: RRC, Src: RegOp(R9)}, []uint16{0x1009}},
		// JMP +0 -> 0x3C00 ; JNE -1 word -> 0x23FF ; JEQ +2 words -> 0x2402
		{Instr{Op: JMP, Dst: Operand{Mode: ModeNone, X: 0}}, []uint16{0x3C00}},
		{Instr{Op: JNE, Dst: Operand{Mode: ModeNone, X: 0xFFFF}}, []uint16{0x23FF}},
		{Instr{Op: JEQ, Dst: Operand{Mode: ModeNone, X: 2}}, []uint16{0x2402}},
	}
	for _, c := range cases {
		got, err := Encode(c.in)
		if err != nil {
			t.Errorf("Encode(%v): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("Encode(%v) = %04X, want %04X", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Encode(%v) = %04X, want %04X", c.in, got, c.want)
				break
			}
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	bad := []Instr{
		{Op: MOV, Src: RegOp(CG), Dst: RegOp(R5)},          // R3 as plain src
		{Op: MOV, Src: Idx(2, SR), Dst: RegOp(R5)},         // indexed on R2
		{Op: MOV, Src: RegOp(R4), Dst: Ind(R5)},            // indirect dst
		{Op: MOV, Src: RegOp(R4), Dst: Imm(7)},             // immediate dst
		{Op: SWPB, Byte: true, Src: RegOp(R4)},             // SWPB.B
		{Op: SXT, Src: Imm(0x1234)},                        // SXT #imm
		{Op: JMP, Dst: Operand{Mode: ModeNone, X: 600}},    // offset too far
		{Op: JMP, Dst: Operand{Mode: ModeNone, X: 0xFC00}}, // offset -1024
		{Op: CALL, Byte: true, Src: RegOp(R4)},             // CALL.B
		{Op: MOV, Src: Ind(SR), Dst: RegOp(R4)},            // @SR
		{Op: MOV, Src: IndInc(CG), Dst: RegOp(R4)},         // @CG+
		{Op: MOV, Src: RegOp(R4), Dst: Idx(0, SR)},         // x(SR) dst
	}
	for _, in := range bad {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%v) unexpectedly succeeded", in)
		}
	}
}

// roundTripInstrs are the decode/encode round-trip cases; FuzzDecode seeds
// its corpus from their encodings.
var roundTripInstrs = []Instr{
	{Op: MOV, Src: Imm(0x4400), Dst: RegOp(SP)},
	{Op: CMP, Src: Imm(2), Dst: RegOp(R12)},
	{Op: SUB, Src: Imm(6), Dst: RegOp(SP)},
	{Op: MOV, Src: Abs(0x1C00), Dst: Abs(0x1C02)},
	{Op: ADD, Byte: true, Src: Idx(3, R10), Dst: RegOp(R11)},
	{Op: PUSH, Src: Imm(0x55AA)},
	{Op: CALL, Src: Ind(R7)},
	{Op: BIT, Src: Imm(8), Dst: RegOp(SR)},
}

// illegalWords are opcode words Decode must reject; FuzzDecode seeds its
// corpus from them too.
var illegalWords = []uint16{0x0000, 0x0FFF, 0x1380, 0x13FF}

func TestDecodeMatchesEncode(t *testing.T) {
	for _, in := range roundTripInstrs {
		words := MustEncode(in)
		got, size, err := Decode(sliceReader(words), 0)
		if err != nil {
			t.Fatalf("Decode(%v): %v", in, err)
		}
		if int(size) != len(words)*2 {
			t.Errorf("Decode(%v) size = %d, want %d", in, size, len(words)*2)
		}
		if got != in {
			t.Errorf("Decode(Encode(%v)) = %v", in, got)
		}
	}
}

func TestDecodeIllegal(t *testing.T) {
	for _, w := range illegalWords {
		if _, _, err := Decode(sliceReader{w}, 0); err == nil {
			t.Errorf("Decode(%04X) unexpectedly succeeded", w)
		}
	}
}

// randInstr builds a random encodable instruction for round-trip properties.
func randInstr(r *rand.Rand) Instr {
	gpr := func() Reg { return Reg(4 + r.Intn(12)) }
	srcOp := func() Operand {
		switch r.Intn(6) {
		case 0:
			return RegOp(gpr())
		case 1:
			return Idx(uint16(r.Intn(0x7FFF)), gpr())
		case 2:
			return Abs(uint16(r.Intn(0xFFFF)))
		case 3:
			return Ind(gpr())
		case 4:
			return IndInc(gpr())
		default:
			return Imm(uint16(r.Intn(0xFFFF)))
		}
	}
	dstOp := func() Operand {
		switch r.Intn(3) {
		case 0:
			return RegOp(gpr())
		case 1:
			return Idx(uint16(r.Intn(0x7FFF)), gpr())
		default:
			return Abs(uint16(r.Intn(0xFFFF)))
		}
	}
	switch r.Intn(3) {
	case 0:
		return Instr{
			Op:   Op(r.Intn(int(AND) + 1)),
			Byte: r.Intn(2) == 0,
			Src:  srcOp(),
			Dst:  dstOp(),
		}
	case 1:
		op := RRC + Op(r.Intn(5)) // RRC..PUSH
		in := Instr{Op: op, Src: srcOp()}
		if op == SWPB || op == SXT {
			in.Byte = false
			if in.Src.Mode == ModeImmediate {
				in.Src = RegOp(gpr())
			}
		} else if op != PUSH && in.Src.Mode == ModeImmediate {
			in.Src = RegOp(gpr())
		} else if op == PUSH {
			in.Byte = r.Intn(2) == 0
		} else {
			in.Byte = r.Intn(2) == 0
		}
		return in
	default:
		off := r.Intn(1024) - 512
		if off == -512 {
			off = 0
		}
		return Instr{Op: JNE + Op(r.Intn(8)), Dst: Operand{Mode: ModeNone, X: uint16(int16(off))}}
	}
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		in := randInstr(r)
		words, err := Encode(in)
		if err != nil {
			t.Logf("Encode(%v): %v", in, err)
			return false
		}
		if len(words) != in.Words() {
			t.Logf("Words(%v) = %d, encoded %d", in, in.Words(), len(words))
			return false
		}
		out, size, err := Decode(sliceReader(words), 0)
		if err != nil {
			t.Logf("Decode(%v): %v", in, err)
			return false
		}
		if int(size) != 2*len(words) {
			return false
		}
		if out != in {
			t.Logf("round trip %v -> %v", in, out)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCyclesKnownValues(t *testing.T) {
	cases := []struct {
		in   Instr
		want int
	}{
		{Instr{Op: MOV, Src: RegOp(R4), Dst: RegOp(R5)}, 1},
		{Instr{Op: MOV, Src: Imm(0), Dst: RegOp(R5)}, 1},      // CG: register timing
		{Instr{Op: MOV, Src: Imm(0x1234), Dst: RegOp(R5)}, 2}, // @PC+
		{Instr{Op: MOV, Src: Ind(R4), Dst: RegOp(R5)}, 2},
		{Instr{Op: MOV, Src: IndInc(R4), Dst: RegOp(R5)}, 2},
		{Instr{Op: MOV, Src: Idx(2, R4), Dst: RegOp(R5)}, 3},
		{Instr{Op: MOV, Src: Abs(0x200), Dst: RegOp(R5)}, 3},
		{Instr{Op: MOV, Src: RegOp(R4), Dst: Idx(2, R5)}, 4},
		{Instr{Op: MOV, Src: RegOp(R4), Dst: Abs(0x200)}, 4},
		{Instr{Op: MOV, Src: Imm(0x1234), Dst: Abs(0x200)}, 5},
		{Instr{Op: MOV, Src: Abs(0x200), Dst: Abs(0x202)}, 6},
		{Instr{Op: MOV, Src: RegOp(R4), Dst: RegOp(PC)}, 2},
		{Instr{Op: MOV, Src: Imm(0x4400), Dst: RegOp(PC)}, 3},
		{Instr{Op: MOV, Src: IndInc(SP), Dst: RegOp(PC)}, 3}, // RET
		{Instr{Op: CMP, Src: Imm(2), Dst: RegOp(R12)}, 1},    // CG compare
		{Instr{Op: PUSH, Src: RegOp(R10)}, 3},
		{Instr{Op: PUSH, Src: Imm(0x1234)}, 4},
		{Instr{Op: CALL, Src: RegOp(R10)}, 4},
		{Instr{Op: CALL, Src: Imm(0x4400)}, 5},
		{Instr{Op: CALL, Src: Abs(0x4400)}, 6},
		{Instr{Op: RETI}, 5},
		{Instr{Op: JMP}, 2},
		{Instr{Op: JNE}, 2},
		{Instr{Op: RRA, Src: RegOp(R9)}, 1},
		{Instr{Op: RRA, Src: Abs(0x200)}, 4},
		{Instr{Op: SWPB, Src: Ind(R9)}, 3},
	}
	for _, c := range cases {
		if got := Cycles(c.in); got != c.want {
			t.Errorf("Cycles(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestQuickCyclesPositiveAndBounded(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(int64) bool {
		in := randInstr(r)
		c := Cycles(in)
		return c >= 1 && c <= 6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInstrStrings(t *testing.T) {
	cases := map[string]Instr{
		"MOV R4, R5":      {Op: MOV, Src: RegOp(R4), Dst: RegOp(R5)},
		"MOV.B #1, 2(R6)": {Op: MOV, Byte: true, Src: Imm(1), Dst: Idx(2, R6)},
		"CALL #17408":     {Op: CALL, Src: Imm(0x4400)},
		"RETI":            {Op: RETI},
		"JMP +4":          {Op: JMP, Dst: Operand{Mode: ModeNone, X: 2}},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
