package isa

import "testing"

// TestHandlerFor pins the shape → handler mapping threaded dispatch relies
// on: jumps and the fast format-I block are pure index arithmetic over the
// opcode order, and memory operands always fall to the generic handlers.
func TestHandlerFor(t *testing.T) {
	cases := []struct {
		in   Instr
		want HandlerID
	}{
		{Instr{Op: JNE, Dst: Operand{X: 4}}, HJNE},
		{Instr{Op: JMP, Dst: Operand{X: 4}}, HJMP},
		{Instr{Op: JGE, Dst: Operand{X: 0xFFFD}}, HJGE},
		{Instr{Op: RETI}, HRETI},
		{Instr{Op: PUSH, Src: RegOp(R4)}, HPushReg},
		{Instr{Op: PUSH, Byte: true, Src: RegOp(R4)}, HOneGeneric},
		{Instr{Op: PUSH, Src: Abs(0x2000)}, HOneGeneric},
		{Instr{Op: CALL, Src: Imm(0x4400)}, HCallImm},
		{Instr{Op: CALL, Src: RegOp(R10)}, HOneGeneric},
		{Instr{Op: RRC, Src: RegOp(R4)}, HOneGeneric},
		{Instr{Op: SXT, Src: Abs(0x1C00)}, HOneGeneric},
		{Instr{Op: MOV, Src: RegOp(R4), Dst: RegOp(R5)}, HFastMOV},
		{Instr{Op: MOV, Src: Imm(7), Dst: RegOp(R5)}, HFastMOV},
		{Instr{Op: ADD, Src: Imm(1), Dst: RegOp(SP)}, HFastADD},
		{Instr{Op: ADDC, Src: RegOp(R4), Dst: RegOp(R5)}, HFastADDC},
		{Instr{Op: SUBC, Src: RegOp(R4), Dst: RegOp(R5)}, HFastSUBC},
		{Instr{Op: SUB, Byte: true, Src: RegOp(R4), Dst: RegOp(R5)}, HFastSUB},
		{Instr{Op: CMP, Src: Imm(10), Dst: RegOp(R12)}, HFastCMP},
		{Instr{Op: DADD, Src: RegOp(R4), Dst: RegOp(R5)}, HFastDADD},
		{Instr{Op: BIT, Src: Imm(8), Dst: RegOp(SR)}, HFastBIT},
		{Instr{Op: BIC, Src: Imm(1), Dst: RegOp(SR)}, HFastBIC},
		{Instr{Op: BIS, Src: Imm(0x10), Dst: RegOp(SR)}, HFastBIS},
		{Instr{Op: XOR, Src: RegOp(R6), Dst: RegOp(R7)}, HFastXOR},
		{Instr{Op: AND, Src: Imm(0xFF), Dst: RegOp(R12)}, HFastAND},
		{Instr{Op: MOV, Src: Abs(0x2000), Dst: RegOp(R5)}, HGenMOV},
		{Instr{Op: MOV, Src: RegOp(R4), Dst: Abs(0x2000)}, HGenMOV},
		{Instr{Op: ADD, Src: Ind(R4), Dst: RegOp(R5)}, HGenADD},
		{Instr{Op: XOR, Src: IndInc(R4), Dst: Idx(2, R5)}, HGenXOR},
		{Instr{Op: CMP, Src: Abs(0x2000), Dst: RegOp(R5)}, HGenCMP},
		{Instr{Op: AND, Src: Idx(2, R4), Dst: Abs(0x2000)}, HGenAND},
	}
	for _, c := range cases {
		if got := HandlerFor(c.in); got != c.want {
			t.Errorf("HandlerFor(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestPredecodeBindsHandlers checks handler binding is on by default and is
// fully disabled by SetThreading(false).
func TestPredecodeBindsHandlers(t *testing.T) {
	defer SetThreading(true)
	mem := testWords{}
	addr := uint16(0x4400)
	prog := []Instr{
		{Op: CMP, Src: Imm(10), Dst: RegOp(R4)},
		{Op: JNE, Dst: Operand{X: uint16(0xFFFD)}},
		{Op: MOV, Src: Abs(0x2000), Dst: RegOp(R5)},
	}
	for _, in := range prog {
		addr += encodeAt(t, mem, addr, in)
	}
	ranges := []TextRange{{Lo: 0x4400, Hi: addr}}

	p := Predecode(mem, ranges)
	head := p.At(0x4400)
	if head == nil || head.H != HFastCMP {
		t.Fatalf("CMP slot handler = %+v, want HFastCMP", head)
	}
	if jne := p.At(0x4400 + head.Size); jne == nil || jne.H != HJNE {
		t.Errorf("JNE slot handler = %+v, want HJNE", jne)
	}
	for pc := uint16(0x4400); pc < addr; pc += 2 {
		if e := p.At(pc); e != nil && e.H == HNone {
			t.Errorf("pc=0x%04X: cached slot left unbound with threading on", pc)
		}
	}

	SetThreading(false)
	p = Predecode(mem, ranges)
	for pc := uint16(0x4400); pc < addr; pc += 2 {
		e := p.At(pc)
		if e == nil {
			continue
		}
		if e.H != HNone {
			t.Errorf("pc=0x%04X: handler bound with threading off", pc)
		}
	}
}
