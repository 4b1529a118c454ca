package cpu

import (
	"testing"

	"amuletiso/internal/engine"
	"amuletiso/internal/isa"
	"amuletiso/internal/mem"
)

// TestHandlerTableComplete asserts every HandlerID Predecode can bind has an
// executor: an unbound ID would make dispatch call a nil func at run time.
func TestHandlerTableComplete(t *testing.T) {
	for id := isa.HNone + 1; id < isa.NumHandlers; id++ {
		if handlers[id] == nil {
			t.Errorf("handler %d is unbound", id)
		}
	}
	if handlers[isa.HNone] != nil {
		t.Error("HNone must stay unbound (it marks switch dispatch)")
	}
}

// threadProgram exercises every handler class: all eight jump conditions
// (taken and not taken), RETI, PUSH-reg and CALL-imm specializations, the
// generic one-operand shapes, every fast format-I opcode (word and byte,
// register and immediate sources), and format I with memory operands on both
// sides. It ends by running off the end of text into erased FRAM, so both
// engines stop on the identical decode fault.
func threadProgram() []isa.Instr {
	ri, rr := isa.Imm, isa.RegOp
	prog := []isa.Instr{
		// Fast format I, word.
		{Op: isa.MOV, Src: ri(0x1234), Dst: rr(isa.R4)},
		{Op: isa.MOV, Src: rr(isa.R4), Dst: rr(isa.R5)},
		{Op: isa.ADD, Src: ri(0x0101), Dst: rr(isa.R5)},
		{Op: isa.ADDC, Src: rr(isa.R4), Dst: rr(isa.R5)},
		{Op: isa.SUB, Src: ri(7), Dst: rr(isa.R5)},
		{Op: isa.SUBC, Src: rr(isa.R4), Dst: rr(isa.R5)},
		{Op: isa.CMP, Src: rr(isa.R4), Dst: rr(isa.R5)},
		{Op: isa.DADD, Src: ri(0x0199), Dst: rr(isa.R4)},
		{Op: isa.BIT, Src: ri(8), Dst: rr(isa.R4)},
		{Op: isa.BIC, Src: ri(0x00F0), Dst: rr(isa.R4)},
		{Op: isa.BIS, Src: ri(0x0A0A), Dst: rr(isa.R4)},
		{Op: isa.XOR, Src: rr(isa.R5), Dst: rr(isa.R4)},
		{Op: isa.AND, Src: ri(0x7FFF), Dst: rr(isa.R4)},
		// Fast format I, byte.
		{Op: isa.MOV, Byte: true, Src: rr(isa.R4), Dst: rr(isa.R6)},
		{Op: isa.ADD, Byte: true, Src: ri(0x7F), Dst: rr(isa.R6)},
		{Op: isa.SUB, Byte: true, Src: rr(isa.R5), Dst: rr(isa.R6)},
		{Op: isa.CMP, Byte: true, Src: ri(1), Dst: rr(isa.R6)},
		{Op: isa.XOR, Byte: true, Src: ri(0xFF), Dst: rr(isa.R6)},
		{Op: isa.AND, Byte: true, Src: rr(isa.R4), Dst: rr(isa.R6)},
		{Op: isa.DADD, Byte: true, Src: ri(0x09), Dst: rr(isa.R6)},
		{Op: isa.BIS, Byte: true, Src: ri(2), Dst: rr(isa.R6)},
		{Op: isa.BIC, Byte: true, Src: ri(1), Dst: rr(isa.R6)},
		{Op: isa.ADDC, Byte: true, Src: rr(isa.R4), Dst: rr(isa.R6)},
		{Op: isa.SUBC, Byte: true, Src: rr(isa.R4), Dst: rr(isa.R6)},
		{Op: isa.BIT, Byte: true, Src: ri(4), Dst: rr(isa.R6)},
		// Generic format I: memory operands on either side.
		{Op: isa.MOV, Src: ri(0x2222), Dst: isa.Abs(0x2000)},
		{Op: isa.ADD, Src: isa.Abs(0x2000), Dst: rr(isa.R7)},
		{Op: isa.MOV, Src: ri(0x2000), Dst: rr(isa.R8)},
		{Op: isa.XOR, Src: isa.Ind(isa.R8), Dst: isa.Idx(4, isa.R8)},
		{Op: isa.MOV, Src: isa.IndInc(isa.R8), Dst: rr(isa.R9)},
		{Op: isa.SUB, Byte: true, Src: ri(3), Dst: isa.Abs(0x2001)},
		// Generic one-operand shapes.
		{Op: isa.RRC, Src: rr(isa.R4)},
		{Op: isa.RRA, Src: rr(isa.R5)},
		{Op: isa.RRC, Byte: true, Src: rr(isa.R6)},
		{Op: isa.RRA, Byte: true, Src: rr(isa.R6)},
		{Op: isa.SWPB, Src: rr(isa.R4)},
		{Op: isa.SXT, Src: rr(isa.R6)},
		{Op: isa.PUSH, Byte: true, Src: rr(isa.R4)},
		{Op: isa.PUSH, Src: isa.Abs(0x2000)},
		{Op: isa.RRA, Src: isa.Abs(0x2000)},
		// Specialized one-operand shapes.
		{Op: isa.PUSH, Src: rr(isa.R4)},
		{Op: isa.PUSH, Src: rr(isa.SP)}, // PUSH SP stores the pre-decrement value
		{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: rr(isa.R10)},
		{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: rr(isa.R10)},
		{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: rr(isa.R10)},
		// All eight jump conditions; offset 0 lands on the next instruction
		// whether taken or not, so both outcomes are exercised safely.
		{Op: isa.CMP, Src: ri(0), Dst: rr(isa.R10)},
		{Op: isa.JNE, Dst: isa.Operand{X: 0}},
		{Op: isa.JEQ, Dst: isa.Operand{X: 0}},
		{Op: isa.JNC, Dst: isa.Operand{X: 0}},
		{Op: isa.JC, Dst: isa.Operand{X: 0}},
		{Op: isa.JN, Dst: isa.Operand{X: 0}},
		{Op: isa.JGE, Dst: isa.Operand{X: 0}},
		{Op: isa.JL, Dst: isa.Operand{X: 0}},
		{Op: isa.JMP, Dst: isa.Operand{X: 0}},
		// A real taken backward branch: count R11 down from 3.
		{Op: isa.MOV, Src: ri(3), Dst: rr(isa.R11)},
		{Op: isa.SUB, Src: ri(1), Dst: rr(isa.R11)},
		{Op: isa.JNE, Dst: isa.Operand{X: 0xFFFE}}, // -2 words: back to the SUB
	}
	// CALL #target: the target is the instruction right after the call site;
	// the return address is popped below. RETI: push (return, SR) and pop
	// both, landing on the next instruction with SR restored.
	addr := uint16(0x4400)
	for _, in := range prog {
		addr += in.Size()
	}
	callSize := isa.Instr{Op: isa.CALL, Src: isa.Imm(0)}.Size()
	prog = append(prog, isa.Instr{Op: isa.CALL, Src: isa.Imm(addr + callSize)})
	addr += callSize
	prog = append(prog, isa.Instr{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: rr(isa.R12)})
	addr += prog[len(prog)-1].Size()
	// RETI target = address after the RETI below: two pushes + RETI.
	pushSize := isa.Instr{Op: isa.PUSH, Src: isa.Imm(0x4400)}.Size()
	retiTarget := addr + 2*pushSize + isa.Instr{Op: isa.RETI}.Size()
	prog = append(prog,
		isa.Instr{Op: isa.PUSH, Src: isa.Imm(retiTarget)},
		isa.Instr{Op: isa.PUSH, Src: isa.Imm(0x0003)}, // SR with C and Z set
		isa.Instr{Op: isa.RETI},
		isa.Instr{Op: isa.ADDC, Src: isa.Imm(0), Dst: rr(isa.R12)}, // consumes restored C
	)
	return prog
}

// TestThreadedMatchesSwitch runs threadProgram under the threaded and the
// switch engine and compares every observable: registers, cycles, retired
// instructions, bus statistics, the stop fault, and the full access trace.
func TestThreadedMatchesSwitch(t *testing.T) {
	type result struct {
		regs          [isa.NumRegs]uint16
		cycles, insns uint64
		r, w, f       uint64
		stop          StopReason
		fault         string
		accesses      []mem.Access
	}
	run := func(threaded bool) result {
		bus := mem.NewBus()
		c := New(bus)
		addr := uint16(0x4400)
		for _, in := range threadProgram() {
			for _, w := range isa.MustEncode(in) {
				bus.Poke16(addr, w)
				addr += 2
			}
		}
		c.SetPC(0x4400)
		c.SetSP(0x2400)
		c.UseProgram(isa.Predecode(bus, []isa.TextRange{{Lo: 0x4400, Hi: addr}}), engine.Engine{NoThread: !threaded})
		bound := false
		for pc := uint16(0x4400); pc < addr; pc += 2 {
			if e := c.Program().At(pc); e != nil && e.H != isa.HNone {
				bound = true
			}
		}
		if bound != threaded {
			t.Fatalf("threaded %v, but handlers bound = %v", threaded, bound)
		}
		var accesses []mem.Access
		c.Bus.OnAccess = func(a mem.Access) { accesses = append(accesses, a) }
		stop, fault := c.Run(1_000_000)
		res := result{regs: c.Regs, cycles: c.Cycles, insns: c.Insns, stop: stop, accesses: accesses}
		res.r, res.w, res.f = c.Bus.Stats()
		if fault != nil {
			res.fault = fault.Error()
		}
		return res
	}
	sw, th := run(false), run(true)
	if sw.stop != StopFault {
		t.Fatalf("program should run off the end of text into a decode fault, stopped %v (%s)", sw.stop, sw.fault)
	}
	if sw.regs != th.regs || sw.cycles != th.cycles || sw.insns != th.insns ||
		sw.r != th.r || sw.w != th.w || sw.f != th.f ||
		sw.stop != th.stop || sw.fault != th.fault {
		t.Errorf("engines diverged:\n  switch:   %+v\n  threaded: %+v", sw, th)
	}
	if len(sw.accesses) != len(th.accesses) {
		t.Fatalf("access trace length: switch %d, threaded %d", len(sw.accesses), len(th.accesses))
	}
	for i := range sw.accesses {
		if sw.accesses[i] != th.accesses[i] {
			t.Fatalf("access %d: switch %+v, threaded %+v", i, sw.accesses[i], th.accesses[i])
		}
	}
}
