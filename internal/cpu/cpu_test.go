package cpu

import (
	"testing"

	"amuletiso/internal/isa"
	"amuletiso/internal/mem"
)

// load assembles instrs to addr and points PC at them, SP at top of SRAM.
func load(t *testing.T, instrs ...isa.Instr) *CPU {
	t.Helper()
	bus := mem.NewBus()
	c := New(bus)
	addr := uint16(0x4400)
	for _, in := range instrs {
		for _, w := range isa.MustEncode(in) {
			bus.Poke16(addr, w)
			addr += 2
		}
	}
	c.SetPC(0x4400)
	c.SetSP(0x2400) // top of SRAM
	return c
}

// run steps n instructions, failing the test on any fault.
func run(t *testing.T, c *CPU, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if f := c.Step(); f != nil {
			t.Fatalf("step %d: %v", i, f)
		}
	}
}

func TestMovAddImmediate(t *testing.T) {
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x1234), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.ADD, Src: isa.Imm(0x0101), Dst: isa.RegOp(isa.R4)},
	)
	run(t, c, 2)
	if got := c.Regs[isa.R4]; got != 0x1335 {
		t.Fatalf("R4 = %04X, want 1335", got)
	}
}

func TestAddFlags(t *testing.T) {
	cases := []struct {
		a, b       uint16
		c, z, n, v bool
	}{
		{0x0001, 0x0001, false, false, false, false},
		{0xFFFF, 0x0001, true, true, false, false},  // carry + zero
		{0x7FFF, 0x0001, false, false, true, true},  // signed overflow
		{0x8000, 0x8000, true, true, false, true},   // neg+neg overflow to 0
		{0x8000, 0x0001, false, false, true, false}, // negative result
	}
	for _, cse := range cases {
		c := load(t,
			isa.Instr{Op: isa.MOV, Src: isa.Imm(cse.a), Dst: isa.RegOp(isa.R4)},
			isa.Instr{Op: isa.ADD, Src: isa.Imm(cse.b), Dst: isa.RegOp(isa.R4)},
		)
		run(t, c, 2)
		if c.flag(isa.FlagC) != cse.c || c.flag(isa.FlagZ) != cse.z ||
			c.flag(isa.FlagN) != cse.n || c.flag(isa.FlagV) != cse.v {
			t.Errorf("ADD %04X+%04X: flags C=%v Z=%v N=%v V=%v, want C=%v Z=%v N=%v V=%v",
				cse.a, cse.b, c.flag(isa.FlagC), c.flag(isa.FlagZ), c.flag(isa.FlagN), c.flag(isa.FlagV),
				cse.c, cse.z, cse.n, cse.v)
		}
	}
}

func TestSubAndCmpFlags(t *testing.T) {
	// CMP sets flags like SUB but leaves dst alone. C means "no borrow".
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(5), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.CMP, Src: isa.Imm(5), Dst: isa.RegOp(isa.R4)},
	)
	run(t, c, 2)
	if !c.flag(isa.FlagZ) || !c.flag(isa.FlagC) {
		t.Fatal("CMP equal: want Z=1 C=1")
	}
	if c.Regs[isa.R4] != 5 {
		t.Fatal("CMP modified destination")
	}

	c = load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(4), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.SUB, Src: isa.Imm(5), Dst: isa.RegOp(isa.R4)},
	)
	run(t, c, 2)
	if c.Regs[isa.R4] != 0xFFFF {
		t.Fatalf("4-5 = %04X", c.Regs[isa.R4])
	}
	if c.flag(isa.FlagC) {
		t.Fatal("borrow should clear C")
	}
	if !c.flag(isa.FlagN) {
		t.Fatal("negative result should set N")
	}
}

func TestByteOpsClearHighByte(t *testing.T) {
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0xABCD), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x00FF), Dst: isa.RegOp(isa.R5)},
		isa.Instr{Op: isa.ADD, Byte: true, Src: isa.RegOp(isa.R5), Dst: isa.RegOp(isa.R4)},
	)
	run(t, c, 3)
	if got := c.Regs[isa.R4]; got != 0x00CC {
		t.Fatalf("ADD.B result = %04X, want 00CC (high byte cleared)", got)
	}
	if !c.flag(isa.FlagC) {
		t.Fatal("byte carry not set")
	}
}

func TestLogicalOps(t *testing.T) {
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0xF0F0), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.AND, Src: isa.Imm(0x0FF0), Dst: isa.RegOp(isa.R4)}, // 00F0
		isa.Instr{Op: isa.BIS, Src: isa.Imm(0x000F), Dst: isa.RegOp(isa.R4)}, // 00FF
		isa.Instr{Op: isa.BIC, Src: isa.Imm(0x00F0), Dst: isa.RegOp(isa.R4)}, // 000F
		isa.Instr{Op: isa.XOR, Src: isa.Imm(0xFFFF), Dst: isa.RegOp(isa.R4)}, // FFF0
	)
	run(t, c, 5)
	if got := c.Regs[isa.R4]; got != 0xFFF0 {
		t.Fatalf("logical chain = %04X, want FFF0", got)
	}
	if !c.flag(isa.FlagN) || c.flag(isa.FlagZ) {
		t.Fatal("XOR flags wrong")
	}
}

func TestShiftsAndRotates(t *testing.T) {
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x8003), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.RRA, Src: isa.RegOp(isa.R4)}, // C001, C=1
		isa.Instr{Op: isa.RRC, Src: isa.RegOp(isa.R4)}, // E000, C=1
	)
	run(t, c, 3)
	if got := c.Regs[isa.R4]; got != 0xE000 {
		t.Fatalf("RRA/RRC chain = %04X, want E000", got)
	}
	if !c.flag(isa.FlagC) {
		t.Fatal("carry lost")
	}
}

func TestSwpbSxt(t *testing.T) {
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x1280), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.SWPB, Src: isa.RegOp(isa.R4)}, // 8012
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x0080), Dst: isa.RegOp(isa.R5)},
		isa.Instr{Op: isa.SXT, Src: isa.RegOp(isa.R5)}, // FF80
	)
	run(t, c, 4)
	if c.Regs[isa.R4] != 0x8012 {
		t.Fatalf("SWPB = %04X", c.Regs[isa.R4])
	}
	if c.Regs[isa.R5] != 0xFF80 {
		t.Fatalf("SXT = %04X", c.Regs[isa.R5])
	}
}

func TestDADD(t *testing.T) {
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x0199), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.BIC, Src: isa.Imm(isa.FlagC), Dst: isa.RegOp(isa.SR)},
		isa.Instr{Op: isa.DADD, Src: isa.Imm(0x0001), Dst: isa.RegOp(isa.R4)},
	)
	run(t, c, 3)
	if got := c.Regs[isa.R4]; got != 0x0200 {
		t.Fatalf("DADD 0199+1 = %04X, want 0200 (BCD)", got)
	}
}

func TestMemoryOperands(t *testing.T) {
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0xBEEF), Dst: isa.Abs(0x1C00)},
		isa.Instr{Op: isa.MOV, Src: isa.Abs(0x1C00), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x1C00), Dst: isa.RegOp(isa.R5)},
		isa.Instr{Op: isa.MOV, Src: isa.Ind(isa.R5), Dst: isa.RegOp(isa.R6)},
		isa.Instr{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.Idx(0, isa.R5)},
	)
	run(t, c, 5)
	if c.Regs[isa.R4] != 0xBEEF || c.Regs[isa.R6] != 0xBEEF {
		t.Fatalf("loads = %04X %04X", c.Regs[isa.R4], c.Regs[isa.R6])
	}
	if got := c.Bus.Peek16(0x1C00); got != 0xBEF0 {
		t.Fatalf("indexed RMW = %04X, want BEF0", got)
	}
}

func TestAutoincrement(t *testing.T) {
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x1C00), Dst: isa.RegOp(isa.R5)},
		isa.Instr{Op: isa.MOV, Src: isa.IndInc(isa.R5), Dst: isa.RegOp(isa.R6)},
		isa.Instr{Op: isa.MOV, Byte: true, Src: isa.IndInc(isa.R5), Dst: isa.RegOp(isa.R7)},
	)
	c.Bus.Poke16(0x1C00, 0x2211)
	c.Bus.Poke16(0x1C02, 0x4433)
	run(t, c, 3)
	if c.Regs[isa.R5] != 0x1C03 {
		t.Fatalf("R5 after word+byte autoinc = %04X, want 1C03", c.Regs[isa.R5])
	}
	if c.Regs[isa.R6] != 0x2211 || c.Regs[isa.R7] != 0x0033 {
		t.Fatalf("loads = %04X %04X", c.Regs[isa.R6], c.Regs[isa.R7])
	}
}

func TestPushPopCallRet(t *testing.T) {
	// CALL a subroutine that increments R4 and returns (RET = MOV @SP+, PC).
	// Layout: 0x4400 CALL #0x4410; 0x4404 MOV #halt; ... sub at 0x4410.
	bus := mem.NewBus()
	c := New(bus)
	place := func(addr uint16, ins ...isa.Instr) uint16 {
		for _, in := range ins {
			for _, w := range isa.MustEncode(in) {
				bus.Poke16(addr, w)
				addr += 2
			}
		}
		return addr
	}
	place(0x4400,
		isa.Instr{Op: isa.CALL, Src: isa.Imm(0x4410)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(1), Dst: isa.Abs(PortHalt)},
	)
	place(0x4410,
		isa.Instr{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.PC)}, // RET
	)
	c.SetPC(0x4400)
	c.SetSP(0x2400)
	reason, f := c.Run(1000)
	if f != nil {
		t.Fatal(f)
	}
	if reason != StopHalt {
		t.Fatalf("stop = %v", reason)
	}
	if c.Regs[isa.R4] != 1 {
		t.Fatalf("R4 = %d", c.Regs[isa.R4])
	}
	if c.SP() != 0x2400 {
		t.Fatalf("SP unbalanced: %04X", c.SP())
	}
}

func TestConditionalJumps(t *testing.T) {
	// Signed comparison: -1 < 1 via JL.
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0xFFFF), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.CMP, Src: isa.Imm(1), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.JL, Dst: isa.Operand{Mode: isa.ModeNone, X: 2}}, // skip next (2-word MOV)
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x0BAD), Dst: isa.RegOp(isa.R5)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x600D), Dst: isa.RegOp(isa.R6)},
	)
	run(t, c, 4) // the 4th executed instruction is the final MOV
	if c.Regs[isa.R5] == 0x0BAD {
		t.Fatal("JL not taken for -1 < 1")
	}
	if c.Regs[isa.R6] != 0x600D {
		t.Fatalf("fallthrough wrong: R6=%04X", c.Regs[isa.R6])
	}
	// Unsigned: 0xFFFF >= 1 via JC (JHS).
	c = load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0xFFFF), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.CMP, Src: isa.Imm(1), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.JC, Dst: isa.Operand{Mode: isa.ModeNone, X: 2}},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x0BAD), Dst: isa.RegOp(isa.R5)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x600D), Dst: isa.RegOp(isa.R6)},
	)
	run(t, c, 4)
	if c.Regs[isa.R5] == 0x0BAD {
		t.Fatal("JC not taken for unsigned 0xFFFF >= 1")
	}
}

func TestLoopSum(t *testing.T) {
	// R4 = sum(1..10) using a countdown loop.
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(10), Dst: isa.RegOp(isa.R5)},
		// loop: ADD R5, R4 ; SUB #1, R5 ; JNE loop
		isa.Instr{Op: isa.ADD, Src: isa.RegOp(isa.R5), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.SUB, Src: isa.Imm(1), Dst: isa.RegOp(isa.R5)},
		isa.Instr{Op: isa.JNE, Dst: isa.Operand{Mode: isa.ModeNone, X: 0xFFFD}}, // -3 words
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.Abs(PortHalt)},
	)
	reason, f := c.Run(10000)
	if f != nil {
		t.Fatal(f)
	}
	if reason != StopHalt {
		t.Fatalf("stop = %v", reason)
	}
	if c.Regs[isa.R4] != 55 {
		t.Fatalf("sum = %d, want 55", c.Regs[isa.R4])
	}
}

func TestCycleCountsExact(t *testing.T) {
	// MOV #imm, Rn (2) + ADD Rn, Rn (1) + MOV Rn, &abs (4) = 7 cycles.
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x1234), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.ADD, Src: isa.RegOp(isa.R4), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.MOV, Src: isa.RegOp(isa.R4), Dst: isa.Abs(0x1C00)},
	)
	run(t, c, 3)
	if c.Cycles != 7 {
		t.Fatalf("cycles = %d, want 7", c.Cycles)
	}
	if c.Insns != 3 {
		t.Fatalf("insns = %d", c.Insns)
	}
}

func TestHaltAndConsolePorts(t *testing.T) {
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm('H'), Dst: isa.Abs(PortConsole)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm('i'), Dst: isa.Abs(PortConsole)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(42), Dst: isa.Abs(PortHalt)},
	)
	reason, f := c.Run(100)
	if f != nil {
		t.Fatal(f)
	}
	if reason != StopHalt || c.ExitCode != 42 {
		t.Fatalf("reason=%v exit=%d", reason, c.ExitCode)
	}
	if string(c.Console) != "Hi" {
		t.Fatalf("console = %q", c.Console)
	}
}

func TestSyscallHook(t *testing.T) {
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(7), Dst: isa.Abs(PortSyscall)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.Abs(PortHalt)},
	)
	var gotID uint16
	c.OnSyscall = syscallFunc(func(id uint16) {
		gotID = id
		c.Regs[isa.R12] = 0x1234 // service return value
		c.Cycles += 100          // modeled service cost
	})
	reason, f := c.Run(1000)
	if f != nil || reason != StopHalt {
		t.Fatalf("reason=%v f=%v", reason, f)
	}
	if gotID != 7 || c.Regs[isa.R12] != 0x1234 {
		t.Fatalf("syscall id=%d R12=%04X", gotID, c.Regs[isa.R12])
	}
	if c.Cycles < 100 {
		t.Fatal("service cycles not charged")
	}
}

// syscallFunc adapts a function to SyscallHandler.
type syscallFunc func(id uint16)

func (f syscallFunc) Syscall(id uint16) { f(id) }

func TestTimerPrescale(t *testing.T) {
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.Abs(TimerTAR)}, // reset timer
		// Burn some cycles: 8 x ADD Rn,Rn (1 cycle each).
		isa.Instr{Op: isa.ADD, Src: isa.RegOp(isa.R4), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.ADD, Src: isa.RegOp(isa.R4), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.ADD, Src: isa.RegOp(isa.R4), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.ADD, Src: isa.RegOp(isa.R4), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.MOV, Src: isa.Abs(TimerTAR), Dst: isa.RegOp(isa.R5)},
	)
	run(t, c, 6)
	// 4 cycles of ADDs + 3 of the loading MOV, prescaled by 16 -> TAR reads 0.
	if c.Regs[isa.R5] != 0 {
		t.Fatalf("TAR = %d, want 0 (16-cycle precision)", c.Regs[isa.R5])
	}
	// Cross the 16-cycle boundary.
	c2 := load(t, isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.Abs(TimerTAR)})
	run(t, c2, 1)
	for i := 0; i < 20; i++ {
		c2.Bus.Poke16(c2.PC(), isa.MustEncode(isa.Instr{Op: isa.ADD, Src: isa.RegOp(isa.R4), Dst: isa.RegOp(isa.R4)})[0])
		run(t, c2, 1)
	}
	if got := c2.Bus.Peek16(TimerTAR); got != 1 {
		t.Fatalf("TAR after 20 cycles = %d, want 1", got)
	}
}

func TestInterruptEntryAndRETI(t *testing.T) {
	bus := mem.NewBus()
	c := New(bus)
	// Main: EINT (BIS #GIE, SR); NOP-ish loop. Handler at 0x5000: set R15, RETI.
	addr := uint16(0x4400)
	for _, in := range []isa.Instr{
		{Op: isa.BIS, Src: isa.Imm(8), Dst: isa.RegOp(isa.SR)}, // GIE (CG: #8)
		{Op: isa.MOV, Src: isa.RegOp(isa.R4), Dst: isa.RegOp(isa.R4)},
		{Op: isa.MOV, Src: isa.RegOp(isa.R4), Dst: isa.RegOp(isa.R4)},
		{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.Abs(PortHalt)},
	} {
		for _, w := range isa.MustEncode(in) {
			bus.Poke16(addr, w)
			addr += 2
		}
	}
	addr = 0x5000
	for _, in := range []isa.Instr{
		{Op: isa.MOV, Src: isa.Imm(0x77), Dst: isa.RegOp(isa.R15)},
		{Op: isa.RETI},
	} {
		for _, w := range isa.MustEncode(in) {
			bus.Poke16(addr, w)
			addr += 2
		}
	}
	bus.Poke16(0xFFF2, 0x5000) // vector
	c.SetPC(0x4400)
	c.SetSP(0x2400)
	if f := c.Step(); f != nil { // EINT
		t.Fatal(f)
	}
	c.RequestInterrupt(0xFFF2)
	reason, f := c.Run(1000)
	if f != nil || reason != StopHalt {
		t.Fatalf("reason=%v f=%v", reason, f)
	}
	if c.Regs[isa.R15] != 0x77 {
		t.Fatal("handler did not run")
	}
	if c.SP() != 0x2400 {
		t.Fatalf("SP unbalanced after RETI: %04X", c.SP())
	}
	if c.SRBits()&8 == 0 {
		t.Fatal("GIE not restored by RETI")
	}
}

// blockHigh denies writes above 0x8000 to exercise fault reporting.
type blockHigh struct{}

func (blockHigh) CheckAccess(a mem.Access) *mem.Violation {
	if a.Kind == mem.Write && a.Addr >= 0x8000 {
		return &mem.Violation{Access: a, Rule: "test"}
	}
	return nil
}

func TestFaultAbortsInstruction(t *testing.T) {
	c := load(t,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(1), Dst: isa.Abs(0x9000)},
	)
	c.Bus.SetChecker(blockHigh{})
	f := c.Step()
	if f == nil {
		t.Fatal("no fault")
	}
	if f.PC != 0x4400 {
		t.Fatalf("fault PC = %04X", f.PC)
	}
	if f.Violation == nil || f.Violation.Access.Addr != 0x9000 {
		t.Fatalf("violation = %v", f.Violation)
	}
	if c.Bus.Peek16(0x9000) == 1 {
		t.Fatal("blocked write landed")
	}
}

func TestIllegalInstructionFaults(t *testing.T) {
	bus := mem.NewBus()
	c := New(bus)
	bus.Poke16(0x4400, 0x0000)
	c.SetPC(0x4400)
	if f := c.Step(); f == nil {
		t.Fatal("illegal instruction did not fault")
	}
}

func TestCPUOffStopsRun(t *testing.T) {
	c := load(t,
		isa.Instr{Op: isa.BIS, Src: isa.Imm(isa.FlagCPUOFF), Dst: isa.RegOp(isa.SR)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(1), Dst: isa.RegOp(isa.R4)},
	)
	reason, f := c.Run(100)
	if f != nil {
		t.Fatal(f)
	}
	if reason != StopCPUOff {
		t.Fatalf("reason = %v", reason)
	}
	if c.Regs[isa.R4] == 1 {
		t.Fatal("executed past CPUOFF")
	}
}

func TestRecursiveFactorial(t *testing.T) {
	// fact(n): R12 arg/result, recursion depth n. Classic CALL/RET shape:
	//   fact: CMP #1, R12 ; JL base? (n<=1 -> return 1)
	// Simpler: R13 accumulator iterative is boring; do real recursion:
	//   fact: CMP #2, R12 ; JC rec ; MOV #1, R12 ; RET
	//   rec:  PUSH R12 ; SUB #1, R12 ; CALL #fact ; POP R13 ;
	//         ... multiply R12 * R13 via repeated add -> R12 ; RET
	bus := mem.NewBus()
	c := New(bus)
	place := func(addr uint16, ins ...isa.Instr) uint16 {
		for _, in := range ins {
			for _, w := range isa.MustEncode(in) {
				bus.Poke16(addr, w)
				addr += 2
			}
		}
		return addr
	}
	const fact = 0x4500
	place(0x4400,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(5), Dst: isa.RegOp(isa.R12)},
		isa.Instr{Op: isa.CALL, Src: isa.Imm(fact)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.Abs(PortHalt)},
	)
	place(fact,
		isa.Instr{Op: isa.CMP, Src: isa.Imm(2), Dst: isa.RegOp(isa.R12)}, // n >= 2?
		isa.Instr{Op: isa.JC, Dst: isa.Operand{Mode: isa.ModeNone, X: 2}},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(1), Dst: isa.RegOp(isa.R12)},
		isa.Instr{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.PC)},
		// rec:
		isa.Instr{Op: isa.PUSH, Src: isa.RegOp(isa.R12)},
		isa.Instr{Op: isa.SUB, Src: isa.Imm(1), Dst: isa.RegOp(isa.R12)},
		isa.Instr{Op: isa.CALL, Src: isa.Imm(fact)},
		isa.Instr{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.R13)}, // POP R13 = n
		// multiply: R14 = R12 (fact(n-1)); R12 = 0; loop: ADD R14,R12 ; SUB #1,R13 ; JNE
		isa.Instr{Op: isa.MOV, Src: isa.RegOp(isa.R12), Dst: isa.RegOp(isa.R14)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.RegOp(isa.R12)},
		isa.Instr{Op: isa.ADD, Src: isa.RegOp(isa.R14), Dst: isa.RegOp(isa.R12)},
		isa.Instr{Op: isa.SUB, Src: isa.Imm(1), Dst: isa.RegOp(isa.R13)},
		isa.Instr{Op: isa.JNE, Dst: isa.Operand{Mode: isa.ModeNone, X: 0xFFFD}},
		isa.Instr{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.PC)},
	)
	c.SetPC(0x4400)
	c.SetSP(0x2400)
	reason, f := c.Run(100000)
	if f != nil || reason != StopHalt {
		t.Fatalf("reason=%v f=%v", reason, f)
	}
	if c.Regs[isa.R12] != 120 {
		t.Fatalf("5! = %d, want 120", c.Regs[isa.R12])
	}
}
