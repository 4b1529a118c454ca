package cpu

import (
	"fmt"
	"testing"

	"amuletiso/internal/isa"
	"amuletiso/internal/mem"
	"amuletiso/internal/mpu"
)

// engineResult is the complete observable machine state after a run — the
// fingerprint the compiled and interpreted engines must agree on bit for bit.
type engineResult struct {
	stop    StopReason
	fault   string
	regs    [isa.NumRegs]uint16
	cycles  uint64
	insns   uint64
	reads   uint64
	writes  uint64
	fetches uint64
	halted  bool
	exit    uint16
	trace   string
}

// runJIT assembles instrs at 0x4400 and runs them under Run(budget) with the
// superblock JIT on or off. It attaches NO access profiler by default: a profiler lawfully disables block execution (the certificate fast
// path carries it), so profiled runs never exercise compiled code. withTrace
// turns the profiler on for the runs that pin exactly that deferral.
func runJIT(t *testing.T, jit bool, budget uint64, withTrace bool, prep func(*CPU), instrs ...isa.Instr) engineResult {
	t.Helper()
	defer isa.SetJIT(true)
	isa.SetJIT(jit)
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
	c.SetSP(0x2400)
	c.UseProgram(isa.Predecode(bus, []isa.TextRange{{Lo: 0x4400, Hi: addr}}))
	if jit && c.jit == nil {
		t.Fatal("JIT enabled but no block plan attached to the probe program")
	}
	trace := ""
	if withTrace {
		bus.OnAccess = func(a mem.Access) {
			trace += fmt.Sprintf("%v:%04X:%04X;", a.Kind, a.Addr, a.Value)
		}
	}
	if prep != nil {
		prep(c)
	}
	stop, fault := c.Run(budget)
	r, w, f := bus.Stats()
	res := engineResult{
		stop: stop, regs: c.Regs, cycles: c.Cycles, insns: c.Insns,
		reads: r, writes: w, fetches: f, halted: c.Halted, exit: c.ExitCode,
		trace: trace,
	}
	if fault != nil {
		res.fault = fault.Error()
	}
	return res
}

// compareJIT runs the program compiled and interpreted and fails on any
// observable difference: stop reason, fault, all sixteen registers, cycle and
// instruction counts, and the read/write/fetch bus statistics.
func compareJIT(t *testing.T, budget uint64, prep func(*CPU), instrs ...isa.Instr) {
	t.Helper()
	interp := runJIT(t, false, budget, false, prep, instrs...)
	jit := runJIT(t, true, budget, false, prep, instrs...)
	if interp != jit {
		t.Errorf("budget %d: state diverged\n  interp: %+v\n  jit:    %+v", budget, interp, jit)
	}
}

// jitProgram is dense in everything the lifter optimizes: constant MOVs
// (immediate folding), ALU chains whose flags die before use (dead-flag
// elimination), absolute-address stores and loads (address folding, segment
// splits after every store), and a CMP+Jcc loop condition terminating each
// block. Exit code in R4 via the debug port.
var jitProgram = []isa.Instr{
	{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.RegOp(isa.R4)},
	{Op: isa.MOV, Src: isa.Imm(7), Dst: isa.RegOp(isa.R6)},
	// loop:
	{Op: isa.MOV, Src: isa.RegOp(isa.R4), Dst: isa.Abs(0x2000)}, // folded store, splits the segment
	{Op: isa.XOR, Src: isa.Abs(0x2000), Dst: isa.RegOp(isa.R7)}, // folded load
	// Pure register chain with no memory access until the CMP: the first
	// three flag stores are provably dead (each overwritten before any
	// fault could observe them) and get elided.
	{Op: isa.ADD, Src: isa.Imm(3), Dst: isa.RegOp(isa.R4)},
	{Op: isa.XOR, Src: isa.RegOp(isa.R6), Dst: isa.RegOp(isa.R5)},
	{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R6)},
	{Op: isa.CMP, Src: isa.Imm(60), Dst: isa.RegOp(isa.R4)}, // live: JL reads the flags
	{Op: isa.JL, Dst: isa.Operand{X: 0xFFF5}},               // -11 words, back to loop
	{Op: isa.MOV, Src: isa.RegOp(isa.R4), Dst: isa.Abs(PortHalt)},
}

// TestJITBudgetSweep runs the block-dense loop under every cycle budget from
// 0 to past completion: each budget lands the stop at a different instruction
// — most of them inside a compiled segment — and the compiled engine must
// stop in exactly the same state the interpreter does (the budget-deopt
// atomicity property: a segment only runs when the interpreter would have
// retired every step of it too).
func TestJITBudgetSweep(t *testing.T) {
	for budget := uint64(0); budget <= 900; budget++ {
		compareJIT(t, budget, nil, jitProgram...)
		if t.Failed() {
			t.Fatalf("first divergence at budget %d", budget)
		}
	}
	res := runJIT(t, true, 1_000_000, false, nil, jitProgram...)
	if !res.halted || res.exit != 60 {
		t.Fatalf("loop did not complete: %+v", res)
	}
}

// TestJITJumpIntoBlockInterior pins the overlapping-block rule: a branch
// target inside a longer straight-line run starts a block of its own, so
// entering mid-run executes compiled code from that address — identically to
// interpreting from it.
func TestJITJumpIntoBlockInterior(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.MOV, Src: isa.Imm(5), Dst: isa.RegOp(isa.R4)},
		{Op: isa.JMP, Dst: isa.Operand{X: 4}}, // into the interior of the run below
		// A straight-line run; the jump lands on its third instruction.
		{Op: isa.ADD, Src: isa.Imm(0x100), Dst: isa.RegOp(isa.R4)}, // skipped
		{Op: isa.ADD, Src: isa.Imm(0x200), Dst: isa.RegOp(isa.R4)}, // skipped
		{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R5)},     // jump target
		{Op: isa.ADD, Src: isa.RegOp(isa.R5), Dst: isa.RegOp(isa.R4)},
		{Op: isa.MOV, Src: isa.RegOp(isa.R4), Dst: isa.Abs(PortHalt)},
	}
	res := runJIT(t, true, 1_000_000, false, nil, prog...)
	if !res.halted || res.exit != 6 {
		t.Fatalf("interior entry executed wrong path: %+v", res)
	}
	for budget := uint64(0); budget <= 40; budget++ {
		compareJIT(t, budget, nil, prog...)
	}
}

// TestJITInterruptMidBlock enables GIE partway through a block while an
// interrupt is pending: writing SR is a barrier that ends its segment, and
// the pending-IRQ check at the next segment boundary must deopt so the
// interpreter services the interrupt exactly where it would have unjitted.
func TestJITInterruptMidBlock(t *testing.T) {
	const vec = 0xFFF2
	prog := []isa.Instr{
		{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R6)},
		{Op: isa.MOV, Src: isa.Imm(uint16(isa.FlagGIE)), Dst: isa.RegOp(isa.SR)}, // barrier mid-block
		{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R6)},                   // IRQ services before this
		{Op: isa.MOV, Src: isa.RegOp(isa.R6), Dst: isa.Abs(PortHalt)},
	}
	isr := []isa.Instr{
		{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R7)},
		{Op: isa.RETI},
	}
	all := append(append([]isa.Instr{}, prog...), isr...)
	isrAddr := uint16(0x4400)
	for _, in := range prog {
		isrAddr += in.Size()
	}
	prep := func(c *CPU) {
		c.Bus.Poke16(vec, isrAddr)
		c.RequestInterrupt(vec)
	}
	for budget := uint64(0); budget <= 60; budget++ {
		compareJIT(t, budget, prep, all...)
	}
	res := runJIT(t, true, 1_000_000, false, prep, all...)
	if res.regs[isa.R7] != 1 {
		t.Fatalf("ISR did not run exactly once: R7 = %d", res.regs[isa.R7])
	}
	if !res.halted || res.exit != 2 {
		t.Fatalf("main line did not complete after the ISR: %+v", res)
	}
}

// TestJITSelfModifyMidBlock makes an early store in a block overwrite a later
// instruction of the same block (SP aimed into the code): the store ends its
// segment, and the dirty-span re-probe before the next segment must deopt to
// the interpreter, which live-decodes the NEW instruction.
func TestJITSelfModifyMidBlock(t *testing.T) {
	patch := isa.MustEncode(isa.Instr{Op: isa.MOV, Src: isa.RegOp(isa.R4), Dst: isa.RegOp(isa.R7)})
	if len(patch) != 1 {
		t.Fatalf("patch instruction must be one word, got %d", len(patch))
	}
	prog := []isa.Instr{
		{Op: isa.ADD, Src: isa.Imm(0), Dst: isa.RegOp(isa.R6)},
		{Op: isa.PUSH, Src: isa.RegOp(isa.R4)}, // writes 0x4404: replaces PUSH R5
		{Op: isa.PUSH, Src: isa.RegOp(isa.R5)}, // becomes MOV R4, R7
		{Op: isa.MOV, Src: isa.RegOp(isa.R7), Dst: isa.Abs(PortHalt)},
	}
	prep := func(c *CPU) {
		c.SetSP(0x4406)
		c.Regs[isa.R4] = patch[0]
	}
	for budget := uint64(0); budget <= 30; budget++ {
		compareJIT(t, budget, prep, prog...)
	}
	res := runJIT(t, true, 1_000_000, false, prep, prog...)
	if !res.halted || res.exit != patch[0] {
		t.Fatalf("overwritten instruction did not execute: %+v", res)
	}
}

// TestJITPlanChangeMidBlock has a block revoke its own execute right: a
// store into the MPU's SAM register takes segment 1's execute bit away, so
// the interpreter faults fetching the very next instruction. The store is a
// checked device write, never a data fast-path store, so the re-probe before
// the next segment must run and deopt. Stack pushes between the plan writes
// take the fast path and must not suppress that re-probe.
func TestJITPlanChangeMidBlock(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R6)},
		{Op: isa.PUSH, Src: isa.RegOp(isa.R6)},                        // fast-path store (SRAM)
		{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R6)},        // segment after a skipped re-probe
		{Op: isa.MOV, Src: isa.Imm(0x7773), Dst: isa.Abs(mpu.RegSAM)}, // segment 1 loses X
		{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R6)},        // fetch denied here
		{Op: isa.MOV, Src: isa.RegOp(isa.R6), Dst: isa.Abs(PortHalt)},
	}
	prep := func(c *CPU) {
		u := mpu.New()
		c.Bus.Map(mpu.RegLo, mpu.RegHi, u)
		c.Bus.SetChecker(u)
		u.Configure(0x4800, 0x4C00, 0x7777, true)
	}
	for budget := uint64(0); budget <= 40; budget++ {
		compareJIT(t, budget, prep, prog...)
	}
	res := runJIT(t, true, 1_000_000, false, prep, prog...)
	if res.halted || res.fault == "" || res.regs[isa.R6] != 2 {
		t.Fatalf("revoked execute right did not stop the block: %+v", res)
	}
}

// TestJITDefersToProfiler pins the entry rule: with a bus access profiler
// attached, compiled blocks never run (the whole-span certificate check
// carries the profiler gate), so the access trace is identical to the
// interpreter's by construction.
func TestJITDefersToProfiler(t *testing.T) {
	interp := runJIT(t, false, 1_000_000, true, nil, jitProgram...)
	jit := runJIT(t, true, 1_000_000, true, nil, jitProgram...)
	if interp != jit {
		t.Fatalf("profiled runs diverged\n  interp: %+v\n  jit:    %+v", interp, jit)
	}
	if interp.trace == "" {
		t.Fatal("profiler captured no accesses")
	}
}

// TestJITBareStepSingleInstruction pins the Step contract: outside Run the
// run limit is zero, which gates block execution off, so a bare Step
// retires exactly one instruction even on a block head.
func TestJITBareStepSingleInstruction(t *testing.T) {
	defer isa.SetJIT(true)
	isa.SetJIT(true)
	c, _ := loadProgram(t, true, fetchProgram...)
	if c.jit == nil {
		t.Fatal("no block plan attached to the probe program")
	}
	for i := range fetchProgram {
		if f := c.Step(); f != nil {
			t.Fatalf("step %d: %v", i, f)
		}
		if c.Insns != uint64(i+1) {
			t.Fatalf("after %d bare Steps: %d instructions retired", i+1, c.Insns)
		}
	}
}
