package cpu

import (
	"fmt"
	"testing"

	"amuletiso/internal/isa"
	"amuletiso/internal/jit"
	"amuletiso/internal/mem"
	"amuletiso/internal/mpu"
)

// Differential tests for the specialized stack and frame steps: PUSH,
// MOV through a register (POP and RET included), MOV to x(Rn), and CALL.
// Each is compared with the generic tier, directly step against step and
// through whole runs against the interpreter.

// ramDevice is a peripheral that stores words like RAM, so a stack can live
// on a device page.
type ramDevice struct{ regs map[uint16]uint16 }

func (d *ramDevice) DeviceName() string              { return "ram" }
func (d *ramDevice) ReadWord(addr uint16) uint16     { return d.regs[addr] }
func (d *ramDevice) WriteWord(addr uint16, v uint16) { d.regs[addr] = v }

// stackDevLo..stackDevHi is a device window on a peripheral page the
// FR5969 MPU never checks.
const stackDevLo, stackDevHi = 0x0200, 0x02FF

// mpuPrep installs an FR5969 MPU with segment 1 [0x4400, 0x4800) execute
// only, segment 2 [0x4800, 0x4C00) read/write and segment 3 no access, plus
// the RAM-like device window.
func mpuPrep(c *CPU) (*mpu.Unit, *ramDevice) {
	u := mpu.New()
	dev := &ramDevice{regs: map[uint16]uint16{}}
	c.Bus.Map(mpu.RegLo, mpu.RegHi, u)
	c.Bus.Map(stackDevLo, stackDevHi, dev)
	c.Bus.SetChecker(u)
	u.Configure(0x4800, 0x4C00, mpu.RWX(1, false, false, true)|mpu.RWX(2, true, true, false), true)
	return u, dev
}

// stackShapes are the instructions the stack and frame tier binds.
var stackShapes = []isa.Instr{
	{Op: isa.PUSH, Src: isa.RegOp(isa.R5)},
	{Op: isa.PUSH, Src: isa.RegOp(isa.SP)},
	{Op: isa.PUSH, Src: isa.RegOp(isa.PC)},
	{Op: isa.PUSH, Src: isa.Imm(0x1234)},
	{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.R7)}, // POP R7
	{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.SP)}, // MOV @SP+, SP
	{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.PC)}, // RET
	{Op: isa.MOV, Src: isa.IndInc(isa.R5), Dst: isa.RegOp(isa.R5)}, // MOV @R5+, R5
	{Op: isa.MOV, Src: isa.IndInc(isa.R5), Dst: isa.RegOp(isa.R7)}, // MOV @R5+, R7
	{Op: isa.MOV, Src: isa.Ind(isa.SP), Dst: isa.RegOp(isa.R7)},    // MOV @SP, R7
	{Op: isa.MOV, Src: isa.Idx(4, isa.SP), Dst: isa.RegOp(isa.R8)}, // MOV 4(SP), R8
	{Op: isa.MOV, Src: isa.Idx(0xFFFE, isa.R5), Dst: isa.RegOp(isa.SP)},
	{Op: isa.MOV, Src: isa.RegOp(isa.R6), Dst: isa.Idx(2, isa.SP)}, // MOV R6, 2(SP)
	{Op: isa.MOV, Src: isa.RegOp(isa.SP), Dst: isa.Idx(0, isa.SP)}, // MOV SP, 0(SP)
	{Op: isa.MOV, Src: isa.RegOp(isa.PC), Dst: isa.Idx(6, isa.R5)}, // MOV PC, 6(R5)
	{Op: isa.MOV, Src: isa.Imm(0xBEEF), Dst: isa.Idx(0, isa.R5)},   // MOV #k, 0(R5)
	{Op: isa.MOV, Byte: true, Src: isa.IndInc(isa.R5), Dst: isa.RegOp(isa.R7)},
	{Op: isa.MOV, Byte: true, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.R7)},
	{Op: isa.MOV, Byte: true, Src: isa.Idx(3, isa.R5), Dst: isa.RegOp(isa.R7)},
	{Op: isa.MOV, Byte: true, Src: isa.RegOp(isa.R6), Dst: isa.Idx(1, isa.SP)},
	{Op: isa.CALL, Src: isa.Imm(0x4C00)}, // into text segment 3 cannot execute
	{Op: isa.CALL, Src: isa.Imm(0x4402)},
	{Op: isa.CALL, Src: isa.Imm(0x4403)}, // odd target: PC drops bit 0
	{Op: isa.CALL, Src: isa.RegOp(isa.R6)},
	{Op: isa.CALL, Src: isa.RegOp(isa.SP)},
}

// stackPlaces are where SP and R5 point when a shape runs: SRAM (never
// checked), segment 2 (allowed), segment 3 (denied), the device window,
// the MPU's own registers, just under segment 3, and the BSL ROM.
var stackPlaces = []uint16{0x2000, 0x4A00, 0x4C00, 0x4D02, stackDevLo + 0x10, mpu.RegSEGB2, 0x4C02, 0x1002}

// liftShape assembles filler, in, filler at 0x4400 and returns the lifted
// step for in (the filler keeps a terminator inside a block).
func liftShape(t *testing.T, in isa.Instr) *jit.Step {
	t.Helper()
	bus := mem.NewBus()
	addr := uint16(0x4400)
	prog := []isa.Instr{
		{Op: isa.MOV, Src: isa.RegOp(isa.R4), Dst: isa.RegOp(isa.R4)},
		in,
		{Op: isa.MOV, Src: isa.RegOp(isa.R4), Dst: isa.RegOp(isa.R4)},
	}
	for _, p := range prog {
		for _, w := range isa.MustEncode(p) {
			bus.Poke16(addr, w)
			addr += 2
		}
	}
	p := isa.Predecode(bus, []isa.TextRange{{Lo: 0x4400, Hi: addr}})
	for _, b := range p.BlockSpans() {
		if b.Addr != 0x4400 {
			continue
		}
		if lb := jit.Lift(p, b); lb != nil && len(lb.Steps) >= 2 {
			return &lb.Steps[1]
		}
	}
	t.Fatalf("%v: no block lifted", in)
	return nil
}

// stepState is everything a single step can change.
type stepState struct {
	fault         string
	faultPC       uint16
	regs          [isa.NumRegs]uint16
	reads, writes uint64
	slowWrites    uint64
	mem           uint64
	dev           string
	mpuFlags      uint16
	mpuViolations uint64
}

// runShapeStep runs fn once on a fresh MPU machine whose SP and R5 point
// at sp and r5, with R6 = r6 (CALL R6's target), and captures the result.
func runShapeStep(fn func(*CPU) *Fault, sp, r5, r6 uint16) stepState {
	c := New(mem.NewBus())
	u, dev := mpuPrep(c)
	for a := uint16(0x4800); a < 0x4E00; a += 2 {
		c.Bus.Poke16(a, a^0x5A5A)
	}
	for a := uint16(stackDevLo); a < stackDevHi; a += 2 {
		dev.regs[a] = a ^ 0xA5A5
	}
	for r := isa.R4; r <= isa.R15; r++ {
		c.Regs[r] = 0x1100 + uint16(r)
	}
	c.Regs[isa.SP], c.Regs[isa.R5], c.Regs[isa.R6] = sp, r5, r6
	c.Regs[isa.PC] = 0x4400 // compiled steps see the block head in PC
	f := fn(c)
	r, w, _ := c.Bus.Stats()
	s := stepState{
		regs: c.Regs, reads: r, writes: w, slowWrites: c.Bus.SlowWrites(),
		mem: memSum(c.Bus), dev: fmt.Sprint(dev.regs),
		mpuFlags: u.Flags(), mpuViolations: u.Violations(),
	}
	if f != nil {
		s.fault, s.faultPC = f.Error(), f.PC
	}
	return s
}

// TestJITStackStepsMatchGeneric runs every stack and frame shape, bound by
// its specialized tier and by the generic tier, from every stack placement —
// including SP or Rn in a denied segment, on a device page and on the MPU
// registers — and requires identical faults (Fault.PC and Regs[PC] too),
// registers, bus counters, memory, device state and latched MPU flags.
func TestJITStackStepsMatchGeneric(t *testing.T) {
	faults := 0
	for _, in := range stackShapes {
		st := liftShape(t, in)
		spec, generic := compileStep(st)
		if generic || spec == nil {
			t.Fatalf("%v: bound to the generic tier", in)
		}
		gen := compileDispatch(st)
		for _, place := range stackPlaces {
			got, want := runShapeStep(spec, place, place, 0x4410), runShapeStep(gen, place, place, 0x4410)
			if got != want {
				t.Fatalf("%v with SP=R5=%#04x:\n  specialized %+v\n  generic     %+v", in, place, got, want)
			}
			if got.fault != "" {
				faults++
			}
		}
	}
	if faults == 0 {
		t.Fatal("no placement faulted: the denied-segment cases are not exercised")
	}
}

// TestJITFaultedPopKeepsSP pins the autoincrement order: a POP whose read is
// denied faults with SP unchanged and Fault.PC on the POP, compiled or not.
func TestJITFaultedPopKeepsSP(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R6)},
		{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.R7)}, // POP R7 from segment 3
		{Op: isa.MOV, Src: isa.RegOp(isa.R7), Dst: isa.Abs(PortHalt)},
	}
	prep := func(c *CPU) {
		mpuPrep(c)
		c.SetSP(0x4C10)
	}
	compareJIT(t, 1_000_000, prep, prog...)
	res := runJIT(t, true, 1_000_000, false, prep, prog...)
	if res.regs[isa.SP] != 0x4C10 || res.fault == "" {
		t.Fatalf("faulted POP: SP=%#04x fault=%q", res.regs[isa.SP], res.fault)
	}
	if res.regs[isa.PC] != 0x4404 {
		t.Fatalf("faulted POP left PC=%#04x, want past the POP (0x4404)", res.regs[isa.PC])
	}
}

// stackPrograms are whole programs over the stack shapes, each run compiled
// and interpreted under every budget.
var stackPrograms = []struct {
	name string
	prep func(*CPU)
	prog []isa.Instr
}{
	{"push-sp-pop-sp", func(c *CPU) { mpuPrep(c) }, []isa.Instr{
		{Op: isa.MOV, Src: isa.Imm(0x4A00), Dst: isa.RegOp(isa.SP)},
		{Op: isa.PUSH, Src: isa.RegOp(isa.SP)},
		{Op: isa.PUSH, Src: isa.RegOp(isa.SP)},
		{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.SP)}, // SP = 0x49FE
		{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.R9)},
		{Op: isa.MOV, Src: isa.RegOp(isa.SP), Dst: isa.Abs(PortHalt)},
	}},
	{"call-ret", func(c *CPU) { mpuPrep(c) }, []isa.Instr{
		{Op: isa.MOV, Src: isa.Imm(3), Dst: isa.RegOp(isa.R6)},
		{Op: isa.CALL, Src: isa.Imm(0x440E)}, // the subroutine below
		{Op: isa.MOV, Src: isa.RegOp(isa.R6), Dst: isa.Abs(PortHalt)},
		{Op: isa.PUSH, Src: isa.RegOp(isa.R6)}, // 0x440E
		{Op: isa.ADD, Src: isa.Imm(4), Dst: isa.Idx(0, isa.SP)},
		{Op: isa.MOV, Src: isa.Idx(0, isa.SP), Dst: isa.RegOp(isa.R6)},
		{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.R7)},
		{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.PC)}, // RET
	}},
	{"call-into-no-exec", func(c *CPU) { mpuPrep(c) }, []isa.Instr{
		{Op: isa.PUSH, Src: isa.RegOp(isa.R6)},
		{Op: isa.CALL, Src: isa.Imm(0x4C00)},
		{Op: isa.MOV, Src: isa.RegOp(isa.R6), Dst: isa.Abs(PortHalt)},
	}},
	{"stack-on-device-page", func(c *CPU) { mpuPrep(c); c.SetSP(stackDevLo + 0x20) }, []isa.Instr{
		{Op: isa.MOV, Src: isa.Imm(0x77), Dst: isa.RegOp(isa.R5)},
		{Op: isa.PUSH, Src: isa.RegOp(isa.R5)},
		{Op: isa.PUSH, Src: isa.Imm(0x99)},
		{Op: isa.MOV, Src: isa.RegOp(isa.R5), Dst: isa.Idx(2, isa.SP)},
		{Op: isa.MOV, Src: isa.Idx(2, isa.SP), Dst: isa.RegOp(isa.R8)},
		{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.R9)},
		{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.R10)},
		{Op: isa.ADD, Src: isa.RegOp(isa.R9), Dst: isa.RegOp(isa.R10)},
		{Op: isa.MOV, Src: isa.RegOp(isa.R10), Dst: isa.Abs(PortHalt)},
	}},
	{"push-into-denied", func(c *CPU) { mpuPrep(c); c.SetSP(0x4C04) }, []isa.Instr{
		{Op: isa.PUSH, Src: isa.RegOp(isa.R5)}, // 0x4C02: segment 3, denied
		{Op: isa.MOV, Src: isa.RegOp(isa.SP), Dst: isa.Abs(PortHalt)},
	}},
	{"frame-store-denied", func(c *CPU) { mpuPrep(c); c.SetSP(0x4BFC) }, []isa.Instr{
		{Op: isa.MOV, Src: isa.RegOp(isa.R5), Dst: isa.Idx(2, isa.SP)},
		{Op: isa.MOV, Src: isa.RegOp(isa.R5), Dst: isa.Idx(4, isa.SP)}, // 0x4C00: denied
		{Op: isa.MOV, Src: isa.RegOp(isa.SP), Dst: isa.Abs(PortHalt)},
	}},
}

// TestJITStackProgramsMatchInterpreter runs each stack program compiled and
// interpreted under every budget up to completion.
func TestJITStackProgramsMatchInterpreter(t *testing.T) {
	for _, sp := range stackPrograms {
		t.Run(sp.name, func(t *testing.T) {
			for budget := uint64(0); budget <= 80; budget++ {
				compareJIT(t, budget, sp.prep, sp.prog...)
				if t.Failed() {
					t.Fatalf("first divergence at budget %d", budget)
				}
			}
		})
	}
}

// gateProgram calls a gate shaped like aft's MPU-mode API gate: save R4-R11,
// switch the MPU to the OS plan, swap to the OS stack, count the crossing,
// call the syscall port, swap back, restore the app plan, restore R4-R11,
// return. SRAM holds the saved SP (0x2100), the OS stack pointer (0x2102)
// and the crossing count (0x2104).
var gateProgram = func() []isa.Instr {
	prog := []isa.Instr{
		{Op: isa.MOV, Src: isa.Imm(0x44), Dst: isa.RegOp(isa.R4)},
		{Op: isa.CALL, Src: isa.Imm(0x4400)}, // target patched below
		{Op: isa.MOV, Src: isa.RegOp(isa.R4), Dst: isa.Abs(PortHalt)},
	}
	var gate uint16 = 0x4400
	for _, in := range prog {
		gate += in.Size()
	}
	prog[1].Src = isa.Imm(gate)
	for r := isa.R4; r <= isa.R11; r++ {
		prog = append(prog, isa.Instr{Op: isa.PUSH, Src: isa.RegOp(r)})
	}
	osSAM := mpu.RWX(1, false, false, true) | mpu.RWX(2, true, true, false) | mpu.RWX(3, true, true, false)
	appSAM := mpu.RWX(1, false, false, true) | mpu.RWX(2, true, true, false)
	prog = append(prog,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x4800), Dst: isa.Abs(mpu.RegSEGB1)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x4C00), Dst: isa.Abs(mpu.RegSEGB2)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(osSAM), Dst: isa.Abs(mpu.RegSAM)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(mpu.Password | mpu.CtlEnable), Dst: isa.Abs(mpu.RegCTL0)},
		isa.Instr{Op: isa.MOV, Src: isa.RegOp(isa.SP), Dst: isa.Abs(0x2100)},
		isa.Instr{Op: isa.MOV, Src: isa.Abs(0x2102), Dst: isa.RegOp(isa.SP)},
		isa.Instr{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.Abs(0x2104)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(7), Dst: isa.Abs(PortSyscall)},
		isa.Instr{Op: isa.PUSH, Src: isa.RegOp(isa.R12)}, // OS-stack traffic
		isa.Instr{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.R13)},
		isa.Instr{Op: isa.MOV, Src: isa.Abs(0x2100), Dst: isa.RegOp(isa.SP)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x4800), Dst: isa.Abs(mpu.RegSEGB1)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x4C00), Dst: isa.Abs(mpu.RegSEGB2)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(appSAM), Dst: isa.Abs(mpu.RegSAM)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(mpu.Password | mpu.CtlEnable), Dst: isa.Abs(mpu.RegCTL0)},
	)
	for r := isa.R11; r >= isa.R4; r-- {
		prog = append(prog, isa.Instr{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(r)})
	}
	return append(prog, isa.Instr{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.PC)})
}()

// gatePrep runs gateProgram under the app plan of mpuPrep with the OS stack
// at 0x2300.
func gatePrep(c *CPU) {
	mpuPrep(c)
	c.Bus.Poke16(0x2102, 0x2300)
}

// TestRetiredTierCounters checks the per-tier retired-instruction metrics
// Run publishes: they sum to the instructions Run retired, an
// interpreter-only run counts nothing against the JIT tiers, and the gate
// crossing's stack and frame steps retire in the specialized tier.
func TestRetiredTierCounters(t *testing.T) {
	tiers := func() [3]uint64 {
		return [3]uint64{mRetiredInterp.Value(), mRetiredGeneric.Value(), mRetiredSpecial.Value()}
	}
	for _, jitOn := range []bool{false, true} {
		before := tiers()
		res := runJIT(t, jitOn, 1_000_000, false, gatePrep, gateProgram...)
		after := tiers()
		var d [3]uint64
		for i := range d {
			d[i] = after[i] - before[i]
		}
		if d[0]+d[1]+d[2] != res.insns {
			t.Fatalf("jit=%v: tiers %v sum to %d, Run retired %d", jitOn, d, d[0]+d[1]+d[2], res.insns)
		}
		if !jitOn && d[1]+d[2] != 0 {
			t.Fatalf("interpreter run counted %v against the JIT tiers", d)
		}
		// Compiled, the crossing's only generic step is the counter
		// increment (ADD #1, &count), which runs inside a block once.
		if jitOn && (d[1] != 1 || d[2] == 0) {
			t.Fatalf("compiled gate crossing: tiers %v, want one generic step, the rest specialized", d)
		}
	}
}

// FuzzJITStackSteps drives the step differential from fuzz input: a shape,
// then SP, R5 and R6 (any value: odd, wrapping, in the BSL ROM, on a device
// or the MPU registers). The specialized step and the generic tier must
// leave the same machine behind.
func FuzzJITStackSteps(f *testing.F) {
	for i := range stackShapes {
		f.Add(uint8(i), uint16(0x4C00), uint16(stackDevLo+0x10), uint16(0x4410))
	}
	f.Add(uint8(0), uint16(0x0001), uint16(0xFFFF), uint16(0x4C00))
	f.Fuzz(func(t *testing.T, shape uint8, sp, r5, r6 uint16) {
		in := stackShapes[int(shape)%len(stackShapes)]
		st := liftShape(t, in)
		spec, _ := compileStep(st)
		got, want := runShapeStep(spec, sp, r5, r6), runShapeStep(compileDispatch(st), sp, r5, r6)
		if got != want {
			t.Fatalf("%v with SP=%#04x R5=%#04x R6=%#04x:\n  specialized %+v\n  generic     %+v", in, sp, r5, r6, got, want)
		}
	})
}
