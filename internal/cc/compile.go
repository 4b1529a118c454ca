package cc

import (
	"fmt"
	"sync"

	"amuletiso/internal/abi"
	"amuletiso/internal/asm"
	"amuletiso/internal/cpu"
	"amuletiso/internal/isa"
	"amuletiso/internal/mem"
	"amuletiso/internal/mpu"
)

// FaultExitCode is the halt-port value a standalone program's fault stub
// writes, distinguishing isolation faults from normal exits.
const FaultExitCode uint16 = 0xFA17

// ProgramOptions configures CompileProgram.
type ProgramOptions struct {
	Mode Mode
	// StackBytes sizes the program stack; 0 derives it from the analyzer's
	// estimate (with a safety margin) or a 256-byte default when recursion
	// makes the estimate impossible — the same fallback the paper's AFT
	// takes.
	StackBytes int
	// EnableMPU makes the startup code program the MPU with the app plan
	// (seg1 execute-only up to the data segment, seg2 read-write, seg3 no
	// access) before calling main, so upper-bound violations fault in
	// "hardware" even without the kernel.
	EnableMPU bool
	// ShadowReturnStack enables the InfoMem shadow return-address stack
	// (the paper's §5 extension); see cc.GenOptions.
	ShadowReturnStack bool
}

// Program is a linked standalone AmuletC program: the unit's code plus the
// runtime library and a tiny startup, ready to run on a bare machine. The
// kernel-hosted path goes through internal/aft instead; this form exists for
// compiler tests and for the paper's single-app benchmarks (Figure 3).
type Program struct {
	Name    string
	Mode    Mode
	Image   *asm.Image
	Checked *Checked
	Options ProgramOptions

	// Text is the decode-once instruction cache over the program's
	// executable text (OS/runtime code through the end of the app's code
	// segment), built at compile time and shared by every machine Load
	// returns. Load attaches it unless cpu.SetDecodeCache(false) is active.
	Text *isa.Program

	// bootTmpl is the post-load memory snapshot prepared for COW sharing,
	// built lazily on the first Load. Subsequent machines boot as COW views
	// over it (or full clones with -nocow), so torture campaigns that load
	// thousands of machines from a shrunk corpus pay the erased-FRAM fill
	// and segment copy once.
	bootOnce sync.Once
	bootTmpl *mem.Template
}

// stackSize derives the stack reservation.
func stackSize(chk *Checked, opt ProgramOptions) int {
	if opt.StackBytes > 0 {
		return (opt.StackBytes + 1) &^ 1
	}
	if chk.MaxStack < 0 {
		return 256 // recursion: unbounded, take the default and let checks catch overflow
	}
	s := chk.MaxStack + 64
	if s < 128 {
		s = 128
	}
	return (s + 1) &^ 1
}

// CompileProgram compiles a single AmuletC unit with a main() entry into a
// runnable firmware image.
func CompileProgram(name, src string, opt ProgramOptions) (*Program, error) {
	unit, err := Parse(name, src)
	if err != nil {
		return nil, err
	}
	chk, err := Analyze(unit, opt.Mode.Dialect(), false)
	if err != nil {
		return nil, err
	}
	if _, ok := chk.Funcs["main"]; !ok {
		return nil, fmt.Errorf("cc: program %q has no main()", name)
	}

	b := asm.NewBuilder()
	if opt.ShadowReturnStack {
		// Shadow stack pointer + region live in InfoMem; the pointer
		// starts just past itself and the stack grows upward.
		b.Org(mem.InfoLo)
		b.Label(ShadowSPSym)
		b.Word(mem.InfoLo + 2)
	}
	b.Org(mem.FRAMLo)
	b.Label(abi.SymOSCodeLo)
	b.Label("__start")
	if opt.EnableMPU {
		emitMPUSetup(b, name, opt.ShadowReturnStack)
	}
	// SP <- app stack top; call main; halt with R12.
	b.EmitRef(isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.RegOp(isa.SP)},
		asm.Ref{Sym: abi.SymStackTop(name)}, asm.NoRef)
	b.EmitRef(isa.Instr{Op: isa.CALL, Src: isa.Imm(0)},
		asm.Ref{Sym: abi.SymFunc(name, "main")}, asm.NoRef)
	b.Emit(isa.Instr{Op: isa.MOV, Src: isa.RegOp(isa.R12), Dst: isa.Abs(cpu.PortHalt)})
	b.Label("__spin")
	b.Branch(isa.JMP, "__spin")

	// Shared fault sink for the runtime library; halts with the fault code.
	b.Label("os.fault")
	b.Emit(isa.Instr{Op: isa.MOV, Src: isa.Imm(FaultExitCode), Dst: isa.Abs(cpu.PortHalt)})
	b.Branch(isa.JMP, "os.fault")

	if err := asm.Parse(RuntimeAsm, b); err != nil {
		return nil, fmt.Errorf("cc: runtime library: %w", err)
	}

	// App code region.
	b.Align(2)
	b.Label(abi.SymCodeLo(name))
	b.Label(abi.SymFault(name))
	b.Emit(isa.Instr{Op: isa.MOV, Src: isa.Imm(FaultExitCode), Dst: isa.Abs(cpu.PortHalt)})
	b.Branch(isa.JMP, abi.SymFault(name))
	if err := GenerateWithOptions(chk, opt.Mode,
		GenOptions{ShadowReturnStack: opt.ShadowReturnStack}, b); err != nil {
		return nil, err
	}
	b.Label(abi.SymCodeHi(name))

	// Data/stack segment, MPU-aligned: stack at the bottom (growing down
	// toward the execute-only code segment), then globals and strings.
	b.Align(mpu.Granularity)
	b.Label(abi.SymDataLo(name))
	b.Space(uint16(stackSize(chk, opt)))
	b.Label(abi.SymStackTop(name))
	if err := GenerateData(chk, b); err != nil {
		return nil, err
	}
	b.Align(mpu.Granularity)
	b.Label(abi.SymDataHi(name))

	img, err := b.Link()
	if err != nil {
		return nil, err
	}
	if ov := img.Overlaps(); ov != "" {
		return nil, fmt.Errorf("cc: layout: %s", ov)
	}
	img.Entry = img.MustSym("__start")
	// Text stops at the app's data segment: everything below it (startup,
	// runtime library, app code) is immutable at run time, everything above
	// (stack, globals) is not and must go through the live decoder. With the
	// cache globally disabled the decode would be thrown away at Load, so
	// skip it (torture's -nodecodecache campaigns compile thousands of
	// programs).
	var text *isa.Program
	if cpu.DecodeCacheEnabled() {
		text = isa.Predecode(img, []isa.TextRange{
			{Lo: mem.FRAMLo, Hi: img.MustSym(abi.SymDataLo(name))},
		})
	}
	return &Program{Name: name, Mode: opt.Mode, Image: img, Checked: chk, Options: opt, Text: text}, nil
}

// emitMPUSetup emits startup code that programs the MPU registers with the
// app plan using link-time boundary symbols. With the shadow stack enabled
// the InfoMem segment gets read-write rights: compiled app stores are all
// bound-checked against the data segment, so apps cannot reach it anyway.
func emitMPUSetup(b *asm.Builder, unit string, shadow bool) {
	b.EmitRef(isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.Abs(mpu.RegSEGB1)},
		asm.Ref{Sym: abi.SymDataLo(unit)}, asm.NoRef)
	b.EmitRef(isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.Abs(mpu.RegSEGB2)},
		asm.Ref{Sym: abi.SymDataHi(unit)}, asm.NoRef)
	sam := mpu.RWX(1, false, false, true) | mpu.RWX(2, true, true, false)
	if shadow {
		sam |= mpu.RWX(0, true, true, false)
	}
	b.Emit(isa.Instr{Op: isa.MOV, Src: isa.Imm(sam), Dst: isa.Abs(mpu.RegSAM)})
	b.Emit(isa.Instr{Op: isa.MOV, Src: isa.Imm(mpu.Password | mpu.CtlEnable), Dst: isa.Abs(mpu.RegCTL0)})
}

// Machine is a loaded standalone program ready to execute.
type Machine struct {
	CPU *cpu.CPU
	Bus *mem.Bus
	MPU *mpu.Unit
	Img *asm.Image
}

// Load instantiates a machine for the program. When the program was built
// with EnableMPU, a real MPU model is attached to the bus. The first Load
// snapshots the post-load memory image; later machines boot from it as COW
// views (full clones under the -nocow oracle) instead of replaying the load.
func (p *Program) Load() *Machine {
	p.bootOnce.Do(func() {
		scratch := mem.NewBus()
		p.Image.LoadInto(scratch)
		img := new(mem.BusImage)
		scratch.SnapshotData(img)
		p.bootTmpl = mem.NewTemplate(img)
	})
	var bus *mem.Bus
	if mem.COWEnabled() {
		bus = mem.NewBusCOW(p.bootTmpl, nil)
	} else {
		bus = mem.NewBusFrom(p.bootTmpl.Image())
	}
	c := cpu.New(bus)
	m := &Machine{CPU: c, Bus: bus, Img: p.Image}
	u := mpu.New()
	bus.Map(mpu.RegLo, mpu.RegHi, u)
	bus.SetChecker(u)
	m.MPU = u
	c.SetPC(p.Image.Entry)
	c.UseProgram(p.Text)
	return m
}

// Run executes the program to completion (halt) within the cycle budget.
func (m *Machine) Run(budget uint64) (cpu.StopReason, *cpu.Fault) {
	return m.CPU.Run(budget)
}

// Sym resolves a symbol address from the program image.
func (m *Machine) Sym(name string) uint16 { return m.Img.MustSym(name) }
