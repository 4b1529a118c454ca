// Package aft implements the Amulet Firmware Toolchain: it merges a set of
// application sources with the OS support code into one firmware image,
// following the paper's four-phase pipeline (§3):
//
//  1. language/feature checks, per-app enumeration of memory accesses and
//     API calls, call-graph and stack analysis (internal/cc's Analyze);
//  2. injection of MPU-configuration code and memory-access checks
//     (internal/cc's Generate, plus the gates emitted here);
//  3. memory-section marking and stack-switching assembly (the per-app
//     sections and OS gates/veneer emitted here);
//  4. final placement: apps in high FRAM per Figure 1, boundary symbols
//     bound to 1 KiB MPU-aligned addresses, checks patched by the linker.
//
// The resulting memory map is exactly Figure 1: OS code in low FRAM
// (execute-only under every plan), OS data above it, then each app's code
// followed by its data/stack segment, stacks at the bottom of each data
// segment growing down toward execute-only code.
package aft

import (
	"fmt"

	"amuletiso/internal/abi"
	"amuletiso/internal/asm"
	"amuletiso/internal/cc"
	"amuletiso/internal/cpu"
	"amuletiso/internal/isa"
	"amuletiso/internal/mem"
	"amuletiso/internal/mpu"
	"amuletiso/internal/obs"
)

// AppSource is one application given to the toolchain.
type AppSource struct {
	Name string
	// Source is the AmuletC source. When building ModeFeatureLimited and
	// RestrictedSource is non-empty, that variant is used instead (for
	// apps whose full-dialect version uses pointers).
	Source           string
	RestrictedSource string
	// StackBytes overrides the analyzer's stack estimate (0 = automatic).
	StackBytes int
}

// src returns the dialect-appropriate source text.
func (a AppSource) src(mode cc.Mode) string {
	if mode == cc.ModeFeatureLimited && a.RestrictedSource != "" {
		return a.RestrictedSource
	}
	return a.Source
}

// AppInfo describes one application in a linked firmware image.
type AppInfo struct {
	Name string
	ID   uint16

	CodeLo, CodeHi uint16 // [CodeLo, CodeHi): code segment (the paper's Ci)
	DataLo, DataHi uint16 // [DataLo, DataHi): data/stack segment (Di, Ei)
	StackTop       uint16 // initial SP (bottom of data segment + stack size)
	Handler        uint16 // address of handle_event

	// MPU plan while this app runs: seg1 [FRAM, B1) X-only,
	// seg2 [B1, B2) RW, seg3 [B2, top] no access.
	PlanB1, PlanB2, PlanSAM uint16

	Checked *cc.Checked // analyzer output (ARP consumes this)
}

// Firmware is a linked multi-app image plus everything the kernel needs.
//
// A Firmware is immutable after Build: the kernel clones the image bytes
// into its own bus at boot and only reads the app descriptors, so a single
// built Firmware may back any number of concurrently running kernels — the
// property fleet simulation's build cache relies on.
type Firmware struct {
	Mode  cc.Mode
	Image *asm.Image
	Apps  []*AppInfo

	// OS-plan MPU configuration (while the kernel runs).
	OSPlanB1, OSPlanB2, OSPlanSAM uint16

	// Key OS addresses.
	Dispatch  uint16 // event dispatch veneer
	OSStackSP uint16 // initial OS stack pointer (top of SRAM)

	// Vars holds the OS variables' data addresses.
	Vars OSVars

	// Text is the decode-once instruction cache over the firmware's
	// executable text (OS code plus every app's code segment). Like the
	// image it is immutable after Build and shared by every kernel booted
	// from this firmware, so a fleet of devices pays the decode cost once
	// per (app set, mode) build rather than once per executed instruction.
	Text *isa.Program
}

// OSVars are the data addresses of the OS variables (the os.var.* symbols),
// resolved once at build so the kernel's per-dispatch priming does no
// symbol lookups.
type OSVars struct {
	SavedSP, OSStackSP, AppSP uint16
	CurB1, CurB2, CurSAM      uint16
	GateCount, CurApp         uint16
}

// AppSAM is the MPUSAM app plan: seg1 execute-only, seg2 read/write,
// seg3 and InfoMem no access.
var AppSAM = mpu.RWX(1, false, false, true) | mpu.RWX(2, true, true, false)

// OSSAM is the MPUSAM OS plan: OS code execute-only, OS data and all apps
// read/write (the OS may touch app memory on their behalf).
var OSSAM = mpu.RWX(1, false, false, true) | mpu.RWX(2, true, true, false) |
	mpu.RWX(3, true, true, false)

// osVarSyms lists the OS variables materialized in OS data, in layout order.
var osVarSyms = []string{
	abi.SymVarSavedSP, abi.SymVarOSStackSP, abi.SymVarAppSP,
	abi.SymVarCurB1, abi.SymVarCurB2, abi.SymVarCurSAM,
	abi.SymVarGateCount, abi.SymVarCurApp,
}

// OSStackTop is the initial OS stack pointer (grows down through SRAM).
const OSStackTop = mem.SRAMHi + 1

// BuildError wraps a per-app failure with the app's name.
type BuildError struct {
	App string
	Err error
}

func (e *BuildError) Error() string { return fmt.Sprintf("aft: app %q: %v", e.App, e.Err) }

// mBuilds counts every full pipeline run in the process — cached fleet
// builds and one-shot CLI builds alike (BuildCache hit counters tell the two
// apart).
var mBuilds = obs.Default.Counter(obs.MetricFirmwareBuilds,
	"Full firmware build pipeline runs (compile, link, predecode).")

// Build runs the full pipeline for the given isolation mode.
func Build(apps []AppSource, mode cc.Mode) (*Firmware, error) {
	mBuilds.Inc()
	if len(apps) == 0 {
		return nil, fmt.Errorf("aft: no applications given")
	}
	seen := map[string]bool{}
	for _, a := range apps {
		if seen[a.Name] {
			return nil, fmt.Errorf("aft: duplicate app name %q", a.Name)
		}
		seen[a.Name] = true
	}

	// Phase 1: parse and analyze every app.
	checked := make([]*cc.Checked, len(apps))
	for i, a := range apps {
		unit, err := cc.Parse(a.Name, a.src(mode))
		if err != nil {
			return nil, &BuildError{a.Name, err}
		}
		chk, err := cc.Analyze(unit, mode.Dialect(), true)
		if err != nil {
			return nil, &BuildError{a.Name, err}
		}
		if mode == cc.ModeFeatureLimited && chk.Recursive {
			return nil, &BuildError{a.Name,
				fmt.Errorf("recursion is not allowed in Amulet C (stack cannot be bounded)")}
		}
		checked[i] = chk
	}

	// Phases 2-4: emit OS support, then each app's sections; the linker
	// binds the boundary symbols the injected checks compare against.
	b := asm.NewBuilder()
	b.Org(mem.FRAMLo)
	b.Label(abi.SymOSCodeLo)
	emitDispatch(b, mode)
	for _, api := range abi.API {
		emitGate(b, mode, api)
	}
	b.Label(abi.SymGateFail)
	b.Label(abi.SymOSFault)
	b.Emit(isa.Instr{Op: isa.MOV, Src: isa.Imm(abi.FaultCurrentApp), Dst: isa.Abs(abi.PortFault)})
	b.Branch(isa.JMP, abi.SymOSFault)
	if err := asm.Parse(cc.RuntimeAsm, b); err != nil {
		return nil, fmt.Errorf("aft: runtime library: %w", err)
	}

	// OS data block (MPU boundary 1 of the OS plan).
	b.Align(mpu.Granularity)
	b.Label(abi.SymOSDataLo)
	for _, sym := range osVarSyms {
		b.Label(sym)
		if sym == abi.SymVarOSStackSP {
			b.Word(OSStackTop)
		} else {
			b.Word(0)
		}
	}

	// Apps, packed per Figure 1.
	b.Align(mpu.Granularity)
	b.Label(abi.SymAppsBase)
	for i, a := range apps {
		chk := checked[i]
		b.Label(abi.SymCodeLo(a.Name))
		b.Label(abi.SymFault(a.Name))
		b.Emit(isa.Instr{Op: isa.MOV, Src: isa.Imm(uint16(i)), Dst: isa.Abs(abi.PortFault)})
		b.Branch(isa.JMP, abi.SymFault(a.Name))
		if err := cc.Generate(chk, mode, b); err != nil {
			return nil, &BuildError{a.Name, err}
		}
		b.Label(abi.SymCodeHi(a.Name))
		b.Align(mpu.Granularity)
		b.Label(abi.SymDataLo(a.Name))
		b.Space(uint16(appStack(chk, apps[i].StackBytes)))
		b.Label(abi.SymStackTop(a.Name))
		if err := cc.GenerateData(chk, b); err != nil {
			return nil, &BuildError{a.Name, err}
		}
		b.Align(mpu.Granularity)
		b.Label(abi.SymDataHi(a.Name))
	}

	img, err := b.Link()
	if err != nil {
		return nil, err
	}
	if ov := img.Overlaps(); ov != "" {
		return nil, fmt.Errorf("aft: layout: %s", ov)
	}

	fw := &Firmware{
		Mode:      mode,
		Image:     img,
		OSPlanB1:  img.MustSym(abi.SymOSDataLo),
		OSPlanB2:  img.MustSym(abi.SymAppsBase),
		OSPlanSAM: OSSAM,
		Dispatch:  img.MustSym(abi.SymDispatch),
		OSStackSP: OSStackTop,
		Vars: OSVars{
			SavedSP:   img.MustSym(abi.SymVarSavedSP),
			OSStackSP: img.MustSym(abi.SymVarOSStackSP),
			AppSP:     img.MustSym(abi.SymVarAppSP),
			CurB1:     img.MustSym(abi.SymVarCurB1),
			CurB2:     img.MustSym(abi.SymVarCurB2),
			CurSAM:    img.MustSym(abi.SymVarCurSAM),
			GateCount: img.MustSym(abi.SymVarGateCount),
			CurApp:    img.MustSym(abi.SymVarCurApp),
		},
	}
	for i, a := range apps {
		info := &AppInfo{
			Name:     a.Name,
			ID:       uint16(i),
			CodeLo:   img.MustSym(abi.SymCodeLo(a.Name)),
			CodeHi:   img.MustSym(abi.SymCodeHi(a.Name)),
			DataLo:   img.MustSym(abi.SymDataLo(a.Name)),
			DataHi:   img.MustSym(abi.SymDataHi(a.Name)),
			StackTop: img.MustSym(abi.SymStackTop(a.Name)),
			Handler:  img.MustSym(abi.SymFunc(a.Name, cc.HandlerName)),
			Checked:  checked[i],
		}
		info.PlanB1 = info.DataLo
		info.PlanB2 = info.DataHi
		info.PlanSAM = AppSAM
		fw.Apps = append(fw.Apps, info)
		if info.DataHi < info.DataLo || (i == len(apps)-1 && info.DataHi > mem.VectLo) {
			return nil, fmt.Errorf("aft: app %q does not fit in FRAM (data ends at 0x%04X)",
				a.Name, info.DataHi)
		}
	}
	// Predecode the executable text once per build. Data/stack segments are
	// deliberately excluded: they are mutable, so caching them would force
	// the bus watch onto every stack push and global store.
	ranges := []isa.TextRange{{Lo: mem.FRAMLo, Hi: img.MustSym(abi.SymOSDataLo)}}
	for _, info := range fw.Apps {
		ranges = append(ranges, isa.TextRange{Lo: info.CodeLo, Hi: info.CodeHi})
	}
	fw.Text = isa.Predecode(img, ranges)
	return fw, nil
}

// appStack sizes an app's stack reservation, mirroring the paper: use the
// phase-1 estimate when the call graph is bounded, otherwise a default that
// the MPU (or checks) will police.
func appStack(chk *cc.Checked, override int) int {
	if override > 0 {
		return (override + 1) &^ 1
	}
	if chk.MaxStack < 0 {
		return 256
	}
	s := chk.MaxStack + 64
	if s < 128 {
		s = 128
	}
	return (s + 1) &^ 1
}

// emitDispatch emits the OS->app event dispatch veneer. The kernel preloads
// R11 = handler address, R12 = event, R13 = argument, the os.var.* block,
// and points PC here with SP on the OS stack.
func emitDispatch(b *asm.Builder, mode cc.Mode) {
	abs := func(sym string) (isa.Operand, asm.Ref) {
		return isa.Abs(0), asm.Ref{Sym: sym}
	}
	b.Label(abi.SymDispatch)
	// Install the app's stack.
	o, r := abs(abi.SymVarAppSP)
	b.EmitRef(isa.Instr{Op: isa.MOV, Src: o, Dst: isa.RegOp(isa.SP)}, r, asm.NoRef)
	if mode == cc.ModeMPU {
		// Enter the app's MPU plan. The cur_* variables live in OS data,
		// which becomes execute-only the moment the app boundaries land in
		// the registers — so stage all three values in scratch registers
		// while the OS plan is still fully active, then write the MPU.
		// R8-R10 are dead here (the handler has not started yet).
		emitLoadPlanToRegs(b, isa.R8, isa.R9, isa.R10)
		emitWritePlanFromRegs(b, isa.R8, isa.R9, isa.R10)
	}
	b.Emit(isa.Instr{Op: isa.CALL, Src: isa.RegOp(isa.R11)})
	if mode == cc.ModeMPU {
		// Back to the OS plan.
		b.EmitRef(isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.Abs(mpu.RegSEGB1)},
			asm.Ref{Sym: abi.SymOSDataLo}, asm.NoRef)
		b.EmitRef(isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.Abs(mpu.RegSEGB2)},
			asm.Ref{Sym: abi.SymAppsBase}, asm.NoRef)
		b.Emit(isa.Instr{Op: isa.MOV, Src: isa.Imm(OSSAM), Dst: isa.Abs(mpu.RegSAM)})
	}
	// Back to the OS stack; tell the kernel the event completed; idle.
	o, r = abs(abi.SymVarOSStackSP)
	b.EmitRef(isa.Instr{Op: isa.MOV, Src: o, Dst: isa.RegOp(isa.SP)}, r, asm.NoRef)
	b.Emit(isa.Instr{Op: isa.MOV, Src: isa.Imm(1), Dst: isa.Abs(abi.PortYield)})
	b.Label("os.dispatch.idle")
	b.Emit(isa.Instr{Op: isa.BIS, Src: isa.Imm(uint16(isa.FlagCPUOFF)), Dst: isa.RegOp(isa.SR)})
	b.Branch(isa.JMP, "os.dispatch.idle")
}

// emitLoadPlanToRegs stages the current app's MPU plan (cur_b1/b2/sam) into
// three registers while OS data is still readable.
func emitLoadPlanToRegs(b *asm.Builder, r1, r2, r3 isa.Reg) {
	for _, p := range []struct {
		sym string
		r   isa.Reg
	}{
		{abi.SymVarCurB1, r1}, {abi.SymVarCurB2, r2}, {abi.SymVarCurSAM, r3},
	} {
		b.EmitRef(isa.Instr{Op: isa.MOV, Src: isa.Abs(0), Dst: isa.RegOp(p.r)},
			asm.Ref{Sym: p.sym}, asm.NoRef)
	}
}

// emitWritePlanFromRegs programs the MPU from staged registers.
func emitWritePlanFromRegs(b *asm.Builder, r1, r2, r3 isa.Reg) {
	b.Emit(isa.Instr{Op: isa.MOV, Src: isa.RegOp(r1), Dst: isa.Abs(mpu.RegSEGB1)})
	b.Emit(isa.Instr{Op: isa.MOV, Src: isa.RegOp(r2), Dst: isa.Abs(mpu.RegSEGB2)})
	b.Emit(isa.Instr{Op: isa.MOV, Src: isa.RegOp(r3), Dst: isa.Abs(mpu.RegSAM)})
}

// emitGate emits the shared OS gate for one API function: the paper's
// context switch. Every gate saves the app's register context, switches to
// the OS stack, transfers to the kernel service via the syscall port, and
// unwinds. The MPU variant additionally rewrites the MPU configuration in
// both directions — the cost visible in Table 1's context-switch row — and
// validated modes bound-check application-provided pointer arguments.
func emitGate(b *asm.Builder, mode cc.Mode, api abi.APIFunc) {
	gate := abi.SymGate(api.Name)
	b.Label(gate)

	// Save the app's callee-saved context on the app stack.
	for r := isa.R4; r <= isa.R11; r++ {
		b.Emit(isa.Instr{Op: isa.PUSH, Src: isa.RegOp(r)})
	}
	if mode == cc.ModeMPU {
		// Switch to the OS plan before touching OS data, closing with the
		// password-protected MPUCTL0 confirmation write the FR5969's
		// register protocol demands.
		b.EmitRef(isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.Abs(mpu.RegSEGB1)},
			asm.Ref{Sym: abi.SymOSDataLo}, asm.NoRef)
		b.EmitRef(isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.Abs(mpu.RegSEGB2)},
			asm.Ref{Sym: abi.SymAppsBase}, asm.NoRef)
		b.Emit(isa.Instr{Op: isa.MOV, Src: isa.Imm(OSSAM), Dst: isa.Abs(mpu.RegSAM)})
		b.Emit(isa.Instr{Op: isa.MOV, Src: isa.Imm(mpu.Password | mpu.CtlEnable), Dst: isa.Abs(mpu.RegCTL0)})
	}
	// Stack switch + bookkeeping.
	b.EmitRef(isa.Instr{Op: isa.MOV, Src: isa.RegOp(isa.SP), Dst: isa.Abs(0)},
		asm.NoRef, asm.Ref{Sym: abi.SymVarSavedSP})
	b.EmitRef(isa.Instr{Op: isa.MOV, Src: isa.Abs(0), Dst: isa.RegOp(isa.SP)},
		asm.Ref{Sym: abi.SymVarOSStackSP}, asm.NoRef)
	b.EmitRef(isa.Instr{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.Abs(0)},
		asm.NoRef, asm.Ref{Sym: abi.SymVarGateCount})

	// Pointer-argument validation ("carefully handle application-provided
	// pointers passed through API calls", §3). SoftwareOnly checks both
	// bounds; MPU checks the lower bound, mirroring its check philosophy.
	if api.PtrArg >= 0 && (mode == cc.ModeSoftwareOnly || mode == cc.ModeMPU) {
		ptr := isa.R12 + isa.Reg(api.PtrArg)
		ok1 := gate + ".ok1"
		b.EmitRef(isa.Instr{Op: isa.CMP, Src: isa.Abs(0), Dst: isa.RegOp(ptr)},
			asm.Ref{Sym: abi.SymVarCurB1}, asm.NoRef)
		b.Branch(isa.JC, ok1) // ptr >= app data lo
		b.Branch(isa.JMP, abi.SymGateFail)
		b.Label(ok1)
		if mode == cc.ModeSoftwareOnly {
			ok2 := gate + ".ok2"
			b.EmitRef(isa.Instr{Op: isa.CMP, Src: isa.Abs(0), Dst: isa.RegOp(ptr)},
				asm.Ref{Sym: abi.SymVarCurB2}, asm.NoRef)
			b.Branch(isa.JNC, ok2) // ptr < app data hi
			b.Branch(isa.JMP, abi.SymGateFail)
			b.Label(ok2)
		}
	}

	// Transfer to the kernel service (args still in R12..R15).
	b.Emit(isa.Instr{Op: isa.MOV, Src: isa.Imm(api.Sys), Dst: isa.Abs(cpu.PortSyscall)})

	// Unwind: back to the app stack and (MPU) the app's plan. All OS-data
	// reads happen before the plan switch (see emitDispatch's comment);
	// R13-R15 are caller-saved scratch, R12 carries the return value.
	if mode == cc.ModeMPU {
		emitLoadPlanToRegs(b, isa.R13, isa.R14, isa.R15)
	}
	b.EmitRef(isa.Instr{Op: isa.MOV, Src: isa.Abs(0), Dst: isa.RegOp(isa.SP)},
		asm.Ref{Sym: abi.SymVarSavedSP}, asm.NoRef)
	if mode == cc.ModeMPU {
		emitWritePlanFromRegs(b, isa.R13, isa.R14, isa.R15)
		b.Emit(isa.Instr{Op: isa.MOV, Src: isa.Imm(mpu.Password | mpu.CtlEnable), Dst: isa.Abs(mpu.RegCTL0)})
	}
	for r := isa.R11; r >= isa.R4; r-- {
		b.Emit(isa.Instr{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(r)}) // POP
	}
	b.Emit(isa.Instr{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.PC)}) // RET
}
