// Package cpu implements the execution core of the simulated MSP430-class
// MCU: fetch/decode/execute for the full ISA defined in internal/isa, status
// flags, CALL/PUSH/RETI and interrupt entry, a cycle counter with the TI
// per-instruction costs, a Timer_A-style hardware timer (16-cycle
// resolution, as used by the paper's Figure 3 measurements), and debug ports
// used by the OS gates (syscall, halt, console).
//
// The CPU performs every data access and instruction fetch through the
// checked mem.Bus, so MPU enforcement and access profiling both observe real
// executed traffic.
package cpu

import (
	"fmt"
	"sync/atomic"

	"amuletiso/internal/isa"
	"amuletiso/internal/mem"
)

// decodeCacheOff globally disables UseProgram when set — the
// `-nodecodecache` escape hatch the CLIs expose so any run can be replayed
// on the always-correct live-decode path (differential guardrail).
var decodeCacheOff atomic.Bool

// SetDecodeCache enables or disables attachment of predecode caches
// process-wide. It affects machines loaded after the call; already-attached
// caches stay attached. The flag is also consulted at firmware build time
// (aft.Build / cc.CompileProgram skip the predecode pass entirely when
// disabled), so a firmware built while disabled carries no cache even if
// the flag is re-enabled before load — set the flag once, before building,
// as the CLIs do.
func SetDecodeCache(on bool) { decodeCacheOff.Store(!on) }

// DecodeCacheEnabled reports whether predecode caches are attached at load.
func DecodeCacheEnabled() bool { return !decodeCacheOff.Load() }

// StopReason explains why Run returned.
type StopReason int

// Stop reasons.
const (
	StopBudget StopReason = iota // cycle budget exhausted
	StopHalt                     // program wrote the halt port
	StopFault                    // memory violation or illegal instruction
	StopCPUOff                   // CPUOFF set in SR (low-power idle)
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopBudget:
		return "budget"
	case StopHalt:
		return "halt"
	case StopFault:
		return "fault"
	case StopCPUOff:
		return "cpuoff"
	}
	return fmt.Sprintf("StopReason(%d)", int(r))
}

// Fault describes an aborted instruction.
type Fault struct {
	PC        uint16         // address of the faulting instruction
	Violation *mem.Violation // non-nil for memory-protection faults
	Reason    string         // non-empty for decode or execution faults
}

func (f *Fault) Error() string {
	if f.Violation != nil {
		return fmt.Sprintf("cpu: fault at PC=0x%04X: %v", f.PC, f.Violation)
	}
	return fmt.Sprintf("cpu: fault at PC=0x%04X: %s", f.PC, f.Reason)
}

// CPU is the execution core.
type CPU struct {
	Regs [isa.NumRegs]uint16
	Bus  *mem.Bus

	// Cycles is the master clock: total CPU cycles executed since reset,
	// including cycles charged by syscall services.
	Cycles uint64

	// Insns counts retired instructions.
	Insns uint64

	// OnSyscall is invoked when code writes the syscall port. The handler
	// may modify registers (return values), charge Cycles, or halt.
	OnSyscall func(id uint16)

	// Halted latches after a halt-port write; ExitCode carries the value.
	Halted   bool
	ExitCode uint16

	// Console accumulates bytes written to the console port.
	Console []byte

	pendingIRQ []uint16 // queued interrupt vector addresses

	// prog is the attached predecode cache (nil: every Step live-decodes).
	// dirty holds the word-aligned addresses of cached text overwritten on
	// THIS machine; the cache itself is shared and immutable (a fleet's
	// devices all point at one Program), so self-modification must be
	// tracked per device, not by mutating the shared cache.
	prog  *isa.Program
	dirty map[uint16]struct{}
	// runLimit is Run's cycle limit, mirrored here so a superblock can stop
	// at a segment boundary exactly where the interpreter's Run loop would
	// stop between two instructions. Outside Run it stays 0, which disables
	// block execution entirely: a bare Step always retires exactly one
	// instruction, preserving the historical single-step granularity.
	runLimit uint64
	// jit/jitBase are the attached superblock plan (see jit_exec.go): block
	// executors indexed by the same (pc - base) >> 1 slot arithmetic as the
	// decode cache. The plan is compiled once per Program and shared.
	jit     []*compiledBlock
	jitBase uint16
	// slow is the live-decode path's reusable checked word reader (a field
	// so taking its address for the isa.WordReader interface never
	// allocates on the per-instruction path).
	slow slowFetch

	// timer/mpy are the peripheral devices New maps onto the bus, kept so
	// State/SetState can checkpoint their registers alongside the core.
	timer *TimerA
	mpy   *MPY32
}

// slowFetch feeds the decoder through the checked bus fetch path, latching
// the first execute violation instead of failing mid-decode.
type slowFetch struct {
	bus  *mem.Bus
	viol *mem.Violation
}

// ReadCodeWord implements isa.WordReader: each word the decoder consumes is
// execute-checked and counted exactly once; after a violation the bus is not
// touched again.
func (s *slowFetch) ReadCodeWord(addr uint16) uint16 {
	if s.viol != nil {
		return 0
	}
	v, fv := s.bus.Fetch16(addr)
	if fv != nil {
		s.viol = fv
		return 0
	}
	return v
}

// New returns a CPU attached to bus with PC/SP zeroed. Callers must set PC
// (and usually SP) before Run.
func New(bus *mem.Bus) *CPU {
	c := &CPU{Bus: bus}
	c.slow.bus = bus
	c.timer = &TimerA{c: c}
	c.mpy = &MPY32{}
	bus.Map(portBase, portLimit, &portDevice{c})
	bus.Map(TimerBase, TimerBase+0x1E, c.timer)
	bus.Map(MPYBase, MPYResHi+1, c.mpy)
	return c
}

// Register accessors; PC and SP keep architectural alignment.

// PC returns the program counter.
func (c *CPU) PC() uint16 { return c.Regs[isa.PC] }

// SetPC sets the program counter (bit 0 forced clear).
func (c *CPU) SetPC(v uint16) { c.Regs[isa.PC] = v &^ 1 }

// SP returns the stack pointer.
func (c *CPU) SP() uint16 { return c.Regs[isa.SP] }

// SetSP sets the stack pointer (bit 0 forced clear).
func (c *CPU) SetSP(v uint16) { c.Regs[isa.SP] = v &^ 1 }

// SRBits returns the status register.
func (c *CPU) SRBits() uint16 { return c.Regs[isa.SR] }

// flag helpers
func (c *CPU) flag(bit uint16) bool { return c.Regs[isa.SR]&bit != 0 }

func (c *CPU) setFlag(bit uint16, on bool) {
	if on {
		c.Regs[isa.SR] |= bit
	} else {
		c.Regs[isa.SR] &^= bit
	}
}

// push writes v to the pre-decremented stack.
func (c *CPU) push(v uint16) *mem.Violation {
	c.Regs[isa.SP] -= 2
	return c.Bus.Write16(c.Regs[isa.SP], v)
}

// pop reads from the stack and post-increments.
func (c *CPU) pop() (uint16, *mem.Violation) {
	v, viol := c.Bus.Read16(c.Regs[isa.SP])
	if viol != nil {
		return 0, viol
	}
	c.Regs[isa.SP] += 2
	return v, nil
}

// RequestInterrupt queues an interrupt whose vector word lives at vecAddr
// (for example 0xFFF2). It is accepted before the next instruction if GIE is
// set.
func (c *CPU) RequestInterrupt(vecAddr uint16) {
	c.pendingIRQ = append(c.pendingIRQ, vecAddr)
}

// serviceInterrupt performs interrupt entry for the first pending vector.
func (c *CPU) serviceInterrupt() *Fault {
	vec := c.pendingIRQ[0]
	c.pendingIRQ = c.pendingIRQ[1:]
	if v := c.push(c.Regs[isa.PC]); v != nil {
		return &Fault{PC: c.PC(), Violation: v}
	}
	if v := c.push(c.Regs[isa.SR]); v != nil {
		return &Fault{PC: c.PC(), Violation: v}
	}
	c.setFlag(isa.FlagGIE, false)
	c.setFlag(isa.FlagCPUOFF, false)
	target := c.Bus.Peek16(vec)
	c.SetPC(target)
	c.Cycles += uint64(isa.InterruptCycles)
	return nil
}

// UseProgram attaches a predecoded cache of the loaded image's text (built
// once per firmware, typically shared across many machines) and registers
// the bus code watch that keeps it honest: any write into cached text marks
// the covered words dirty on this CPU, and dirty or uncached PCs fall back
// to the live decoder. Passing nil (or disabling via SetDecodeCache before
// load) detaches the cache and the watch.
func (c *CPU) UseProgram(p *isa.Program) {
	c.dirty = nil
	c.jit, c.jitBase = nil, 0
	if p == nil || decodeCacheOff.Load() {
		c.prog = nil
		c.Bus.WatchCode(nil, nil)
		return
	}
	c.prog = p
	watch := make([]mem.CodeRange, p.NumRanges())
	for i := range watch {
		r := p.RangeAt(i)
		watch[i] = mem.CodeRange{Lo: r.Lo, Hi: r.Hi}
	}
	c.Bus.WatchCode(watch, c.invalidateCode)
	if plan, _ := p.JITPlan(func() any { return compileJITPlan(p) }).(*jitPlan); plan != nil {
		c.jit, c.jitBase = plan.blocks, plan.base
	}
}

// Program returns the attached predecode cache, if any.
func (c *CPU) Program() *isa.Program { return c.prog }

// invalidateCode marks every word of the overwritten byte span [lo, hi]
// dirty; Step routes dirty PCs to the live decoder so the new bytes execute.
func (c *CPU) invalidateCode(lo, hi uint16) {
	if c.dirty == nil {
		c.dirty = make(map[uint16]struct{})
	}
	// Both bounds aligned down: a walks even addresses and lands exactly on
	// hi&^1, so the loop cannot wrap.
	for a := lo &^ 1; ; a += 2 {
		c.dirty[a] = struct{}{}
		if a >= hi&^1 {
			break
		}
	}
}

// spanDirty reports whether any instruction word of [pc, pc+size) has been
// overwritten since the cache was built. A write to an extension word
// invalidates the instruction just as a write to its opcode word does.
func (c *CPU) spanDirty(pc, size uint16) bool {
	if len(c.dirty) == 0 {
		return false
	}
	for off := uint16(0); off < size; off += 2 {
		if _, ok := c.dirty[pc+off]; ok {
			return true
		}
	}
	return false
}

// Step executes one instruction (servicing a pending interrupt first).
// It returns a non-nil *Fault if the instruction could not complete; CPU
// state is left as of the fault for inspection.
//
// With a predecode cache attached, PCs inside clean cached text skip the
// decoder entirely: the bus still execute-checks and counts every
// instruction word (so MPU enforcement and fetch statistics are identical
// to the live path), but operands and cycle costs come from the cache.
func (c *CPU) Step() *Fault {
	if len(c.pendingIRQ) > 0 && c.flag(isa.FlagGIE) {
		if f := c.serviceInterrupt(); f != nil {
			return f
		}
	}
	pc := c.PC()
	if c.prog != nil {
		if e := c.prog.At(pc); e != nil {
			// Superblock fast path: a compiled block headed here runs whole
			// atomic segments at a time (jit_exec.go); done=false means it
			// deopted before retiring anything and this Step proceeds
			// normally. The slot index is in range because At succeeded and
			// the plan mirrors the cache's slot table.
			if c.jit != nil && c.Cycles < c.runLimit {
				if b := c.jit[(pc-c.jitBase)>>1]; b != nil {
					if f, done := c.runBlock(b); done {
						return f
					}
				}
			}
			if !c.spanDirty(pc, e.Size) {
				if viol := c.Bus.FetchWords(pc, e.Size); viol != nil {
					return &Fault{PC: pc, Violation: viol}
				}
				c.SetPC(pc + e.Size)
				f := c.dispatch(pc, e.Size, &e.In, e.H)
				if f == nil {
					c.Cycles += uint64(e.Cost)
					c.Insns++
				}
				return f
			}
		}
	}
	return c.stepSlow(pc)
}

// stepSlow is the live-decode path: PCs outside cached text, uncacheable
// slots, and self-modified code. Each instruction word is fetched through
// the checked bus path exactly once — the execute-permission check and the
// fetch statistics happen on the same read that feeds the decoder, so
// Bus.Stats() fetch counts always agree with the words the instruction
// actually consumed (and with the cached path's accounting).
func (c *CPU) stepSlow(pc uint16) *Fault {
	c.slow.viol = nil
	in, size, err := isa.Decode(&c.slow, pc)
	if c.slow.viol != nil {
		return &Fault{PC: pc, Violation: c.slow.viol}
	}
	if err != nil {
		return &Fault{PC: pc, Reason: err.Error()}
	}
	c.SetPC(pc + size)
	f := c.exec(pc, size, in)
	if f == nil {
		c.Cycles += uint64(isa.Cycles(in))
		c.Insns++
	}
	return f
}

// Run executes until the cycle budget is exceeded, the CPU halts, faults, or
// enters CPUOFF. The budget is a limit on additional cycles from the call.
func (c *CPU) Run(budget uint64) (StopReason, *Fault) {
	limit := c.Cycles + budget
	c.runLimit = limit
	defer func() { c.runLimit = 0 }()
	for {
		if c.Halted {
			return StopHalt, nil
		}
		if c.flag(isa.FlagCPUOFF) {
			return StopCPUOff, nil
		}
		if c.Cycles >= limit {
			return StopBudget, nil
		}
		if f := c.Step(); f != nil {
			return StopFault, f
		}
	}
}

// Reset clears registers, cycle state and latches (memory is untouched).
func (c *CPU) Reset() {
	c.Regs = [isa.NumRegs]uint16{}
	c.Cycles = 0
	c.Insns = 0
	c.Halted = false
	c.ExitCode = 0
	c.Console = nil
	c.pendingIRQ = nil
	c.runLimit = 0
}
