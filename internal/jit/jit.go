// Package jit lifts the superblocks discovered at predecode (isa.Block) into
// a small straight-line IR and runs three peephole passes over it:
//
//   - dead-flag elimination: only materialize the SR flags a later
//     instruction in the block actually reads, generalizing the threaded
//     engine's single-store SR composition from one instruction to a run;
//   - constant-address folding: absolute and symbolic (x(PC)) operands have
//     compile-time-constant effective addresses, as do branch targets — fold
//     them so executors touch neither the extension words nor the PC;
//   - redundant-extension-word elimination: operands already latched in the
//     decode cache are baked directly into executor closures, so compiled
//     steps never re-read the extension words (or the cached Instr) at run
//     time.
//
// The package is pure analysis: it knows the ISA but owns no CPU or bus
// state. internal/cpu consumes the IR and binds one Go closure per step,
// with deoptimization back to the interpreter at every stop point Run's loop
// checks between instructions (pending IRQ, cycle budget, halt/CPUOFF,
// dirtied text), plus a certificate drop. Everything here is therefore advisory EXCEPT the
// segment structure, which carries the correctness argument:
//
// A segment is a run of steps the executor may retire without re-checking
// interpreter stop conditions. That is sound only if no condition can change
// inside it, so segmentation ends a segment after every step that may write
// memory (a store can post an interrupt through the syscall port, halt the
// machine, dirty cached text, or move an MPU plan and drop the execute
// certificate) and after every step that rewrites SR wholesale (it can set
// CPUOFF or GIE). Faults need no boundary: a faulting step aborts the run
// with the same architectural state the interpreter would leave. The cycle
// budget is handled by the per-segment atomicity pre-check (Seg.PreCost):
// the executor enters a segment only if even the last step would still start
// under budget, exactly reproducing the interpreter's check-before-every-
// instruction schedule.
//
// Flag liveness obeys the same boundaries: all SR bits are live at every
// segment end (a deopt or interrupt there exposes SR) and before every step
// that may fault (an abort there exposes SR too), so elision windows are
// exactly the spans where skipping a flag store is provably unobservable.
package jit

import "amuletiso/internal/isa"

// FlagSet is a set of SR bits (isa.FlagC/Z/N/V/GIE/CPUOFF...).
type FlagSet uint16

// FlagsAll marks "every SR bit" — used for instructions that read or rewrite
// SR wholesale and for liveness at observation points.
const FlagsAll FlagSet = 0xFFFF

// aluFlags is the SR mask a format-I arithmetic/logic flag update rewrites.
const aluFlags = FlagSet(isa.FlagC | isa.FlagZ | isa.FlagN | isa.FlagV)

// StepKind selects the executor family internal/cpu binds for a step.
type StepKind uint8

// Step kinds.
const (
	// KindGeneric runs through the full dispatcher (PC advanced first), so
	// any cacheable instruction — memory operands, PUSH/CALL/RETI, computed
	// branches — executes exactly as a lone interpreter step would.
	KindGeneric StepKind = iota
	// KindPure is the register/immediate-only format-I and format-II shape:
	// no bus traffic, cannot fault, eligible for flag elision.
	KindPure
	// KindJump is a format-III branch with both targets folded to constants.
	KindJump
)

// Step is one lifted instruction.
type Step struct {
	Addr uint16 // instruction address
	Size uint16 // encoded size in bytes
	Cost uint16 // cycle cost (from the decode cache)
	H    isa.HandlerID
	In   isa.Instr
	Kind StepKind

	// Flag dataflow: bits read, bits written, and — after liveness — the
	// written bits some later step may observe (Live ⊆ WFlags). Live == 0
	// on a flag-writing step means every flag it produces is dead.
	RFlags, WFlags, Live FlagSet

	// Elide: all flag writes dead and the op has a flagless executor
	// variant. Dead additionally means the step has no architectural effect
	// at all (CMP/BIT with dead flags) and is skipped entirely — only its
	// fetch, cycle and instruction accounting remain.
	Elide bool
	Dead  bool

	MayFault bool // touches memory, so it can abort mid-segment
	MayWrite bool // may write memory: ends its segment (see package doc)
	Barrier  bool // rewrites SR wholesale (dst SR): ends its segment
	NeedPC   bool // executor must materialize PC before running the step

	// Constant-address folding: effective addresses of absolute and
	// symbolic operands, resolved at lift time.
	SrcFold, DstFold bool
	SrcAddr, DstAddr uint16

	// Jump targets, folded (KindJump only). Cost is identical either way
	// on this ISA (format-III is a constant 2 cycles).
	Taken, Fall uint16

	// ExtBaked counts this step's extension words that the bound executor
	// no longer consults at run time (stats for the elimination pass).
	ExtBaked uint8
}

// Seg is one atomically-retired run of steps: boundary conditions are
// checked before it and cannot change inside it.
type Seg struct {
	Addr     uint16 // first instruction address — the deopt PC for its boundary
	Lo, Hi   int    // step index range [Lo, Hi)
	Cost     uint32 // total cycles of the segment
	PreCost  uint32 // Cost minus the last step's cost (budget atomicity check)
	MayWrite bool   // a step in it may write memory: re-probe text after it
}

// Block is one lifted, optimized superblock ready for closure binding.
type Block struct {
	Addr, End uint16 // [Addr, End) span of the block's encodings
	Size      uint16 // End - Addr
	N         uint16 // instruction count
	Steps     []Step
	Segs      []Seg
	// LastIsTerm: the final step writes PC itself (branch/terminator); when
	// false the executor must set PC = End after the final segment.
	LastIsTerm bool
	Stats      Stats
}

// Stats aggregates what the passes achieved, for the obs counters.
type Stats struct {
	Steps    int // lifted instructions
	Elided   int // steps executing with all flag writes eliminated
	Dead     int // of those, steps skipped entirely (CMP/BIT)
	Folded   int // constant effective addresses folded
	ExtBaked int // extension words baked into closures
}

// Lift lifts one discovered superblock into the IR and runs the passes.
// It returns nil if the cache contents no longer describe a well-formed
// block (they always do for blocks produced by the same Program, so this is
// belt-and-braces, not a planned path).
func Lift(p *isa.Program, b isa.Block) *Block {
	blk := &Block{Addr: b.Addr, End: b.Addr + b.Size, Size: b.Size, N: b.N}
	blk.Steps = make([]Step, 0, b.N)
	addr := b.Addr
	for i := uint16(0); i < b.N; i++ {
		e := p.At(addr)
		if e == nil {
			return nil
		}
		st := Step{Addr: addr, Size: e.Size, Cost: e.Cost, H: e.H, In: e.In}
		classify(&st)
		fold(&st)
		blk.Steps = append(blk.Steps, st)
		addr += e.Size
	}
	if addr != blk.End {
		return nil
	}
	last := &blk.Steps[len(blk.Steps)-1]
	blk.LastIsTerm = isa.BlockTerminator(last.In)
	segmentize(blk)
	for i := range blk.Segs {
		liveness(blk.Steps[blk.Segs[i].Lo:blk.Segs[i].Hi])
	}
	tally(blk)
	return blk
}

// classify fills a step's kind, flag dataflow and boundary properties from
// its decoded instruction.
func classify(st *Step) {
	in := &st.In
	switch {
	case in.Op.IsJump():
		st.Kind = KindJump
		st.RFlags = jumpReads(in.Op)
		st.Taken = st.Addr + 2 + 2*uint16(int16(in.Dst.X))
		st.Fall = st.Addr + 2
		return

	case in.Op == isa.RETI:
		// Pops SR wholesale and reads the stack.
		st.Kind = KindGeneric
		st.WFlags = FlagsAll
		st.MayFault = true
		st.Barrier = true
		st.NeedPC = true
		return

	case in.Op == isa.CALL:
		st.Kind = KindGeneric
		st.MayFault, st.MayWrite = true, true
		st.NeedPC = true
		if in.Src.Mode == isa.ModeRegister && in.Src.Reg == isa.SR {
			st.RFlags = FlagsAll
		}
		return

	case in.Op == isa.PUSH:
		st.Kind = KindGeneric
		st.MayFault, st.MayWrite = true, true
		st.NeedPC = true
		if in.Src.Mode == isa.ModeRegister && in.Src.Reg == isa.SR {
			st.RFlags = FlagsAll
		}
		return

	case in.Op.IsOneOperand():
		// RRC/RRA/SWPB/SXT operate in place on their operand.
		switch in.Op {
		case isa.RRC:
			st.RFlags, st.WFlags = FlagSet(isa.FlagC), aluFlags
		case isa.RRA, isa.SXT:
			st.WFlags = aluFlags
		case isa.SWPB:
			// no flags
		}
		if in.Src.Mode == isa.ModeRegister {
			st.Kind = KindPure
			if in.Src.Reg == isa.SR {
				st.RFlags, st.WFlags, st.Barrier = FlagsAll, FlagsAll, true
			}
			if in.Src.Reg == isa.PC {
				st.NeedPC = true
			}
		} else {
			st.Kind = KindGeneric
			st.MayFault = true
			st.MayWrite = true // read-modify-write to memory
			st.NeedPC = true
		}
		return
	}

	// Format I.
	st.RFlags, st.WFlags = fmtIReads(in), fmtIWrites(in.Op)
	if in.Src.Mode == isa.ModeRegister {
		if in.Src.Reg == isa.SR {
			st.RFlags = FlagsAll
		}
		if in.Src.Reg == isa.PC {
			st.NeedPC = true
		}
	}
	if in.Dst.Mode == isa.ModeRegister {
		if in.Dst.Reg == isa.SR {
			// The destination write lands on SR after any flag update
			// (writeLoc runs last), replacing it wholesale — and possibly
			// setting GIE or CPUOFF, hence the barrier.
			st.WFlags, st.Barrier = FlagsAll, true
			if in.Op != isa.MOV {
				st.RFlags = FlagsAll
			}
		}
		if in.Dst.Reg == isa.PC {
			st.NeedPC = true // reads PC for non-MOV; harmless for MOV
		}
		if in.Src.Mode == isa.ModeRegister || in.Src.Mode == isa.ModeImmediate {
			st.Kind = KindPure
			return
		}
		// Memory source, register destination: can fault, never writes.
		st.Kind = KindGeneric
		st.MayFault = true
		st.NeedPC = true
		return
	}
	// Memory destination (CMP/BIT only read it, everything else writes).
	st.Kind = KindGeneric
	st.MayFault = true
	st.MayWrite = in.Op != isa.CMP && in.Op != isa.BIT
	st.NeedPC = true
}

// jumpReads maps a format-III condition to the SR bits it tests.
func jumpReads(op isa.Op) FlagSet {
	switch op {
	case isa.JNE, isa.JEQ:
		return FlagSet(isa.FlagZ)
	case isa.JNC, isa.JC:
		return FlagSet(isa.FlagC)
	case isa.JN:
		return FlagSet(isa.FlagN)
	case isa.JGE, isa.JL:
		return FlagSet(isa.FlagN | isa.FlagV)
	}
	return 0 // JMP
}

// fmtIReads returns the SR bits a format-I op consumes beyond its operands.
func fmtIReads(in *isa.Instr) FlagSet {
	switch in.Op {
	case isa.ADDC, isa.SUBC, isa.DADD:
		return FlagSet(isa.FlagC)
	}
	return 0
}

// fmtIWrites returns the SR bits a format-I op produces.
func fmtIWrites(op isa.Op) FlagSet {
	switch op {
	case isa.MOV, isa.BIC, isa.BIS:
		return 0
	case isa.DADD:
		return FlagSet(isa.FlagC | isa.FlagZ | isa.FlagN)
	}
	return aluFlags
}

// segmentize splits the step list into atomic runs: a step that may write
// memory or rewrite SR wholesale ends its segment (see the package comment
// for why those are the only interior boundaries).
func segmentize(b *Block) {
	lo := 0
	for i := range b.Steps {
		if b.Steps[i].MayWrite || b.Steps[i].Barrier || i == len(b.Steps)-1 {
			seg := Seg{Addr: b.Steps[lo].Addr, Lo: lo, Hi: i + 1}
			for j := lo; j <= i; j++ {
				seg.Cost += uint32(b.Steps[j].Cost)
				seg.MayWrite = seg.MayWrite || b.Steps[j].MayWrite
			}
			seg.PreCost = seg.Cost - uint32(b.Steps[i].Cost)
			b.Segs = append(b.Segs, seg)
			lo = i + 1
		}
	}
}

// liveness runs the dead-flag pass backward over one segment: all SR bits
// are live at the segment end (a deopt there exposes SR) and before any step
// that may fault (an abort exposes SR too); in between, a step's flag writes
// are dead exactly when no later step reads them before they are rewritten.
func liveness(steps []Step) {
	live := FlagsAll
	for i := len(steps) - 1; i >= 0; i-- {
		st := &steps[i]
		st.Live = st.WFlags & live
		if st.Live == 0 && st.WFlags != 0 && elidable(st) {
			st.Elide = true
			st.Dead = st.In.Op == isa.CMP || st.In.Op == isa.BIT
		}
		if st.MayFault {
			live = FlagsAll
		} else {
			live = (live &^ st.WFlags) | st.RFlags
		}
	}
}

// elidable reports whether internal/cpu has a flagless executor variant for
// the step. Only the pure register/immediate shape qualifies (memory-operand
// steps can fault and always materialize), and only ops whose sole extra
// effect is the ALU flag store — DADD/RRC/RRA/SXT keep their composed flag
// writes.
func elidable(st *Step) bool {
	if st.Kind != KindPure || st.Barrier {
		return false
	}
	switch st.In.Op {
	case isa.ADD, isa.ADDC, isa.SUB, isa.SUBC, isa.XOR, isa.AND, isa.CMP, isa.BIT:
		return true
	}
	return false
}

// fold resolves compile-time-constant effective addresses: absolute
// operands, and symbolic x(PC) operands whose base is the extension-word
// address (a property of the encoding, not of the live PC).
func fold(st *Step) {
	in := &st.In
	if in.Op.IsJump() {
		return
	}
	srcExt := st.Addr + 2           // source extension word follows the opcode
	dstExt := st.Addr + st.Size - 2 // destination extension word is last
	switch in.Src.Mode {
	case isa.ModeAbsolute:
		st.SrcFold, st.SrcAddr = true, in.Src.X
	case isa.ModeIndexed:
		if in.Src.Reg == isa.PC {
			st.SrcFold, st.SrcAddr = true, srcExt+in.Src.X
		}
	}
	if in.Op.IsTwoOperand() {
		switch in.Dst.Mode {
		case isa.ModeAbsolute:
			st.DstFold, st.DstAddr = true, in.Dst.X
		case isa.ModeIndexed:
			if in.Dst.Reg == isa.PC {
				st.DstFold, st.DstAddr = true, dstExt+in.Dst.X
			}
		}
	}
}

// bakesExt reports whether the executor internal/cpu binds for the step
// consults only baked constants at run time (never the cached Instr), which
// is what makes the step's extension words redundant.
func bakesExt(st *Step) bool {
	if st.Dead || st.Kind == KindJump {
		return true
	}
	if st.In.Op != isa.MOV {
		return false
	}
	in := &st.In
	switch {
	case in.Src.Mode == isa.ModeImmediate && in.Dst.Mode == isa.ModeRegister &&
		in.Dst.Reg != isa.PC:
		return true
	case st.SrcFold && in.Dst.Mode == isa.ModeRegister && in.Dst.Reg != isa.PC &&
		in.Dst.Reg != isa.SR:
		return true
	case st.DstFold && (in.Src.Mode == isa.ModeRegister || in.Src.Mode == isa.ModeImmediate) &&
		!(in.Src.Mode == isa.ModeRegister && (in.Src.Reg == isa.SR || in.Src.Reg == isa.PC)):
		return true
	}
	return false
}

// tally fills Block.Stats (and per-step ExtBaked) after the passes ran.
func tally(b *Block) {
	b.Stats.Steps = len(b.Steps)
	for i := range b.Steps {
		st := &b.Steps[i]
		if st.Elide {
			b.Stats.Elided++
		}
		if st.Dead {
			b.Stats.Dead++
		}
		if st.SrcFold {
			b.Stats.Folded++
		}
		if st.DstFold {
			b.Stats.Folded++
		}
		if bakesExt(st) {
			st.ExtBaked = uint8((st.Size - 2) / 2)
			b.Stats.ExtBaked += int(st.ExtBaked)
		}
	}
}
