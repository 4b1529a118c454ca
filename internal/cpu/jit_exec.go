package cpu

// Superblock executors: the codegen half of the block JIT. internal/jit
// lifts the superblocks discovered at predecode into its IR; this file binds
// one Go closure per IR step and drives whole blocks from Step, deopting
// back to the interpreter at exactly the stop points Run's loop checks
// between instructions (halt, CPUOFF, cycle budget, pending interrupt,
// overwritten text). The closures reproduce the interpreter's observable
// schedule instruction by instruction — same fetch counts in the same order, same
// cycle/instruction accounting, same PC at every fault and boundary — so a
// compiled run and an interpreted run are indistinguishable by exit state,
// stats, MPU violations, or access traces. The exec switch remains the
// enforcement oracle: every closure here is either a call into it (via
// dispatch) or a specialization whose equivalence the torture battery locks
// across the {jit, nojit} axis.
//
// Blocks only execute under a whole-span execute certificate with no access
// profiler attached (mem.Bus.ExecCertifiedSpan); in every other regime the
// entry check fails and the interpreter runs, making the `-nojit` and
// per-word-check cells trivially identical. One compiled plan is built per
// isa.Program (guarded by Program.JITPlan) and shared by every CPU running
// that firmware, like the decode cache itself.

import (
	"time"

	"amuletiso/internal/isa"
	"amuletiso/internal/jit"
	"amuletiso/internal/mem"
)

// jitPlan is a compiled program: block executors indexed by the same
// (pc - base) >> 1 slot arithmetic as the decode cache, so Step's lookup is
// one load off the already-validated slot index.
type jitPlan struct {
	base   uint16
	blocks []*compiledBlock
}

// compiledBlock is one bound superblock.
type compiledBlock struct {
	addr, end  uint16
	size       uint16
	segs       []cseg
	lastIsTerm bool // final step writes PC itself (branch/terminator)
}

// cseg is one atomic run: its boundary conditions are checked on entry and
// provably cannot change until its last step completes (see internal/jit).
type cseg struct {
	addr     uint16 // deopt PC at this boundary
	restSize uint16 // block.end - addr: the span a post-write re-probe covers
	reprobe  bool   // previous segment may have written memory
	preCost  uint64 // segment cycles minus the last step's (budget atomicity)
	steps    []cstep
}

// cstep is one bound instruction: fn executes it (nil for dead steps whose
// only remaining effects are the accounting), words/cost feed the fetch and
// cycle counters exactly as the interpreter would per instruction.
type cstep struct {
	fn    func(*CPU) *Fault
	words uint64
	cost  uint64
}

// compileJITPlan lifts and binds every discovered superblock of p. Called
// once per Program through Program.JITPlan; returns nil when discovery found
// nothing (JIT off at build, or no compilable text).
func compileJITPlan(p *isa.Program) *jitPlan {
	spans := p.BlockSpans()
	if len(spans) == 0 {
		return nil
	}
	start := time.Now()
	plan := &jitPlan{base: p.Base(), blocks: make([]*compiledBlock, p.Slots())}
	var st jit.Stats
	for _, bs := range spans {
		lb := jit.Lift(p, bs)
		if lb == nil {
			continue
		}
		plan.blocks[(bs.Addr-plan.base)>>1] = compileBlock(lb)
		mJITBlocks.Inc()
		st.Steps += lb.Stats.Steps
		st.Elided += lb.Stats.Elided
		st.Folded += lb.Stats.Folded
		st.ExtBaked += lb.Stats.ExtBaked
	}
	mJITSteps.Add(uint64(st.Steps))
	mJITFlagsElided.Add(uint64(st.Elided))
	mJITAddrsFolded.Add(uint64(st.Folded))
	mJITExtElided.Add(uint64(st.ExtBaked))
	mJITCompileNS.Add(uint64(time.Since(start)))
	return plan
}

// compileBlock binds closures for one lifted block.
func compileBlock(lb *jit.Block) *compiledBlock {
	cb := &compiledBlock{
		addr: lb.Addr, end: lb.End, size: lb.Size, lastIsTerm: lb.LastIsTerm,
	}
	cb.segs = make([]cseg, len(lb.Segs))
	for i := range lb.Segs {
		sg := &lb.Segs[i]
		cs := cseg{
			addr:     sg.Addr,
			restSize: lb.End - sg.Addr,
			reprobe:  i > 0 && lb.Segs[i-1].MayWrite,
			preCost:  uint64(sg.PreCost),
			steps:    make([]cstep, 0, sg.Hi-sg.Lo),
		}
		for j := sg.Lo; j < sg.Hi; j++ {
			st := &lb.Steps[j]
			cs.steps = append(cs.steps, cstep{
				fn:    compileStep(st),
				words: uint64(st.Size >> 1),
				cost:  uint64(st.Cost),
			})
		}
		cb.segs[i] = cs
	}
	return cb
}

// runBlock executes a compiled block whose head the caller's PC sits on.
// done=false means the block could not be entered (no certificate, dirty
// text, or the very first boundary condition fired) and NOTHING ran — Step
// falls through to the ordinary path, which always retires one instruction,
// so deopt can never livelock. done=true means at least one segment retired;
// a nil fault leaves the PC at the boundary (or past the block) exactly
// where the interpreter's Run loop would pick up.
func (c *CPU) runBlock(b *compiledBlock) (f *Fault, done bool) {
	if !c.Bus.ExecCertifiedSpan(b.addr, b.size) || c.spanDirty(b.addr, b.size) {
		return nil, false
	}
	// A segment that may write re-probes the rest of the block — unless no
	// write since the last probe bypassed the bus's data fast path. Fast-path
	// stores cannot reach watched text, a device or the MPU, so the probe
	// could only pass again.
	probed := c.Bus.SlowWrites()
	for si := range b.segs {
		seg := &b.segs[si]
		if seg.reprobe && c.Bus.SlowWrites() != probed {
			probed = c.Bus.SlowWrites()
			if c.spanDirty(seg.addr, seg.restSize) || !c.Bus.ExecCertifiedSpan(seg.addr, seg.restSize) {
				mDeoptText.Inc()
				return c.deopt(seg, si)
			}
		}
		if c.Halted {
			mDeoptHalt.Inc()
			return c.deopt(seg, si)
		}
		if c.flag(isa.FlagCPUOFF) {
			mDeoptCPUOff.Inc()
			return c.deopt(seg, si)
		}
		if len(c.pendingIRQ) > 0 && c.flag(isa.FlagGIE) {
			mDeoptIRQ.Inc()
			return c.deopt(seg, si)
		}
		if c.Cycles+seg.preCost >= c.runLimit {
			mDeoptBudget.Inc()
			return c.deopt(seg, si)
		}
		for i := range seg.steps {
			s := &seg.steps[i]
			c.Bus.AddFetchWords(s.words)
			if s.fn != nil {
				if fl := s.fn(c); fl != nil {
					return fl, true
				}
			}
			c.Cycles += s.cost
			c.Insns++
		}
	}
	if !b.lastIsTerm {
		c.Regs[isa.PC] = b.end
	}
	return nil, true
}

// deopt hands control back to the interpreter at a segment boundary: if any
// earlier segment retired, the PC is parked on the boundary instruction (it
// is exactly where the interpreter's own loop would have stopped); if this
// is the block head, nothing ran and the caller's PC is untouched.
func (c *CPU) deopt(seg *cseg, si int) (*Fault, bool) {
	if si == 0 {
		return nil, false
	}
	c.Regs[isa.PC] = seg.addr
	return nil, true
}

// compileStep binds the executor closure for one IR step, picking the most
// specialized tier the passes proved safe. Every tier reproduces the
// corresponding interpreter path exactly (same flag stores or proven-dead
// omissions, same fault PC discipline: Fault.PC is the instruction address
// and Regs[PC] is past the encoding whenever a step can fault or read PC).
func compileStep(st *jit.Step) func(*CPU) *Fault {
	if st.Dead {
		// CMP/BIT whose flags nothing reads: accounting-only.
		return nil
	}
	if st.Kind == jit.KindJump {
		return compileJump(st)
	}
	var fn func(*CPU) *Fault
	switch {
	case st.Elide:
		fn = compileElidedALU(st)
	case st.In.Op == isa.MOV:
		fn = compileMOV(st)
	}
	if fn == nil {
		fn = compileDispatch(st)
	}
	if st.NeedPC && st.Kind == jit.KindPure {
		// Pure steps skip PC maintenance unless the instruction observes or
		// can expose it; generic/memory tiers advance PC themselves.
		inner, end := fn, st.Addr+st.Size
		fn = func(c *CPU) *Fault {
			c.Regs[isa.PC] = end
			return inner(c)
		}
	}
	return fn
}

// compileDispatch is the universal tier: advance PC as Step would, then run
// the bound handler or the exec switch. Correct for any cacheable
// instruction; the specialized tiers below exist only for speed.
func compileDispatch(st *jit.Step) func(*CPU) *Fault {
	addr, size, h := st.Addr, st.Size, st.H
	end := addr + size
	in := st.In // heap copy owned by the closure; never written through
	if st.Kind == jit.KindPure {
		// Register-only shape: cannot fault — skip the PC store (the
		// NeedPC wrapper in compileStep re-materializes it for the rare
		// pure step that observes PC).
		return func(c *CPU) *Fault {
			return c.dispatch(addr, size, &in, h)
		}
	}
	return func(c *CPU) *Fault {
		c.Regs[isa.PC] = end
		return c.dispatch(addr, size, &in, h)
	}
}

// compileJump binds a format-III branch with both targets folded. Taken and
// fall-through cost the same 2 cycles on this ISA, so the accounting stays
// in the shared per-step path.
func compileJump(st *jit.Step) func(*CPU) *Fault {
	taken, fall := st.Taken, st.Fall
	switch st.In.Op {
	case isa.JMP:
		return func(c *CPU) *Fault { c.Regs[isa.PC] = taken; return nil }
	case isa.JNE:
		return func(c *CPU) *Fault {
			if c.Regs[isa.SR]&isa.FlagZ == 0 {
				c.Regs[isa.PC] = taken
			} else {
				c.Regs[isa.PC] = fall
			}
			return nil
		}
	case isa.JEQ:
		return func(c *CPU) *Fault {
			if c.Regs[isa.SR]&isa.FlagZ != 0 {
				c.Regs[isa.PC] = taken
			} else {
				c.Regs[isa.PC] = fall
			}
			return nil
		}
	case isa.JNC:
		return func(c *CPU) *Fault {
			if c.Regs[isa.SR]&isa.FlagC == 0 {
				c.Regs[isa.PC] = taken
			} else {
				c.Regs[isa.PC] = fall
			}
			return nil
		}
	case isa.JC:
		return func(c *CPU) *Fault {
			if c.Regs[isa.SR]&isa.FlagC != 0 {
				c.Regs[isa.PC] = taken
			} else {
				c.Regs[isa.PC] = fall
			}
			return nil
		}
	case isa.JN:
		return func(c *CPU) *Fault {
			if c.Regs[isa.SR]&isa.FlagN != 0 {
				c.Regs[isa.PC] = taken
			} else {
				c.Regs[isa.PC] = fall
			}
			return nil
		}
	case isa.JGE:
		return func(c *CPU) *Fault {
			sr := c.Regs[isa.SR]
			if (sr&isa.FlagN != 0) == (sr&isa.FlagV != 0) {
				c.Regs[isa.PC] = taken
			} else {
				c.Regs[isa.PC] = fall
			}
			return nil
		}
	case isa.JL:
		return func(c *CPU) *Fault {
			sr := c.Regs[isa.SR]
			if (sr&isa.FlagN != 0) != (sr&isa.FlagV != 0) {
				c.Regs[isa.PC] = taken
			} else {
				c.Regs[isa.PC] = fall
			}
			return nil
		}
	}
	return nil // unreachable: classify only marks KindJump for format III
}

// compileElidedALU binds the flagless variant of a pure register/immediate
// ALU step whose flag writes the liveness pass proved dead. The data result
// is computed exactly as addCore/logicFlags would (SUB/SUBC via the same
// d + ^s + carry identity); only the SR store is omitted.
func compileElidedALU(st *jit.Step) func(*CPU) *Fault {
	in := &st.In
	op, byteOp := in.Op, in.Byte
	sreg, dreg := in.Src.Reg, in.Dst.Reg
	imm := in.Src.Mode == isa.ModeImmediate
	k := in.Src.X
	if byteOp {
		k &= 0xFF
	}
	clearLow := dreg == isa.PC || dreg == isa.SP
	return func(c *CPU) *Fault {
		s := k
		if !imm {
			s = c.Regs[sreg]
			if byteOp {
				s &= 0xFF
			}
		}
		d := c.Regs[dreg]
		if byteOp {
			d &= 0xFF
		}
		var r uint16
		switch op {
		case isa.ADD:
			r = d + s
		case isa.ADDC:
			r = d + s + c.Regs[isa.SR]&isa.FlagC // FlagC is bit 0
		case isa.SUB:
			r = d - s
		case isa.SUBC:
			r = d + ^s + c.Regs[isa.SR]&isa.FlagC
		case isa.XOR:
			r = d ^ s
		case isa.AND:
			r = d & s
		}
		if byteOp {
			r &= 0xFF
		}
		if clearLow {
			r &^= 1
		}
		c.Regs[dreg] = r
		return nil
	}
}

// compileMOV binds the specialized MOV tiers: constant-to-register,
// register-to-register, and the folded-address load/store shapes produced by
// the constant-address pass. Returns nil when the shape is not specialized
// (the dispatch tier handles it).
func compileMOV(st *jit.Step) func(*CPU) *Fault {
	in := &st.In
	byteOp := in.Byte
	pc, end := st.Addr, st.Addr+st.Size

	srcImm, srcReg, srcK := in.Src.Mode == isa.ModeImmediate, in.Src.Reg, in.Src.X
	if byteOp {
		srcK &= 0xFF
	}
	loadSrc := func(c *CPU) uint16 { // register/immediate source value
		if srcImm {
			return srcK
		}
		v := c.Regs[srcReg]
		if byteOp {
			v &= 0xFF
		}
		return v
	}
	regImmSrc := srcImm || in.Src.Mode == isa.ModeRegister

	switch {
	case in.Src.Mode == isa.ModeImmediate && in.Dst.Mode == isa.ModeRegister:
		// MOV #k, Rd: the stored value is fully computable at compile time.
		v, dreg := in.Src.X, in.Dst.Reg
		if byteOp {
			v &= 0xFF
		}
		if dreg == isa.PC || dreg == isa.SP {
			v &^= 1
		}
		return func(c *CPU) *Fault { c.Regs[dreg] = v; return nil }

	case in.Src.Mode == isa.ModeRegister && in.Dst.Mode == isa.ModeRegister:
		sreg, dreg := in.Src.Reg, in.Dst.Reg
		clearLow := dreg == isa.PC || dreg == isa.SP
		return func(c *CPU) *Fault {
			v := c.Regs[sreg]
			if byteOp {
				v &= 0xFF
			}
			if clearLow {
				v &^= 1
			}
			c.Regs[dreg] = v
			return nil
		}

	case st.SrcFold && in.Dst.Mode == isa.ModeRegister:
		// MOV &addr, Rd / MOV sym, Rd: checked load from a constant address.
		addr, dreg := st.SrcAddr, in.Dst.Reg
		clearLow := dreg == isa.PC || dreg == isa.SP
		return func(c *CPU) *Fault {
			c.Regs[isa.PC] = end
			v, viol := c.readMem(addr, byteOp)
			if viol != nil {
				return &Fault{PC: pc, Violation: viol}
			}
			if clearLow {
				v &^= 1
			}
			c.Regs[dreg] = v
			return nil
		}

	case st.DstFold && regImmSrc:
		// MOV Rs/#k, &addr: checked store to a constant address.
		addr := st.DstAddr
		return func(c *CPU) *Fault {
			c.Regs[isa.PC] = end
			v := loadSrc(c)
			var viol *mem.Violation
			if byteOp {
				viol = c.Bus.Write8(addr, uint8(v))
			} else {
				viol = c.Bus.Write16(addr, v)
			}
			if viol != nil {
				return &Fault{PC: pc, Violation: viol}
			}
			return nil
		}

	case st.SrcFold && st.DstFold:
		// MOV &a, &b: global-to-global copy, both addresses constant.
		saddr, daddr := st.SrcAddr, st.DstAddr
		return func(c *CPU) *Fault {
			c.Regs[isa.PC] = end
			v, viol := c.readMem(saddr, byteOp)
			if viol != nil {
				return &Fault{PC: pc, Violation: viol}
			}
			if byteOp {
				viol = c.Bus.Write8(daddr, uint8(v))
			} else {
				viol = c.Bus.Write16(daddr, v)
			}
			if viol != nil {
				return &Fault{PC: pc, Violation: viol}
			}
			return nil
		}
	}
	return nil
}
