package cpu

// Threaded dispatch: the executor table behind isa.HandlerID. Predecode
// binds every cached instruction to one of these
// handlers, so the hot loop replaces the exec switch cascade — format class,
// then opcode, then addressing mode — with a single indirect call. Every
// handler is observably identical to the corresponding exec path: the
// equivalence battery in internal/torture replays whole campaigns across
// {threaded, switch} and asserts byte-identical traces, and the `-nothread`
// hatch (engine.Engine.NoThread) keeps the switch engine as the enforcement
// oracle.
//
// The fast format-I handlers cover the register/immediate-source,
// register-destination shape: no extension words, no bus traffic, no operand
// `location` plumbing — just the ALU core and the flag writes, in exactly
// the order the switch executor performs them.

import "amuletiso/internal/isa"

// execFn is the threaded executor signature: pc is the instruction address
// (the PC register has already been advanced past the encoding), in points
// into the shared predecode cache and must not be written through.
type execFn func(c *CPU, pc, size uint16, in *isa.Instr) *Fault

// handlers is the executor table indexed by isa.HandlerID. Every ID except
// isa.HNone must be bound (TestHandlerTableComplete enforces it).
var handlers = [isa.NumHandlers]execFn{
	isa.HJNE: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		if !c.flag(isa.FlagZ) {
			c.jump(in)
		}
		return nil
	},
	isa.HJEQ: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		if c.flag(isa.FlagZ) {
			c.jump(in)
		}
		return nil
	},
	isa.HJNC: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		if !c.flag(isa.FlagC) {
			c.jump(in)
		}
		return nil
	},
	isa.HJC: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		if c.flag(isa.FlagC) {
			c.jump(in)
		}
		return nil
	},
	isa.HJN: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		if c.flag(isa.FlagN) {
			c.jump(in)
		}
		return nil
	},
	isa.HJGE: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		if c.flag(isa.FlagN) == c.flag(isa.FlagV) {
			c.jump(in)
		}
		return nil
	},
	isa.HJL: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		if c.flag(isa.FlagN) != c.flag(isa.FlagV) {
			c.jump(in)
		}
		return nil
	},
	isa.HJMP: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		c.jump(in)
		return nil
	},

	isa.HRETI: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		sr, viol := c.pop()
		if viol != nil {
			return &Fault{PC: pc, Violation: viol}
		}
		c.Regs[isa.SR] = sr
		ret, viol := c.pop()
		if viol != nil {
			return &Fault{PC: pc, Violation: viol}
		}
		c.SetPC(ret)
		return nil
	},

	// PUSH Rn (word): the source register is read before SP moves, so
	// PUSH SP stores the pre-decrement value, as on hardware (and as
	// resolveSrc-before-decrement does on the switch path).
	isa.HPushReg: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		val := c.Regs[in.Src.Reg]
		c.Regs[isa.SP] -= 2
		if v := c.Bus.Write16(c.Regs[isa.SP], val); v != nil {
			return &Fault{PC: pc, Violation: v}
		}
		return nil
	},

	isa.HCallImm: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		val := in.Src.X
		if in.Byte {
			val &= 0xFF
		}
		if v := c.push(c.PC()); v != nil {
			return &Fault{PC: pc, Violation: v}
		}
		c.SetPC(val)
		return nil
	},

	isa.HOneGeneric: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		return c.execOneOperand(pc, size, *in)
	},

	// Generic format I, one handler per opcode: the operand prologue is
	// shared (twoOps) but the op core is bound at predecode, so the
	// per-execution opcode switch disappears.
	isa.HGenMOV: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, _, loc, flt := c.twoOps(pc, size, in, false)
		if flt != nil {
			return flt
		}
		return c.finishTwo(pc, loc, src, in.Byte)
	},
	isa.HGenADD: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst, loc, flt := c.twoOps(pc, size, in, true)
		if flt != nil {
			return flt
		}
		return c.finishTwo(pc, loc, c.addCore(dst, src, 0, in.Byte), in.Byte)
	},
	isa.HGenADDC: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst, loc, flt := c.twoOps(pc, size, in, true)
		if flt != nil {
			return flt
		}
		ci := uint16(0)
		if c.flag(isa.FlagC) {
			ci = 1
		}
		return c.finishTwo(pc, loc, c.addCore(dst, src, ci, in.Byte), in.Byte)
	},
	isa.HGenSUBC: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst, loc, flt := c.twoOps(pc, size, in, true)
		if flt != nil {
			return flt
		}
		ci := uint16(0)
		if c.flag(isa.FlagC) {
			ci = 1
		}
		return c.finishTwo(pc, loc, c.addCore(dst, ^src, ci, in.Byte), in.Byte)
	},
	isa.HGenSUB: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst, loc, flt := c.twoOps(pc, size, in, true)
		if flt != nil {
			return flt
		}
		return c.finishTwo(pc, loc, c.addCore(dst, ^src, 1, in.Byte), in.Byte)
	},
	isa.HGenCMP: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst, _, flt := c.twoOps(pc, size, in, true)
		if flt != nil {
			return flt
		}
		c.addCore(dst, ^src, 1, in.Byte)
		return nil
	},
	isa.HGenDADD: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst, loc, flt := c.twoOps(pc, size, in, true)
		if flt != nil {
			return flt
		}
		return c.finishTwo(pc, loc, c.dadd(dst, src, in.Byte), in.Byte)
	},
	isa.HGenBIT: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst, _, flt := c.twoOps(pc, size, in, true)
		if flt != nil {
			return flt
		}
		c.logicFlags(dst&src, in.Byte, false)
		return nil
	},
	isa.HGenBIC: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst, loc, flt := c.twoOps(pc, size, in, true)
		if flt != nil {
			return flt
		}
		return c.finishTwo(pc, loc, dst&^src, in.Byte)
	},
	isa.HGenBIS: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst, loc, flt := c.twoOps(pc, size, in, true)
		if flt != nil {
			return flt
		}
		return c.finishTwo(pc, loc, dst|src, in.Byte)
	},
	isa.HGenXOR: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst, loc, flt := c.twoOps(pc, size, in, true)
		if flt != nil {
			return flt
		}
		res := dst ^ src
		sign := uint16(0x8000)
		if in.Byte {
			sign = 0x80
		}
		c.logicFlags(res, in.Byte, dst&src&sign != 0)
		return c.finishTwo(pc, loc, res, in.Byte)
	},
	isa.HGenAND: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst, loc, flt := c.twoOps(pc, size, in, true)
		if flt != nil {
			return flt
		}
		res := dst & src
		c.logicFlags(res, in.Byte, false)
		return c.finishTwo(pc, loc, res, in.Byte)
	},

	isa.HFastMOV: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		c.writeReg(in.Dst.Reg, c.fastSrc(in), in.Byte)
		return nil
	},
	isa.HFastADD: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst := c.fastOperands(in)
		c.writeReg(in.Dst.Reg, c.addCore(dst, src, 0, in.Byte), in.Byte)
		return nil
	},
	isa.HFastADDC: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst := c.fastOperands(in)
		ci := uint16(0)
		if c.flag(isa.FlagC) {
			ci = 1
		}
		c.writeReg(in.Dst.Reg, c.addCore(dst, src, ci, in.Byte), in.Byte)
		return nil
	},
	isa.HFastSUBC: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst := c.fastOperands(in)
		ci := uint16(0)
		if c.flag(isa.FlagC) {
			ci = 1
		}
		c.writeReg(in.Dst.Reg, c.addCore(dst, ^src, ci, in.Byte), in.Byte)
		return nil
	},
	isa.HFastSUB: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst := c.fastOperands(in)
		c.writeReg(in.Dst.Reg, c.addCore(dst, ^src, 1, in.Byte), in.Byte)
		return nil
	},
	isa.HFastCMP: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst := c.fastOperands(in)
		c.addCore(dst, ^src, 1, in.Byte)
		return nil
	},
	isa.HFastDADD: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst := c.fastOperands(in)
		c.writeReg(in.Dst.Reg, c.dadd(dst, src, in.Byte), in.Byte)
		return nil
	},
	isa.HFastBIT: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst := c.fastOperands(in)
		c.logicFlags(dst&src, in.Byte, false)
		return nil
	},
	isa.HFastBIC: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst := c.fastOperands(in)
		c.writeReg(in.Dst.Reg, dst&^src, in.Byte)
		return nil
	},
	isa.HFastBIS: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst := c.fastOperands(in)
		c.writeReg(in.Dst.Reg, dst|src, in.Byte)
		return nil
	},
	isa.HFastXOR: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst := c.fastOperands(in)
		res := dst ^ src
		sign := uint16(0x8000)
		if in.Byte {
			sign = 0x80
		}
		c.logicFlags(res, in.Byte, dst&src&sign != 0)
		c.writeReg(in.Dst.Reg, res, in.Byte)
		return nil
	},
	isa.HFastAND: func(c *CPU, pc, size uint16, in *isa.Instr) *Fault {
		src, dst := c.fastOperands(in)
		res := dst & src
		c.logicFlags(res, in.Byte, false)
		c.writeReg(in.Dst.Reg, res, in.Byte)
		return nil
	},
}

// jump applies a taken format-III branch (PC is already past the encoding).
func (c *CPU) jump(in *isa.Instr) {
	c.SetPC(c.PC() + 2*uint16(int16(in.Dst.X)))
}

// fastSrc reads a register or immediate source with byte masking — the only
// two source shapes the fast handlers are bound for.
func (c *CPU) fastSrc(in *isa.Instr) uint16 {
	if in.Src.Mode == isa.ModeRegister {
		return c.readReg(in.Src.Reg, in.Byte)
	}
	v := in.Src.X
	if in.Byte {
		v &= 0xFF
	}
	return v
}

// fastOperands reads both operands of a fast format-I instruction (the
// destination is always a register; reading it is side-effect free even for
// ops that ignore the old value).
func (c *CPU) fastOperands(in *isa.Instr) (src, dst uint16) {
	return c.fastSrc(in), c.readReg(in.Dst.Reg, in.Byte)
}

// twoOps is the generic format-I operand prologue shared by the HGen*
// handlers: resolve the source (with side effects), then the destination.
// The extension-word addresses fall out of pc and size exactly as in
// execTwoOperand.
func (c *CPU) twoOps(pc, size uint16, in *isa.Instr, needRead bool) (src, dst uint16, loc location, flt *Fault) {
	src, _, viol := c.resolveSrc(*in, pc+2)
	if viol != nil {
		return 0, 0, location{}, &Fault{PC: pc, Violation: viol}
	}
	dst, loc, viol = c.resolveDst(*in, pc+size-2, needRead)
	if viol != nil {
		return 0, 0, location{}, &Fault{PC: pc, Violation: viol}
	}
	return src, dst, loc, nil
}

// finishTwo stores a format-I result.
func (c *CPU) finishTwo(pc uint16, loc location, res uint16, byteOp bool) *Fault {
	if v := c.writeLoc(loc, res, byteOp); v != nil {
		return &Fault{PC: pc, Violation: v}
	}
	return nil
}

// writeReg stores a result to a register with byte masking and PC/SP
// alignment — the register branch of writeLoc, without the location box.
func (c *CPU) writeReg(r isa.Reg, v uint16, byteOp bool) {
	if byteOp {
		v &= 0xFF
	}
	c.Regs[r] = v
	if r == isa.PC || r == isa.SP {
		c.Regs[r] &^= 1
	}
}

// dispatch executes one decoded instruction through its bound handler, or
// through the classic switch executor when no handler is bound (threading
// disabled, or a live-decoded instruction).
func (c *CPU) dispatch(pc, size uint16, in *isa.Instr, h isa.HandlerID) *Fault {
	if h != isa.HNone {
		return handlers[h](c, pc, size, in)
	}
	return c.exec(pc, size, *in)
}
