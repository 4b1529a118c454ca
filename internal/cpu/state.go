package cpu

import (
	"sort"

	"amuletiso/internal/isa"
)

// State is the serializable execution state of a CPU: everything a machine
// carries between instructions that is not reconstructible from the firmware
// image. It covers the core (registers, clocks, halt latch), the debug
// surfaces (console buffer, pending interrupts), the per-device dirty-code
// set that shadows the shared predecode cache, and the two memory-mapped
// peripherals New wires up (Timer_A and the MPY32 multiplier), whose
// registers live outside bus pages and so outside mem.SnapshotData.
//
// The attached Program/JIT plan and runLimit are deliberately absent: the
// caches are derived from the firmware and reattached at load, and runLimit
// is only nonzero inside Run.
type State struct {
	Regs     [isa.NumRegs]uint16 `json:"regs"`
	Cycles   uint64              `json:"cycles"`
	Insns    uint64              `json:"insns"`
	Halted   bool                `json:"halted,omitempty"`
	ExitCode uint16              `json:"exitCode,omitempty"`

	Console    []byte   `json:"console,omitempty"`
	PendingIRQ []uint16 `json:"pendingIRQ,omitempty"`

	// DirtyCode lists the word-aligned text addresses overwritten on this
	// machine, sorted so encoding is deterministic.
	DirtyCode []uint16 `json:"dirtyCode,omitempty"`

	TimerCTL  uint16 `json:"timerCtl,omitempty"`
	TimerBias uint64 `json:"timerBias,omitempty"`

	MPYOp1    uint16 `json:"mpyOp1,omitempty"`
	MPYSigned bool   `json:"mpySigned,omitempty"`
	MPYRes    uint32 `json:"mpyRes,omitempty"`
}

// State captures the CPU's execution state for checkpointing.
func (c *CPU) State() State {
	s := State{
		Regs:      c.Regs,
		Cycles:    c.Cycles,
		Insns:     c.Insns,
		Halted:    c.Halted,
		ExitCode:  c.ExitCode,
		TimerCTL:  c.timer.ctl,
		TimerBias: c.timer.bias,
		MPYOp1:    c.mpy.op1,
		MPYSigned: c.mpy.signed,
		MPYRes:    c.mpy.res,
	}
	s.Console = append(s.Console, c.Console...)
	s.PendingIRQ = append(s.PendingIRQ, c.pendingIRQ...)
	if len(c.dirty) > 0 {
		s.DirtyCode = make([]uint16, 0, len(c.dirty))
		for a := range c.dirty {
			s.DirtyCode = append(s.DirtyCode, a)
		}
		sort.Slice(s.DirtyCode, func(i, j int) bool { return s.DirtyCode[i] < s.DirtyCode[j] })
	}
	return s
}

// SetState restores a previously captured State. The checkpoint's dirty set
// replaces whatever the restore process accumulated (writing checkpointed
// memory back through the bus trips the code watch), so the machine decodes
// exactly the words the original run would have.
func (c *CPU) SetState(s State) {
	c.Regs = s.Regs
	c.Cycles = s.Cycles
	c.Insns = s.Insns
	c.Halted = s.Halted
	c.ExitCode = s.ExitCode
	c.Console = append([]byte(nil), s.Console...)
	c.pendingIRQ = append([]uint16(nil), s.PendingIRQ...)
	c.dirty = nil
	if len(s.DirtyCode) > 0 {
		c.dirty = make(map[uint16]struct{}, len(s.DirtyCode))
		for _, a := range s.DirtyCode {
			c.dirty[a] = struct{}{}
		}
	}
	c.timer.ctl = s.TimerCTL
	c.timer.bias = s.TimerBias
	c.mpy.op1 = s.MPYOp1
	c.mpy.signed = s.MPYSigned
	c.mpy.res = s.MPYRes
}
