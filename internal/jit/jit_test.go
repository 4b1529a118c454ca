package jit

import (
	"testing"

	"amuletiso/internal/isa"
	"amuletiso/internal/mem"
)

// build assembles instrs at 0x4400 and predecodes them, returning the
// program and its discovered spans.
func build(t *testing.T, instrs ...isa.Instr) (*isa.Program, []isa.Block) {
	t.Helper()
	bus := mem.NewBus()
	addr := uint16(0x4400)
	for _, in := range instrs {
		for _, w := range isa.MustEncode(in) {
			bus.Poke16(addr, w)
			addr += 2
		}
	}
	p := isa.Predecode(bus, []isa.TextRange{{Lo: 0x4400, Hi: addr}})
	return p, p.BlockSpans()
}

// liftAt lifts the discovered block headed at addr, failing if none is.
func liftAt(t *testing.T, p *isa.Program, spans []isa.Block, addr uint16) *Block {
	t.Helper()
	for _, s := range spans {
		if s.Addr == addr {
			b := Lift(p, s)
			if b == nil {
				t.Fatalf("block at %04X did not lift", addr)
			}
			return b
		}
	}
	t.Fatalf("no discovered block headed at %04X (have %+v)", addr, spans)
	return nil
}

// TestDiscoverBlocks pins the superblock entry-point rule: range start,
// static jump target and post-terminator fall-through each head a block,
// blocks overlap rather than stop at interior joins, and the result is
// sorted by address.
func TestDiscoverBlocks(t *testing.T) {
	_, spans := build(t,
		// 0x4400, 4B
		isa.Instr{Op: isa.MOV, Src: isa.Imm(5), Dst: isa.RegOp(isa.R4)},
		// 0x4404, 2B (constant generator)
		isa.Instr{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R4)},
		// 0x4406, 2B: terminator; taken 0x440A, fall 0x4408
		isa.Instr{Op: isa.JMP, Dst: isa.Operand{X: 1}},
		// 0x4408, 2B: fall-through head; its run extends THROUGH 0x440A
		isa.Instr{Op: isa.ADD, Src: isa.Imm(2), Dst: isa.RegOp(isa.R4)},
		// 0x440A, 2B: jump-target head
		isa.Instr{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R5)},
		// 0x440C, 2B
		isa.Instr{Op: isa.ADD, Src: isa.RegOp(isa.R5), Dst: isa.RegOp(isa.R4)},
		// 0x440E, 4B
		isa.Instr{Op: isa.MOV, Src: isa.RegOp(isa.R4), Dst: isa.Abs(0x2000)},
	)
	want := []isa.Block{
		{Addr: 0x4400, Size: 8, N: 3},  // up to and including the JMP
		{Addr: 0x4408, Size: 10, N: 4}, // through the join, to range end
		{Addr: 0x440A, Size: 8, N: 3},
	}
	if len(spans) != len(want) {
		t.Fatalf("discovered %d blocks, want %d: %+v", len(spans), len(want), spans)
	}
	for i, w := range want {
		if spans[i] != w {
			t.Errorf("block %d = %+v, want %+v", i, spans[i], w)
		}
	}
}

// TestBlockTerminator pins which instructions end a straight-line run.
func TestBlockTerminator(t *testing.T) {
	cases := []struct {
		in   isa.Instr
		want bool
	}{
		{isa.Instr{Op: isa.JMP, Dst: isa.Operand{X: 1}}, true},
		{isa.Instr{Op: isa.JEQ, Dst: isa.Operand{X: 1}}, true},
		{isa.Instr{Op: isa.CALL, Src: isa.Imm(0x4400)}, true},
		{isa.Instr{Op: isa.RETI}, true},
		// BR #addr and RET are MOVs into PC.
		{isa.Instr{Op: isa.MOV, Src: isa.Imm(0x4400), Dst: isa.RegOp(isa.PC)}, true},
		{isa.Instr{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.PC)}, true},
		{isa.Instr{Op: isa.ADD, Src: isa.Imm(2), Dst: isa.RegOp(isa.PC)}, true},
		// PUSH only reads its operand, even PC.
		{isa.Instr{Op: isa.PUSH, Src: isa.RegOp(isa.PC)}, false},
		{isa.Instr{Op: isa.PUSH, Src: isa.RegOp(isa.R4)}, false},
		{isa.Instr{Op: isa.ADD, Src: isa.RegOp(isa.R4), Dst: isa.RegOp(isa.R5)}, false},
		{isa.Instr{Op: isa.MOV, Src: isa.RegOp(isa.R4), Dst: isa.Abs(0x2000)}, false},
	}
	for _, c := range cases {
		if got := isa.BlockTerminator(c.in); got != c.want {
			t.Errorf("BlockTerminator(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestLiftDeadFlags pins the dead-flag pass on a pure register run: a flag
// store is dead exactly when a later step in the segment rewrites it before
// anything reads it or could observe it, and a dead CMP is skipped entirely.
func TestLiftDeadFlags(t *testing.T) {
	p, spans := build(t,
		isa.Instr{Op: isa.CMP, Src: isa.Imm(0), Dst: isa.RegOp(isa.R4)}, // flags die at the ADD: Dead
		isa.Instr{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R4)}, // flags die at the CMP: Elide
		isa.Instr{Op: isa.CMP, Src: isa.Imm(5), Dst: isa.RegOp(isa.R4)}, // JEQ reads them: live
		isa.Instr{Op: isa.JEQ, Dst: isa.Operand{X: 1}},
	)
	b := liftAt(t, p, spans, 0x4400)
	steps := b.Steps
	if !steps[0].Elide || !steps[0].Dead {
		t.Errorf("dead CMP not skipped: %+v", steps[0])
	}
	if !steps[1].Elide || steps[1].Dead {
		t.Errorf("dead-flag ADD should elide (and only elide): %+v", steps[1])
	}
	if steps[2].Elide || steps[2].Live == 0 {
		t.Errorf("live CMP must materialize its flags: %+v", steps[2])
	}
	if !b.LastIsTerm {
		t.Error("block ending in a jump must set LastIsTerm")
	}
	if b.Stats.Elided != 2 || b.Stats.Dead != 1 {
		t.Errorf("stats = %+v, want Elided 2 Dead 1", b.Stats)
	}
}

// TestLiftMayFaultKeepsFlagsLive pins the observation-point rule: a step that
// may fault exposes SR, so flag stores before it are never elided even if a
// later step would rewrite them.
func TestLiftMayFaultKeepsFlagsLive(t *testing.T) {
	p, spans := build(t,
		isa.Instr{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R4)}, // live: the load may fault
		isa.Instr{Op: isa.XOR, Src: isa.Abs(0x2000), Dst: isa.RegOp(isa.R5)},
		isa.Instr{Op: isa.ADD, Src: isa.Imm(2), Dst: isa.RegOp(isa.R5)},
	)
	b := liftAt(t, p, spans, 0x4400)
	if b.Steps[0].Elide {
		t.Errorf("flags before a faultable load must stay live: %+v", b.Steps[0])
	}
	if !b.Steps[1].MayFault || b.Steps[1].MayWrite {
		t.Errorf("memory load misclassified: %+v", b.Steps[1])
	}
}

// TestLiftSegmentation pins the atomic-run structure: memory-writing and
// SR-rewriting steps end their segments, Seg.MayWrite marks re-probe points,
// and PreCost is the segment cost minus its last step (the budget-atomicity
// pre-check value).
func TestLiftSegmentation(t *testing.T) {
	p, spans := build(t,
		isa.Instr{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R4)},
		isa.Instr{Op: isa.MOV, Src: isa.RegOp(isa.R4), Dst: isa.Abs(0x2000)}, // store: ends seg 0
		isa.Instr{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R5)},
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0), Dst: isa.RegOp(isa.SR)}, // barrier: ends seg 1
		isa.Instr{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(isa.R6)},
		isa.Instr{Op: isa.ADD, Src: isa.Imm(2), Dst: isa.RegOp(isa.R6)},
	)
	b := liftAt(t, p, spans, 0x4400)
	if len(b.Segs) != 3 {
		t.Fatalf("got %d segments, want 3: %+v", len(b.Segs), b.Segs)
	}
	if !b.Segs[0].MayWrite || b.Segs[1].MayWrite || b.Segs[2].MayWrite {
		t.Errorf("MayWrite marks = %+v, want store-segment only", b.Segs)
	}
	for i, sg := range b.Segs {
		var cost uint32
		for j := sg.Lo; j < sg.Hi; j++ {
			cost += uint32(b.Steps[j].Cost)
		}
		if sg.Cost != cost || sg.PreCost != cost-uint32(b.Steps[sg.Hi-1].Cost) {
			t.Errorf("seg %d cost/precost = %d/%d, want %d/%d",
				i, sg.Cost, sg.PreCost, cost, cost-uint32(b.Steps[sg.Hi-1].Cost))
		}
		if sg.Addr != b.Steps[sg.Lo].Addr {
			t.Errorf("seg %d deopt PC = %04X, want %04X", i, sg.Addr, b.Steps[sg.Lo].Addr)
		}
	}
	if b.LastIsTerm {
		t.Error("straight-line block must not set LastIsTerm")
	}
	if barrier := &b.Steps[3]; !barrier.Barrier || barrier.WFlags != FlagsAll {
		t.Errorf("MOV #imm, SR misclassified: %+v", barrier)
	}
}

// TestLiftFolding pins constant-address folding and extension-word
// elimination: absolute and symbolic operands resolve at lift time, and the
// MOV shapes whose executors consult only baked constants count their
// extension words as eliminated.
func TestLiftFolding(t *testing.T) {
	p, spans := build(t,
		// 0x4400: immediate MOV: executor is a precomputed store, ext baked.
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x1234), Dst: isa.RegOp(isa.R4)},
		// 0x4404: absolute destination folds.
		isa.Instr{Op: isa.MOV, Src: isa.RegOp(isa.R4), Dst: isa.Abs(0x2000)},
		// 0x4408: absolute source folds.
		isa.Instr{Op: isa.XOR, Src: isa.Abs(0x2002), Dst: isa.RegOp(isa.R5)},
		// 0x440C: symbolic x(PC) source folds against its extension-word
		// address (0x440E), not the live PC.
		isa.Instr{Op: isa.MOV, Src: isa.Operand{Mode: isa.ModeIndexed, Reg: isa.PC, X: 0x10}, Dst: isa.RegOp(isa.R6)},
	)
	b := liftAt(t, p, spans, 0x4400)
	if st := b.Steps[0]; st.ExtBaked != 1 {
		t.Errorf("immediate MOV should bake its extension word: %+v", st)
	}
	if st := b.Steps[1]; !st.DstFold || st.DstAddr != 0x2000 {
		t.Errorf("absolute destination not folded: %+v", st)
	}
	if st := b.Steps[2]; !st.SrcFold || st.SrcAddr != 0x2002 {
		t.Errorf("absolute source not folded: %+v", st)
	}
	if st := b.Steps[3]; !st.SrcFold || st.SrcAddr != 0x440E+0x10 {
		t.Errorf("symbolic source not folded to ext+X: %+v", st)
	}
	if b.Stats.Folded != 3 {
		t.Errorf("stats = %+v, want Folded 3", b.Stats)
	}
}
