package isa

// Superblock discovery for the block JIT. The same immutability argument
// behind the predecode cache (text is load-time verified and execute-only, so
// decode once) extends one granularity tier up: whole straight-line runs of
// cached instructions can be discovered once, lifted to a small IR, optimized
// and bound to a compiled Go executor (see internal/jit for the IR and
// internal/cpu for the executor). This file owns what the isa layer can know
// without a CPU: where the superblocks are.
//
// A superblock starts at any address control flow can enter from outside —
// a text-range start, the instruction after a terminator, a static branch or
// CALL #imm target, a call's return address — and runs forward through
// straight-line code until a terminator (an instruction that can write the
// PC), an uncacheable slot, the end of the text range, or the length cap.
// Blocks deliberately extend THROUGH interior join points rather than
// stopping at them (the "superblock" part): an interior entry simply starts
// its own, overlapping block, so every PC still means exactly what it meant
// to the interpreter and a branch landing mid-block never executes compiled
// code it did not enter at the head of.

// Block is one discovered superblock: N cacheable instructions, contiguous
// in a single text range, of which only the last may transfer control.
type Block struct {
	Addr uint16 // address of the first instruction
	Size uint16 // total encoded bytes
	N    uint16 // instruction count
}

// Block length bounds: one instruction is not a block (the single-slot path
// already handles it optimally), and the cap bounds both compile cost and
// the span the executor's entry checks must cover.
const (
	minBlockLen = 2
	maxBlockLen = 32
)

// BlockTerminator reports whether in ends a straight-line run: any
// instruction that can write the PC — jumps, CALL, RETI, a format-I
// destination of PC (BR, RET = MOV @SP+,PC, computed branches), or a
// format-II register operand of PC (excluding PUSH, which only reads it).
func BlockTerminator(in Instr) bool {
	switch {
	case in.Op.IsJump() || in.Op == CALL || in.Op == RETI:
		return true
	case in.Op.IsTwoOperand() && in.Dst.Mode == ModeRegister && in.Dst.Reg == PC:
		return true
	case in.Op.IsOneOperand() && in.Op != PUSH &&
		in.Src.Mode == ModeRegister && in.Src.Reg == PC:
		return true
	}
	return false
}

// discoverBlocks runs superblock discovery over the predecoded slots: one
// pass collecting every statically known entry point, then a walk extending
// a block from each. Results are sorted by address so the discovery order is
// deterministic regardless of map iteration.
func (p *Program) discoverBlocks() {
	heads := make(map[uint16]struct{})
	for _, tr := range p.ranges {
		heads[(tr.Lo+1)&^1] = struct{}{}
		for a := (tr.Lo + 1) &^ 1; a+1 < tr.Hi && a >= tr.Lo; a += 2 {
			e := p.At(a)
			if e == nil || uint32(a)+uint32(e.Size) > uint32(tr.Hi) {
				continue
			}
			if e.In.Op.IsJump() {
				// Taken target: PC past the encoding plus the word offset.
				heads[a+2+2*uint16(e.In.JmpOffsetWords())] = struct{}{}
			}
			if e.In.Op == CALL && e.In.Src.Mode == ModeImmediate {
				heads[e.In.Src.X&^1] = struct{}{}
			}
			if BlockTerminator(e.In) {
				// Fall-through successor (and a CALL's return address).
				heads[a+e.Size] = struct{}{}
			}
		}
	}
	for _, tr := range p.ranges {
		for h := range heads {
			if h < tr.Lo || h >= tr.Hi || h&1 != 0 {
				continue
			}
			if b, ok := p.walkBlock(h, tr); ok {
				p.blocks = append(p.blocks, b)
			}
		}
	}
	sortBlocks(p.blocks)
}

// walkBlock extends a block forward from head h inside text range tr.
func (p *Program) walkBlock(h uint16, tr TextRange) (Block, bool) {
	a, n := h, uint16(0)
	for n < maxBlockLen {
		if a < tr.Lo || a >= tr.Hi {
			break
		}
		e := p.At(a)
		if e == nil || uint32(a)+uint32(e.Size) > uint32(tr.Hi) {
			break
		}
		a += e.Size
		n++
		if BlockTerminator(e.In) {
			break
		}
	}
	if n < minBlockLen {
		return Block{}, false
	}
	return Block{Addr: h, Size: a - h, N: n}, true
}

// sortBlocks is an insertion sort by address — block counts are small and
// this keeps the file free of a sort import on the Predecode path.
func sortBlocks(bs []Block) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].Addr < bs[j-1].Addr; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}
