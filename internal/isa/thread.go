package isa

// Threaded-dispatch handler binding. The predecode pass resolves every cached
// instruction to a HandlerID — an index into the CPU package's executor table
// — so the interpreter's hot loop becomes one indirect call per instruction
// instead of a cascade of format and opcode switches. The binding is
// per-opcode and per-addressing-mode-class: jumps and RETI get dedicated
// handlers (no operand machinery at all), the hot format-I shape
// (register/immediate source into a register destination) gets a specialized
// handler per opcode, and everything else falls to a generic handler that
// still skips the outer format dispatch.
//
// The ID space lives here (next to the opcodes it mirrors) because predecode
// computes it, but the handlers themselves are CPU methods: internal/cpu owns
// a table indexed by HandlerID and asserts at test time that every ID is
// bound. HNone (the zero value) means "unbound — execute through the classic
// switch", which is both the escape hatch (`-nothread` runs a program's
// Unthreaded twin, every slot at HNone) and the enforcement oracle the
// equivalence battery replays against.

// HandlerID indexes the CPU package's threaded-dispatch executor table.
// The zero value HNone marks a slot with no bound handler (an Unthreaded
// twin, or an instruction only the live decoder ever sees).
type HandlerID uint8

// Handler IDs. Order is load-bearing in two places: the jump block mirrors
// the JNE..JMP opcode order, and the fast format-I block mirrors MOV..AND,
// so binding is pure index arithmetic.
const (
	HNone HandlerID = iota

	// Format III: one dedicated handler per condition.
	HJNE
	HJEQ
	HJNC
	HJC
	HJN
	HJGE
	HJL
	HJMP

	HRETI

	// Format II specializations for the shapes gate and call-heavy code
	// runs hot: PUSH of a register (word) and CALL of an immediate target.
	HPushReg
	HCallImm
	// HOneGeneric covers the remaining format-II shapes.
	HOneGeneric

	// Format I fast path: source in a register or immediate, destination a
	// register — no memory operands, so no extension-word or bus traffic.
	// One handler per opcode, MOV..AND order.
	HFastMOV
	HFastADD
	HFastADDC
	HFastSUBC
	HFastSUB
	HFastCMP
	HFastDADD
	HFastBIT
	HFastBIC
	HFastBIS
	HFastXOR
	HFastAND

	// Format I generic path: a memory operand on either side. Still one
	// handler per opcode — the operand machinery is shared, but the op core
	// is resolved at predecode instead of re-switched per execution.
	HGenMOV
	HGenADD
	HGenADDC
	HGenSUBC
	HGenSUB
	HGenCMP
	HGenDADD
	HGenBIT
	HGenBIC
	HGenBIS
	HGenXOR
	HGenAND

	// NumHandlers sizes the executor table.
	NumHandlers
)

// HandlerFor resolves the dispatch handler for a decoded instruction. It is
// a pure function of the instruction shape; Predecode calls it once per slot.
func HandlerFor(in Instr) HandlerID {
	switch {
	case in.Op.IsJump():
		return HJNE + HandlerID(in.Op-JNE)
	case in.Op == RETI:
		return HRETI
	case in.Op == PUSH && in.Src.Mode == ModeRegister && !in.Byte:
		return HPushReg
	case in.Op == CALL && in.Src.Mode == ModeImmediate:
		return HCallImm
	case in.Op.IsOneOperand():
		return HOneGeneric
	case (in.Src.Mode == ModeRegister || in.Src.Mode == ModeImmediate) &&
		in.Dst.Mode == ModeRegister:
		return HFastMOV + HandlerID(in.Op-MOV)
	}
	return HGenMOV + HandlerID(in.Op-MOV)
}
