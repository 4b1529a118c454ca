package isa

import "fmt"

// Encoding field positions, format I:
//
//	15..12 opcode | 11..8 src reg | 7 Ad | 6 B/W | 5..4 As | 3..0 dst reg
//
// Format II:
//
//	15..10 000100 | 9..7 opcode | 6 B/W | 5..4 Ad | 3..0 reg
//
// Format III:
//
//	15..13 001 | 12..10 condition | 9..0 signed word offset

// EncodeError describes an instruction that cannot be encoded.
type EncodeError struct {
	Instr  Instr
	Reason string
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("isa: cannot encode %q: %s", e.Instr.String(), e.Reason)
}

// srcBits returns (As, reg, extWord, hasExt) for a source operand.
func srcBits(o Operand) (as uint16, reg Reg, ext uint16, hasExt bool, err string) {
	return srcBitsOpt(o, false)
}

// srcBitsOpt is srcBits with optional suppression of the constant
// generators (forceImm), used for symbol-patched immediates whose value is
// unknown when instruction sizes are fixed.
func srcBitsOpt(o Operand, forceImm bool) (as uint16, reg Reg, ext uint16, hasExt bool, err string) {
	if forceImm && o.Mode == ModeImmediate {
		return 3, PC, o.X, true, ""
	}
	switch o.Mode {
	case ModeRegister:
		if o.Reg == CG {
			return 0, 0, 0, false, "R3 is the constant generator and cannot be a source register"
		}
		return 0, o.Reg, 0, false, ""
	case ModeIndexed:
		if o.Reg == SR || o.Reg == CG {
			return 0, 0, 0, false, "indexed mode on R2/R3 conflicts with constant generator encodings"
		}
		return 1, o.Reg, o.X, true, ""
	case ModeAbsolute:
		return 1, SR, o.X, true, ""
	case ModeIndirect:
		if o.Reg == SR || o.Reg == CG {
			return 0, 0, 0, false, "indirect mode on R2/R3 conflicts with constant generator encodings"
		}
		return 2, o.Reg, 0, false, ""
	case ModeIndirectInc:
		if o.Reg == SR || o.Reg == CG {
			return 0, 0, 0, false, "autoincrement mode on R2/R3 conflicts with constant generator encodings"
		}
		return 3, o.Reg, 0, false, ""
	case ModeImmediate:
		switch o.X {
		case 0:
			return 0, CG, 0, false, ""
		case 1:
			return 1, CG, 0, false, ""
		case 2:
			return 2, CG, 0, false, ""
		case 0xFFFF:
			return 3, CG, 0, false, ""
		case 4:
			return 2, SR, 0, false, ""
		case 8:
			return 3, SR, 0, false, ""
		default:
			return 3, PC, o.X, true, ""
		}
	}
	return 0, 0, 0, false, "operand mode invalid as source"
}

// dstBits returns (Ad, reg, extWord, hasExt) for a destination operand.
func dstBits(o Operand) (ad uint16, reg Reg, ext uint16, hasExt bool, err string) {
	switch o.Mode {
	case ModeRegister:
		return 0, o.Reg, 0, false, ""
	case ModeIndexed:
		// x(R2) is the absolute form's encoding. x(R3) has no constant
		// generator meaning as a destination: Decode reads it back as
		// indexed, so it encodes like any other register.
		if o.Reg == SR {
			return 0, 0, 0, false, "indexed destination on R2 is not encodable"
		}
		return 1, o.Reg, o.X, true, ""
	case ModeAbsolute:
		return 1, SR, o.X, true, ""
	}
	return 0, 0, 0, false, "operand mode invalid as destination"
}

// Encode converts an instruction to its binary form (1-3 words).
func Encode(i Instr) ([]uint16, error) { return encode(i, false) }

// EncodeForceImm is like Encode but never uses the constant generators for
// an immediate source, always emitting the @PC+ extension-word form. The
// assembler uses it for symbol-patched immediates: their final values are
// unknown when instruction sizes are fixed, so the long form must be
// reserved and used regardless of the value linked in.
func EncodeForceImm(i Instr) ([]uint16, error) { return encode(i, true) }

func encode(i Instr, forceImm bool) ([]uint16, error) {
	bw := uint16(0)
	if i.Byte {
		bw = 1
	}
	switch {
	case i.Op.IsTwoOperand():
		as, sreg, sext, shas, serr := srcBitsOpt(i.Src, forceImm)
		if serr != "" {
			return nil, &EncodeError{i, serr}
		}
		ad, dreg, dext, dhas, derr := dstBits(i.Dst)
		if derr != "" {
			return nil, &EncodeError{i, derr}
		}
		w := (uint16(i.Op)+4)<<12 | uint16(sreg)<<8 | ad<<7 | bw<<6 | as<<4 | uint16(dreg)
		out := []uint16{w}
		if shas {
			out = append(out, sext)
		}
		if dhas {
			out = append(out, dext)
		}
		return out, nil

	case i.Op == RETI:
		return []uint16{0x1300}, nil

	case i.Op.IsOneOperand():
		if i.Byte && (i.Op == SWPB || i.Op == SXT || i.Op == CALL) {
			return nil, &EncodeError{i, "byte form not defined for this operation"}
		}
		if i.Src.Mode == ModeImmediate && i.Op != PUSH && i.Op != CALL {
			return nil, &EncodeError{i, "immediate operand only valid for PUSH and CALL"}
		}
		as, reg, ext, has, serr := srcBitsOpt(i.Src, forceImm)
		if serr != "" {
			return nil, &EncodeError{i, serr}
		}
		opc := uint16(i.Op - RRC)
		w := 0x1000 | opc<<7 | bw<<6 | as<<4 | uint16(reg)
		out := []uint16{w}
		if has {
			out = append(out, ext)
		}
		return out, nil

	case i.Op.IsJump():
		off := int16(i.Dst.X)
		if off < -512 || off > 511 {
			return nil, &EncodeError{i, "jump offset out of range"}
		}
		w := 0x2000 | uint16(i.Op-JNE)<<10 | uint16(off)&0x3FF
		return []uint16{w}, nil
	}
	return nil, &EncodeError{i, "unknown operation"}
}

// MustEncode is like Encode but panics on error; for use with instruction
// streams constructed by the code generator, which only emits encodable
// forms.
func MustEncode(i Instr) []uint16 {
	w, err := Encode(i)
	if err != nil {
		panic(err)
	}
	return w
}
