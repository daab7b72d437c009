package harrier

import "repro/internal/isa"

// This file is the trace compiler's symbolic address pass, which
// decides whether a trace carries a clean-tier footprint
// (cleantier.go).
//
// A trace's mops resolve memory addresses against the *live* register
// file, mid-path, while the clean tier must bound a whole run's memory
// footprint from the register file at trace entry. The pass therefore
// carries a tiny symbolic value domain per register — unknown, a
// constant, or "entry value of register r plus offset" — mirroring the
// CPU's arithmetic exactly, and records every taint-touching memory
// access as an entry-relative (base, disp, width) triple. An address
// the domain cannot express (e.g. a pointer loaded from memory), an
// operand shape that would fault, or a statically-zero divisor fails
// the pass: the trace stays valid but never runs on the clean tier.
// Compares touch memory without moving taint, so they record nothing.

// memAccess is one taint-touching memory access in entry-relative
// form: entry register base (traceNoBase = absolute) plus
// displacement, one word or one byte wide.
type memAccess struct {
	base uint8
	disp uint32
	wide bool
}

// Symbolic register values: the pass's model of the concrete register
// file as a function of trace-entry state.
type symKind uint8

const (
	symUnknown symKind = iota // unpredictable at entry (e.g. loaded)
	symConst                  // the constant off
	symRegOff                 // entry value of reg, plus off
)

type symVal struct {
	kind symKind
	reg  isa.Reg
	off  uint32
}

func symConstOf(v uint32) symVal { return symVal{kind: symConst, off: v} }

// footprintPass walks a trace's consumed instructions in program
// order, recording accesses and updating the symbolic register file in
// lockstep with the CPU's execution semantics.
type footprintPass struct {
	sym [isa.NumRegs]symVal
	acc []memAccess
}

// newFootprintPass starts the pass at trace entry: every register
// holds its own entry value.
func newFootprintPass() footprintPass {
	var fp footprintPass
	for r := range fp.sym {
		fp.sym[r] = symVal{kind: symRegOff, reg: isa.Reg(r)}
	}
	return fp
}

func (fp *footprintPass) access(base uint8, disp uint32, wide bool) {
	fp.acc = append(fp.acc, memAccess{base: base, disp: disp, wide: wide})
}

// addrOf resolves a memory operand to (base, disp) against the entry
// register file, through the symbolic value of the operand's base.
func (fp *footprintPass) addrOf(op *isa.Operand) (base uint8, disp uint32, ok bool) {
	if !op.HasBase {
		return traceNoBase, op.Imm, true
	}
	switch v := fp.sym[op.Reg]; v.kind {
	case symConst:
		return traceNoBase, v.off + op.Imm, true
	case symRegOff:
		return uint8(v.reg), v.off + op.Imm, true
	}
	return 0, 0, false
}

// stackAddr resolves ESP+delta the same way.
func (fp *footprintPass) stackAddr(delta uint32) (base uint8, disp uint32, ok bool) {
	switch v := fp.sym[isa.ESP]; v.kind {
	case symConst:
		return traceNoBase, v.off + delta, true
	case symRegOff:
		return uint8(v.reg), v.off + delta, true
	}
	return 0, 0, false
}

// valueOf models ReadOperand: the 32-bit value a source operand
// denotes, as a symbolic value.
func (fp *footprintPass) valueOf(op *isa.Operand) symVal {
	switch op.Kind {
	case isa.RegOperand:
		return fp.sym[op.Reg]
	case isa.ImmOperand:
		return symConstOf(op.Imm)
	}
	return symVal{} // memory load or empty operand: unknown
}

// instr records the taint-touching accesses of one consumed
// instruction and advances the symbolic register file, returning
// false when an access is inexpressible. The accesses mirror
// dataflow.go case by case and the symbolic update mirrors CPU.Step
// case by case; both must stay in lockstep with those files. CALL,
// RET, INT, NATIVE and HLT end a trace before the pass sees them.
func (fp *footprintPass) instr(in *isa.Instr) bool {
	switch in.Op {
	case isa.MOV:
		return fp.mov(in, true)
	case isa.MOVB:
		return fp.mov(in, false)
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.MUL, isa.DIVOP, isa.MODOP, isa.SHL, isa.SHR:
		return fp.alu(in)
	case isa.LEA:
		return fp.lea(in)
	case isa.NOT, isa.NEG, isa.INC, isa.DEC:
		return fp.unary(in)
	case isa.PUSH:
		return fp.push(in)
	case isa.POP:
		return fp.pop(in)
	case isa.CPUID:
		fp.sym[isa.EAX] = symConstOf(0x48544853)
		fp.sym[isa.EBX] = symConstOf(0x696D5543)
		fp.sym[isa.ECX] = symConstOf(0x756C6174)
		fp.sym[isa.EDX] = symConstOf(0x726F2121)
		return true
	case isa.RDTSC:
		fp.sym[isa.EAX] = symVal{}
		fp.sym[isa.EDX] = symVal{}
		return true
	case isa.CMP, isa.TEST, isa.NOP,
		isa.JMP, isa.JZ, isa.JNZ, isa.JL, isa.JLE, isa.JG, isa.JGE:
		// No tracked data flow, and no register writes.
		return true
	}
	return false
}

// mov records MOV (wide) and MOVB (byte).
func (fp *footprintPass) mov(in *isa.Instr, wide bool) bool {
	var bBase uint8
	var bDisp uint32
	if in.B.Kind == isa.MemOperand {
		var ok bool
		if bBase, bDisp, ok = fp.addrOf(&in.B); !ok {
			return false
		}
	}
	switch in.A.Kind {
	case isa.RegOperand:
		switch in.B.Kind {
		case isa.RegOperand, isa.ImmOperand:
		case isa.MemOperand:
			fp.access(bBase, bDisp, wide)
		default:
			return false
		}
		if wide {
			fp.sym[in.A.Reg] = fp.valueOf(&in.B)
		} else {
			fp.sym[in.A.Reg] = fp.movbValue(in)
		}
	case isa.MemOperand:
		aBase, aDisp, ok := fp.addrOf(&in.A)
		if !ok {
			return false
		}
		switch in.B.Kind {
		case isa.RegOperand, isa.ImmOperand:
			fp.access(aBase, aDisp, wide)
		case isa.MemOperand:
			fp.access(aBase, aDisp, wide)
			fp.access(bBase, bDisp, wide)
		default:
			return false
		}
	default:
		return false // write to an immediate faults
	}
	return true
}

// movbValue models writeOperand8: the destination keeps its upper
// bytes, so the result is computable only when both halves are.
func (fp *footprintPass) movbValue(in *isa.Instr) symVal {
	old := fp.sym[in.A.Reg]
	src := fp.valueOf(&in.B)
	if old.kind == symConst && src.kind == symConst {
		return symConstOf((old.off &^ 0xFF) | (src.off & 0xFF))
	}
	return symVal{}
}

// alu records the two-operand arithmetic group.
func (fp *footprintPass) alu(in *isa.Instr) bool {
	// Zeroing idioms drop taint (dataflow.go flowALU).
	if (in.Op == isa.XOR || in.Op == isa.SUB) &&
		in.A.Kind == isa.RegOperand && in.B.Kind == isa.RegOperand &&
		in.A.Reg == in.B.Reg {
		fp.sym[in.A.Reg] = symConstOf(0)
		return true
	}
	if (in.Op == isa.DIVOP || in.Op == isa.MODOP) && fp.constZero(&in.B) {
		return false // statically faults
	}
	switch in.A.Kind {
	case isa.RegOperand:
		switch in.B.Kind {
		case isa.RegOperand, isa.ImmOperand:
		case isa.MemOperand:
			bBase, bDisp, ok := fp.addrOf(&in.B)
			if !ok {
				return false
			}
			fp.access(bBase, bDisp, true)
		default:
			return false
		}
		fp.sym[in.A.Reg] = fp.aluValue(in)
	case isa.MemOperand:
		aBase, aDisp, ok := fp.addrOf(&in.A)
		if !ok {
			return false
		}
		switch in.B.Kind {
		case isa.RegOperand, isa.ImmOperand:
			fp.access(aBase, aDisp, true)
		case isa.MemOperand:
			bBase, bDisp, ok := fp.addrOf(&in.B)
			if !ok {
				return false
			}
			fp.access(aBase, aDisp, true)
			fp.access(bBase, bDisp, true)
		default:
			return false
		}
	default:
		return false // ALU into an immediate faults
	}
	return true
}

// constZero reports whether a source operand is statically zero.
func (fp *footprintPass) constZero(op *isa.Operand) bool {
	if op.Kind == isa.ImmOperand {
		return op.Imm == 0
	}
	if op.Kind == isa.RegOperand {
		v := fp.sym[op.Reg]
		return v.kind == symConst && v.off == 0
	}
	return false
}

// aluValue models the ALU result for a register destination,
// mirroring the operator semantics in CPU.Step exactly.
func (fp *footprintPass) aluValue(in *isa.Instr) symVal {
	a := fp.sym[in.A.Reg]
	b := fp.valueOf(&in.B)
	switch in.Op {
	case isa.ADD:
		if b.kind == symConst && a.kind != symUnknown {
			return symVal{kind: a.kind, reg: a.reg, off: a.off + b.off}
		}
		if a.kind == symConst && b.kind != symUnknown {
			return symVal{kind: b.kind, reg: b.reg, off: b.off + a.off}
		}
	case isa.SUB:
		if b.kind == symConst && a.kind != symUnknown {
			return symVal{kind: a.kind, reg: a.reg, off: a.off - b.off}
		}
		if a.kind == symRegOff && b.kind == symRegOff && a.reg == b.reg {
			return symConstOf(a.off - b.off)
		}
	default:
		if a.kind == symConst && b.kind == symConst {
			if r, ok := aluExec(uint8(in.Op), a.off, b.off); ok {
				return symConstOf(r)
			}
		}
	}
	return symVal{}
}

// lea records nothing (LEA touches no memory); its value is the
// effective address itself.
func (fp *footprintPass) lea(in *isa.Instr) bool {
	if in.A.Kind != isa.RegOperand || in.B.Kind != isa.MemOperand {
		return false // the CPU faults on any other shape
	}
	switch {
	case !in.B.HasBase:
		fp.sym[in.A.Reg] = symConstOf(in.B.Imm)
	case fp.sym[in.B.Reg].kind == symUnknown:
		fp.sym[in.A.Reg] = symVal{}
	default:
		v := fp.sym[in.B.Reg]
		fp.sym[in.A.Reg] = symVal{kind: v.kind, reg: v.reg, off: v.off + in.B.Imm}
	}
	return true
}

// unary records NOT/NEG/INC/DEC: a memory operand's word is read and
// re-stored (NOT/NEG re-store its own tag, INC/DEC union BINARY in).
func (fp *footprintPass) unary(in *isa.Instr) bool {
	switch in.A.Kind {
	case isa.RegOperand:
		a := fp.sym[in.A.Reg]
		switch {
		case in.Op == isa.INC && a.kind != symUnknown:
			fp.sym[in.A.Reg] = symVal{kind: a.kind, reg: a.reg, off: a.off + 1}
		case in.Op == isa.DEC && a.kind != symUnknown:
			fp.sym[in.A.Reg] = symVal{kind: a.kind, reg: a.reg, off: a.off - 1}
		case a.kind == symConst:
			fp.sym[in.A.Reg] = symConstOf(unExec(uint8(in.Op), a.off))
		default:
			fp.sym[in.A.Reg] = symVal{}
		}
	case isa.MemOperand:
		aBase, aDisp, ok := fp.addrOf(&in.A)
		if !ok {
			return false
		}
		fp.access(aBase, aDisp, true)
	default:
		return false // faults
	}
	return true
}

// push records PUSH: the source tag lands in the word below ESP.
func (fp *footprintPass) push(in *isa.Instr) bool {
	base, disp, ok := fp.stackAddr(^uint32(3)) // ESP - 4
	if !ok {
		return false
	}
	switch in.A.Kind {
	case isa.RegOperand, isa.ImmOperand:
		fp.access(base, disp, true)
	case isa.MemOperand:
		bBase, bDisp, ok := fp.addrOf(&in.A)
		if !ok {
			return false
		}
		fp.access(base, disp, true)
		fp.access(bBase, bDisp, true)
	default:
		return false
	}
	fp.adjustESP(^uint32(3)) // ESP -= 4
	return true
}

// pop records POP into a register (the trace compiler never consumes
// POP into memory): the word at ESP moves into the destination.
func (fp *footprintPass) pop(in *isa.Instr) bool {
	base, disp, ok := fp.stackAddr(0)
	if !ok || in.A.Kind != isa.RegOperand {
		return false
	}
	fp.access(base, disp, true)
	fp.adjustESP(4)
	fp.sym[in.A.Reg] = symVal{} // loaded from memory
	return true
}

// adjustESP adds delta to the symbolic stack pointer.
func (fp *footprintPass) adjustESP(delta uint32) {
	if v := fp.sym[isa.ESP]; v.kind != symUnknown {
		fp.sym[isa.ESP] = symVal{kind: v.kind, reg: v.reg, off: v.off + delta}
	}
}
