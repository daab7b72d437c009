package harrier

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/taint"
)

// This file is the block-summary compiler of the tiered taint engine.
// A summary is the taint transfer function of one basic block: a
// compact op list over abstract slots (register tags, shadow words)
// that applies the block's entire Track_DataFlow effect in one call,
// replacing one Hooks.OnInstr dispatch per data-moving instruction.
//
// The key obstacle is that the interpreter resolves memory-operand
// addresses against *mid-block* register values, while a summary runs
// once at block entry. The compiler therefore carries a tiny symbolic
// value domain per register — unknown, a constant, or "entry value of
// register r plus offset" — mirroring the CPU's arithmetic exactly.
// Every memory operand whose address stays expressible as entry-reg +
// displacement compiles to that form; a block touching memory through
// a value the domain cannot express (e.g. a pointer loaded from
// memory) is unmodelable and pins to the interpreter tier. Taint
// flows, by contrast, need no symbolic treatment at all: applying the
// ops in program order against the live tag state reproduces the
// interpreter's sequence of reads, unions and writes verbatim.
//
// Correctness bar (enforced by TestTierDifferentialSweep and
// FuzzSummaryApply): detections and reported tag sets are
// bit-identical to the interpreter tier. Compile-time folding of
// adjacent unions is safe under that bar because tag interning is
// content-canonical — U(U(x,a),b) and U(x,U(a,b)) intern the same
// sorted source set and therefore render identical warnings.

// sumCode selects a summary op. The set mirrors the effects
// trackDataFlow can produce: register tag moves, shadow word/byte
// moves, and unions of either against a register, a load, or a
// compile-time tag.
type sumCode uint8

const (
	cRegSet        sumCode = iota // regtags[dst] = tag
	cRegCopy                      // regtags[dst] = regtags[src]
	cRegSetUnion                  // regtags[dst] = U(tag, regtags[src])
	cRegUnionReg                  // regtags[dst] = U(regtags[dst], regtags[src])
	cRegUnionTag                  // regtags[dst] = U(regtags[dst], tag)
	cRegLoadW                     // regtags[dst] = GetWord(eaB)
	cRegLoadB                     // regtags[dst] = Get(eaB)
	cRegUnionLoadW                // regtags[dst] = U(regtags[dst], GetWord(eaB))
	cStoreWReg                    // SetWord(eaA, regtags[src])
	cStoreWTag                    // SetWord(eaA, tag)
	cStoreBReg                    // Set(eaA, regtags[src])
	cStoreBTag                    // Set(eaA, tag)
	cMemUnionReg                  // SetWord(eaA, U(GetWord(eaA), regtags[src]))
	cMemUnionTag                  // SetWord(eaA, U(GetWord(eaA), tag))
	cMemUnionLoadW                // SetWord(eaA, U(GetWord(eaA), GetWord(eaB)))
	cMemCopyW                     // SetWord(eaA, GetWord(eaB))
	cMemCopyB                     // Set(eaA, Get(eaB))
)

var sumCodeNames = [...]string{
	cRegSet: "regset", cRegCopy: "regcopy", cRegSetUnion: "regsetunion",
	cRegUnionReg: "regunionreg", cRegUnionTag: "regumniontag",
	cRegLoadW: "regloadw", cRegLoadB: "regloadb", cRegUnionLoadW: "regunionloadw",
	cStoreWReg: "storewreg", cStoreWTag: "storewtag",
	cStoreBReg: "storebreg", cStoreBTag: "storebtag",
	cMemUnionReg: "memunionreg", cMemUnionTag: "memuniontag",
	cMemUnionLoadW: "memunionloadw", cMemCopyW: "memcopyw", cMemCopyB: "memcopyb",
}

// sumNoBase in a base slot marks an absolute address (disp only).
const sumNoBase = 0xFF

// sumOp is one summary op. Addresses are (entry register base, 32-bit
// displacement) pairs resolved against the register file as it stands
// at block entry; sumNoBase means absolute.
type sumOp struct {
	code         sumCode
	dst, src     uint8 // register slots (reg-target / reg-source ops)
	aBase, bBase uint8 // address bases: A = destination, B = source
	aDisp, bDisp uint32
	tag          taint.Tag // compile-time tag operand
}

func (op *sumOp) aAddr(c *isa.CPU) uint32 {
	if op.aBase != sumNoBase {
		return c.Regs[op.aBase] + op.aDisp
	}
	return op.aDisp
}

func (op *sumOp) bAddr(c *isa.CPU) uint32 {
	if op.bBase != sumNoBase {
		return c.Regs[op.bBase] + op.bDisp
	}
	return op.bDisp
}

func sumAddrString(base uint8, disp uint32) string {
	if base == sumNoBase {
		return fmt.Sprintf("[%#x]", disp)
	}
	return fmt.Sprintf("[%s+%#x]", isa.Reg(base), disp)
}

func (op *sumOp) String() string {
	var b strings.Builder
	b.WriteString(sumCodeNames[op.code])
	switch op.code {
	case cRegSet, cRegUnionTag:
		fmt.Fprintf(&b, " %s, tag%d", isa.Reg(op.dst), op.tag)
	case cRegCopy, cRegUnionReg:
		fmt.Fprintf(&b, " %s, %s", isa.Reg(op.dst), isa.Reg(op.src))
	case cRegSetUnion:
		fmt.Fprintf(&b, " %s, %s, tag%d", isa.Reg(op.dst), isa.Reg(op.src), op.tag)
	case cRegLoadW, cRegLoadB, cRegUnionLoadW:
		fmt.Fprintf(&b, " %s, %s", isa.Reg(op.dst), sumAddrString(op.bBase, op.bDisp))
	case cStoreWReg, cStoreBReg, cMemUnionReg:
		fmt.Fprintf(&b, " %s, %s", sumAddrString(op.aBase, op.aDisp), isa.Reg(op.src))
	case cStoreWTag, cStoreBTag, cMemUnionTag:
		fmt.Fprintf(&b, " %s, tag%d", sumAddrString(op.aBase, op.aDisp), op.tag)
	case cMemUnionLoadW, cMemCopyW, cMemCopyB:
		fmt.Fprintf(&b, " %s, %s", sumAddrString(op.aBase, op.aDisp), sumAddrString(op.bBase, op.bDisp))
	}
	return b.String()
}

// Summary is a compiled taint transfer function for one basic block.
// Harrier compiles and installs summaries itself at promotion time;
// the type is exported for the determinism property tests and
// tooling.
type Summary struct {
	ops   []sumOp
	nData uint64 // data-moving instructions the block carries
}

// NumOps returns the length of the compiled op list.
func (s *Summary) NumOps() int { return len(s.ops) }

// String renders the op list, one op per line — the canonical form
// the determinism property test compares.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ndata=%d\n", s.nData)
	for i := range s.ops {
		b.WriteString(s.ops[i].String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CompileSummary compiles the basic block led by instruction `leader`
// of s into its taint transfer function, interning tags in st. It is
// deterministic: the same span, leader and store state yield the same
// op list. ok is false when the block is unmodelable (an address the
// symbolic domain cannot express, a degenerate operand shape that
// would fault mid-block, or a statically-zero divisor) — such blocks
// pin to the interpreter tier.
func CompileSummary(st *taint.Store, s *isa.Span, leader int) (*Summary, bool) {
	bin := st.Of(taint.Source{Type: taint.Binary, Name: s.Image})
	hw := st.Of(taint.Source{Type: taint.Hardware, Name: "cpuid"})
	return compileBlock(st, s, leader, bin, hw)
}

// Symbolic register values: the compiler's model of the concrete
// register file as a function of block-entry state.
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

// sumCompiler walks one block, emitting ops and updating the symbolic
// register file in lockstep with the CPU's execution semantics.
type sumCompiler struct {
	st  *taint.Store
	bin taint.Tag
	hw  taint.Tag
	sym [isa.NumRegs]symVal
	ops []sumOp
}

func compileBlock(st *taint.Store, s *isa.Span, leader int, bin, hw taint.Tag) (*Summary, bool) {
	if leader < 0 || leader >= len(s.Instrs) || s.BBLeader[leader] != leader {
		return nil, false
	}
	sc := &sumCompiler{st: st, bin: bin, hw: hw}
	for r := range sc.sym {
		sc.sym[r] = symVal{kind: symRegOff, reg: isa.Reg(r)}
	}
	var nData uint64
	for i := leader; i < len(s.Instrs) && s.BBLeader[i] == leader; i++ {
		in := &s.Instrs[i]
		if in.Op.MovesData() {
			nData++
		}
		if !sc.instr(in) {
			return nil, false
		}
	}
	sc.elideDeadRegWrites()
	return &Summary{ops: sc.ops, nData: nData}, true
}

// regEffects classifies an op's register-tag accesses. Every
// dst-writing op has no observable effect besides that write (shadow
// reads leave tag state untouched), which is what makes dead-write
// elimination a pure deletion.
func regEffects(code sumCode) (writesDst, readsDst, readsSrc bool) {
	switch code {
	case cRegSet, cRegLoadW, cRegLoadB:
		return true, false, false
	case cRegCopy, cRegSetUnion:
		return true, false, true
	case cRegUnionReg:
		return true, true, true
	case cRegUnionTag, cRegUnionLoadW:
		return true, true, false
	case cStoreWReg, cStoreBReg, cMemUnionReg:
		return false, false, true
	}
	return false, false, false
}

// elideDeadRegWrites deletes register-tag writes that are overwritten
// before any read in the same block (a scratch register recomputed
// from constants every iteration, say). Intermediate tag values are
// unobservable — no syscall can fire mid-block because INT terminates
// blocks, and a mid-block fault kills the process without the monitor
// reading its registers — so only each register's final value and the
// shadow traffic are semantics; dropping the dead write changes
// neither.
func (sc *sumCompiler) elideDeadRegWrites() {
	n := len(sc.ops)
	if n == 0 {
		return
	}
	keep := make([]bool, n)
	live := uint32(1)<<isa.NumRegs - 1 // block exit: every register live
	for i := n - 1; i >= 0; i-- {
		op := &sc.ops[i]
		w, rd, rs := regEffects(op.code)
		if w && live&(1<<op.dst) == 0 {
			continue // overwritten before any read: drop
		}
		keep[i] = true
		if w {
			live &^= 1 << op.dst
		}
		if rd {
			live |= 1 << op.dst
		}
		if rs {
			live |= 1 << op.src
		}
	}
	kept := sc.ops[:0]
	for i := range sc.ops {
		if keep[i] {
			kept = append(kept, sc.ops[i])
		}
	}
	sc.ops = kept
}

// --- emission, with peephole fusion -------------------------------

// Fusion folds an op into an immediately preceding write of the same
// destination register. All folds preserve the resulting set content
// (union is associative/commutative and interning is canonical), so
// detections and rendered tag sets stay bit-identical; only the
// run-time union count shrinks.

func (sc *sumCompiler) emit(op sumOp) { sc.ops = append(sc.ops, op) }

func (sc *sumCompiler) lastRegOp(d uint8) *sumOp {
	if n := len(sc.ops); n > 0 {
		last := &sc.ops[n-1]
		if last.dst == d {
			switch last.code {
			case cRegSet, cRegCopy, cRegSetUnion, cRegUnionReg, cRegUnionTag,
				cRegLoadW, cRegLoadB, cRegUnionLoadW:
				return last
			}
		}
	}
	return nil
}

// emitRegUnionTag emits regtags[d] = U(regtags[d], t).
func (sc *sumCompiler) emitRegUnionTag(d uint8, t taint.Tag) {
	if last := sc.lastRegOp(d); last != nil {
		switch last.code {
		case cRegSet, cRegSetUnion, cRegUnionTag:
			last.tag = sc.st.Union(last.tag, t)
			return
		case cRegCopy:
			last.code = cRegSetUnion
			last.tag = t
			return
		}
	}
	sc.emit(sumOp{code: cRegUnionTag, dst: d, tag: t})
}

// emitRegUnionReg emits regtags[d] = U(regtags[d], regtags[s]).
func (sc *sumCompiler) emitRegUnionReg(d, s uint8) {
	if d == s {
		return // U(x, x) = x, and the interpreter's Union short-circuits
	}
	if last := sc.lastRegOp(d); last != nil && last.code == cRegSet {
		last.code = cRegSetUnion
		last.src = s
		return
	}
	sc.emit(sumOp{code: cRegUnionReg, dst: d, src: s})
}

// --- operand helpers ----------------------------------------------

// addrOf resolves a memory operand to (base, disp) against the entry
// register file, through the symbolic value of the operand's base.
func (sc *sumCompiler) addrOf(op *isa.Operand) (base uint8, disp uint32, ok bool) {
	if !op.HasBase {
		return sumNoBase, op.Imm, true
	}
	switch v := sc.sym[op.Reg]; v.kind {
	case symConst:
		return sumNoBase, v.off + op.Imm, true
	case symRegOff:
		return uint8(v.reg), v.off + op.Imm, true
	}
	return 0, 0, false
}

// stackAddr resolves ESP+delta the same way.
func (sc *sumCompiler) stackAddr(delta uint32) (base uint8, disp uint32, ok bool) {
	switch v := sc.sym[isa.ESP]; v.kind {
	case symConst:
		return sumNoBase, v.off + delta, true
	case symRegOff:
		return uint8(v.reg), v.off + delta, true
	}
	return 0, 0, false
}

// valueOf models ReadOperand: the 32-bit value a source operand
// denotes, as a symbolic value.
func (sc *sumCompiler) valueOf(op *isa.Operand) symVal {
	switch op.Kind {
	case isa.RegOperand:
		return sc.sym[op.Reg]
	case isa.ImmOperand:
		return symConstOf(op.Imm)
	}
	return symVal{} // memory load or empty operand: unknown
}

// --- per-instruction compilation ----------------------------------

// instr emits the taint ops of one instruction and advances the
// symbolic register file, returning false when the instruction is
// unmodelable. The emission mirrors dataflow.go case by case and the
// symbolic update mirrors CPU.Step case by case; both must stay in
// lockstep with those files.
func (sc *sumCompiler) instr(in *isa.Instr) bool {
	switch in.Op {
	case isa.MOV:
		return sc.mov(in, false)
	case isa.MOVB:
		return sc.mov(in, true)
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.MUL, isa.DIVOP, isa.MODOP, isa.SHL, isa.SHR:
		return sc.alu(in)
	case isa.LEA:
		return sc.lea(in)
	case isa.NOT, isa.NEG, isa.INC, isa.DEC:
		return sc.unary(in)
	case isa.PUSH:
		return sc.push(in)
	case isa.POP:
		return sc.pop(in)
	case isa.CALL:
		// The pushed return address is machine bookkeeping: the
		// interpreter clears its shadow word unconditionally. CALL ends
		// the block, so ESP's symbolic update is moot.
		base, disp, ok := sc.stackAddr(^uint32(3)) // ESP - 4
		if !ok {
			return false
		}
		sc.emit(sumOp{code: cStoreWTag, aBase: base, aDisp: disp, tag: taint.Empty})
		return true
	case isa.CPUID:
		for _, r := range [...]isa.Reg{isa.EAX, isa.EBX, isa.ECX, isa.EDX} {
			sc.emit(sumOp{code: cRegSet, dst: uint8(r), tag: sc.hw})
		}
		sc.sym[isa.EAX] = symConstOf(0x48544853)
		sc.sym[isa.EBX] = symConstOf(0x696D5543)
		sc.sym[isa.ECX] = symConstOf(0x756C6174)
		sc.sym[isa.EDX] = symConstOf(0x726F2121)
		return true
	case isa.RDTSC:
		sc.emit(sumOp{code: cRegSet, dst: uint8(isa.EAX), tag: sc.hw})
		sc.emit(sumOp{code: cRegSet, dst: uint8(isa.EDX), tag: sc.hw})
		sc.sym[isa.EAX] = symVal{}
		sc.sym[isa.EDX] = symVal{}
		return true
	case isa.CMP, isa.TEST, isa.NOP, isa.HLT,
		isa.JMP, isa.JZ, isa.JNZ, isa.JL, isa.JLE, isa.JG, isa.JGE,
		isa.RET, isa.INT, isa.NATIVE:
		// No tracked data flow, and no register writes the address
		// domain needs to model (RET/NATIVE end the block).
		return true
	}
	return false // undefined opcode: unmodelable
}

// mov compiles MOV (word) and MOVB (byte).
func (sc *sumCompiler) mov(in *isa.Instr, byteOp bool) bool {
	loadC, storeRegC, storeTagC, copyC := cRegLoadW, cStoreWReg, cStoreWTag, cMemCopyW
	if byteOp {
		loadC, storeRegC, storeTagC, copyC = cRegLoadB, cStoreBReg, cStoreBTag, cMemCopyB
	}
	var bBase uint8
	var bDisp uint32
	if in.B.Kind == isa.MemOperand {
		var ok bool
		if bBase, bDisp, ok = sc.addrOf(&in.B); !ok {
			return false
		}
	}
	switch in.A.Kind {
	case isa.RegOperand:
		d := uint8(in.A.Reg)
		switch in.B.Kind {
		case isa.RegOperand:
			if in.A.Reg != in.B.Reg {
				sc.emit(sumOp{code: cRegCopy, dst: d, src: uint8(in.B.Reg)})
			}
		case isa.ImmOperand:
			sc.emit(sumOp{code: cRegSet, dst: d, tag: sc.bin})
		case isa.MemOperand:
			sc.emit(sumOp{code: loadC, dst: d, bBase: bBase, bDisp: bDisp})
		default:
			return false
		}
	case isa.MemOperand:
		aBase, aDisp, ok := sc.addrOf(&in.A)
		if !ok {
			return false
		}
		switch in.B.Kind {
		case isa.RegOperand:
			sc.emit(sumOp{code: storeRegC, aBase: aBase, aDisp: aDisp, src: uint8(in.B.Reg)})
		case isa.ImmOperand:
			sc.emit(sumOp{code: storeTagC, aBase: aBase, aDisp: aDisp, tag: sc.bin})
		case isa.MemOperand:
			sc.emit(sumOp{code: copyC, aBase: aBase, aDisp: aDisp, bBase: bBase, bDisp: bDisp})
		default:
			return false
		}
	default:
		return false // write to an immediate faults mid-block
	}
	// Symbolic update: only a register destination changes the file.
	if in.A.Kind == isa.RegOperand {
		if byteOp {
			sc.sym[in.A.Reg] = sc.movbValue(in)
		} else {
			sc.sym[in.A.Reg] = sc.valueOf(&in.B)
		}
	}
	return true
}

// movbValue models writeOperand8: the destination keeps its upper
// bytes, so the result is computable only when both halves are.
func (sc *sumCompiler) movbValue(in *isa.Instr) symVal {
	old := sc.sym[in.A.Reg]
	src := sc.valueOf(&in.B)
	if in.B.Kind == isa.MemOperand {
		src = symVal{}
	}
	if old.kind == symConst && src.kind == symConst {
		return symConstOf((old.off &^ 0xFF) | (src.off & 0xFF))
	}
	return symVal{}
}

// alu compiles the two-operand arithmetic group.
func (sc *sumCompiler) alu(in *isa.Instr) bool {
	// Zeroing idioms drop taint (dataflow.go flowALU).
	zeroing := (in.Op == isa.XOR || in.Op == isa.SUB) &&
		in.A.Kind == isa.RegOperand && in.B.Kind == isa.RegOperand &&
		in.A.Reg == in.B.Reg
	if zeroing {
		sc.emit(sumOp{code: cRegSet, dst: uint8(in.A.Reg), tag: taint.Empty})
		sc.sym[in.A.Reg] = symConstOf(0)
		return true
	}
	if (in.Op == isa.DIVOP || in.Op == isa.MODOP) && sc.constZero(&in.B) {
		return false // statically faults mid-block
	}
	switch in.A.Kind {
	case isa.RegOperand:
		d := uint8(in.A.Reg)
		switch in.B.Kind {
		case isa.RegOperand:
			sc.emitRegUnionReg(d, uint8(in.B.Reg))
		case isa.ImmOperand:
			sc.emitRegUnionTag(d, sc.bin)
		case isa.MemOperand:
			bBase, bDisp, ok := sc.addrOf(&in.B)
			if !ok {
				return false
			}
			sc.emit(sumOp{code: cRegUnionLoadW, dst: d, bBase: bBase, bDisp: bDisp})
		default:
			return false
		}
		sc.sym[in.A.Reg] = sc.aluValue(in)
	case isa.MemOperand:
		aBase, aDisp, ok := sc.addrOf(&in.A)
		if !ok {
			return false
		}
		switch in.B.Kind {
		case isa.RegOperand:
			sc.emit(sumOp{code: cMemUnionReg, aBase: aBase, aDisp: aDisp, src: uint8(in.B.Reg)})
		case isa.ImmOperand:
			sc.emit(sumOp{code: cMemUnionTag, aBase: aBase, aDisp: aDisp, tag: sc.bin})
		case isa.MemOperand:
			bBase, bDisp, ok := sc.addrOf(&in.B)
			if !ok {
				return false
			}
			sc.emit(sumOp{code: cMemUnionLoadW, aBase: aBase, aDisp: aDisp, bBase: bBase, bDisp: bDisp})
		default:
			return false
		}
	default:
		return false // ALU into an immediate faults mid-block
	}
	return true
}

// constZero reports whether a source operand is statically zero.
func (sc *sumCompiler) constZero(op *isa.Operand) bool {
	if op.Kind == isa.ImmOperand {
		return op.Imm == 0
	}
	if op.Kind == isa.RegOperand {
		v := sc.sym[op.Reg]
		return v.kind == symConst && v.off == 0
	}
	return false
}

// aluValue models the ALU result for a register destination,
// mirroring the operator semantics in CPU.Step exactly.
func (sc *sumCompiler) aluValue(in *isa.Instr) symVal {
	a := sc.sym[in.A.Reg]
	b := sc.valueOf(&in.B)
	if in.B.Kind == isa.MemOperand {
		b = symVal{}
	}
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
			x, y := a.off, b.off
			switch in.Op {
			case isa.AND:
				return symConstOf(x & y)
			case isa.OR:
				return symConstOf(x | y)
			case isa.XOR:
				return symConstOf(x ^ y)
			case isa.MUL:
				return symConstOf(x * y)
			case isa.DIVOP:
				if y != 0 {
					return symConstOf(x / y)
				}
			case isa.MODOP:
				if y != 0 {
					return symConstOf(x % y)
				}
			case isa.SHL:
				return symConstOf(x << (y & 31))
			case isa.SHR:
				return symConstOf(x >> (y & 31))
			}
		}
	}
	return symVal{}
}

// lea compiles LEA: the loaded value is an address, tagged BINARY
// unioned with the base register's tag.
func (sc *sumCompiler) lea(in *isa.Instr) bool {
	if in.B.Kind != isa.MemOperand {
		return false // the CPU faults: lea requires a memory source
	}
	switch in.A.Kind {
	case isa.RegOperand:
		d := uint8(in.A.Reg)
		if in.B.HasBase {
			if in.A.Reg == in.B.Reg {
				sc.emitRegUnionTag(d, sc.bin)
			} else {
				sc.emit(sumOp{code: cRegSetUnion, dst: d, src: uint8(in.B.Reg), tag: sc.bin})
			}
		} else {
			sc.emit(sumOp{code: cRegSet, dst: d, tag: sc.bin})
		}
		// The symbolic value is the effective address itself.
		if in.B.HasBase {
			switch v := sc.sym[in.B.Reg]; v.kind {
			case symConst:
				sc.sym[in.A.Reg] = symConstOf(v.off + in.B.Imm)
			case symRegOff:
				sc.sym[in.A.Reg] = symVal{kind: symRegOff, reg: v.reg, off: v.off + in.B.Imm}
			default:
				sc.sym[in.A.Reg] = symVal{}
			}
		} else {
			sc.sym[in.A.Reg] = symConstOf(in.B.Imm)
		}
		return true
	}
	// A memory (or worse) destination writes no taint but the
	// interpreter still performs a union for the stats stream, and an
	// immediate destination faults mid-block: pin both.
	return false
}

// unary compiles NOT/NEG (tag-preserving) and INC/DEC (union BINARY).
func (sc *sumCompiler) unary(in *isa.Instr) bool {
	incdec := in.Op == isa.INC || in.Op == isa.DEC
	switch in.A.Kind {
	case isa.RegOperand:
		if incdec {
			sc.emitRegUnionTag(uint8(in.A.Reg), sc.bin)
		}
		// NOT/NEG on a register preserve its tag: no op at all.
	case isa.MemOperand:
		aBase, aDisp, ok := sc.addrOf(&in.A)
		if !ok {
			return false
		}
		if incdec {
			sc.emit(sumOp{code: cMemUnionTag, aBase: aBase, aDisp: aDisp, tag: sc.bin})
		} else {
			// GetWord+SetWord on the same address uniformizes the word's
			// four byte tags — not a no-op on byte-granular pages.
			sc.emit(sumOp{code: cMemCopyW, aBase: aBase, aDisp: aDisp, bBase: aBase, bDisp: aDisp})
		}
	default:
		return false // faults mid-block
	}
	if in.A.Kind == isa.RegOperand {
		a := sc.sym[in.A.Reg]
		switch {
		case in.Op == isa.INC && a.kind != symUnknown:
			sc.sym[in.A.Reg] = symVal{kind: a.kind, reg: a.reg, off: a.off + 1}
		case in.Op == isa.DEC && a.kind != symUnknown:
			sc.sym[in.A.Reg] = symVal{kind: a.kind, reg: a.reg, off: a.off - 1}
		case a.kind == symConst && in.Op == isa.NOT:
			sc.sym[in.A.Reg] = symConstOf(^a.off)
		case a.kind == symConst && in.Op == isa.NEG:
			sc.sym[in.A.Reg] = symConstOf(-a.off)
		default:
			sc.sym[in.A.Reg] = symVal{}
		}
	}
	return true
}

// push compiles PUSH: the source tag lands in the word below ESP.
func (sc *sumCompiler) push(in *isa.Instr) bool {
	base, disp, ok := sc.stackAddr(^uint32(3)) // ESP - 4
	if !ok {
		return false
	}
	switch in.A.Kind {
	case isa.RegOperand:
		sc.emit(sumOp{code: cStoreWReg, aBase: base, aDisp: disp, src: uint8(in.A.Reg)})
	case isa.ImmOperand:
		sc.emit(sumOp{code: cStoreWTag, aBase: base, aDisp: disp, tag: sc.bin})
	case isa.MemOperand:
		bBase, bDisp, ok := sc.addrOf(&in.A)
		if !ok {
			return false
		}
		sc.emit(sumOp{code: cMemCopyW, aBase: base, aDisp: disp, bBase: bBase, bDisp: bDisp})
	default:
		return false
	}
	sc.adjustESP(^uint32(3)) // ESP -= 4
	return true
}

// pop compiles POP: the word at ESP moves into the destination.
func (sc *sumCompiler) pop(in *isa.Instr) bool {
	base, disp, ok := sc.stackAddr(0)
	if !ok {
		return false
	}
	switch in.A.Kind {
	case isa.RegOperand:
		sc.emit(sumOp{code: cRegLoadW, dst: uint8(in.A.Reg), bBase: base, bDisp: disp})
	case isa.MemOperand:
		aBase, aDisp, ok := sc.addrOf(&in.A)
		if !ok {
			return false
		}
		sc.emit(sumOp{code: cMemCopyW, aBase: aBase, aDisp: aDisp, bBase: base, bDisp: disp})
	default:
		return false // faults mid-block after the shadow read
	}
	// pop() bumps ESP before the destination write lands.
	sc.adjustESP(4)
	if in.A.Kind == isa.RegOperand {
		sc.sym[in.A.Reg] = symVal{} // loaded from memory
	}
	return true
}

// adjustESP adds delta to the symbolic stack pointer.
func (sc *sumCompiler) adjustESP(delta uint32) {
	if v := sc.sym[isa.ESP]; v.kind != symUnknown {
		sc.sym[isa.ESP] = symVal{kind: v.kind, reg: v.reg, off: v.off + delta}
	}
}

// applyOps executes a compiled op list against the live tag state.
// This is the tier-1 hot loop: a dense switch the compiler turns into
// a jump table, no per-op sampling or statistics.
func (h *Harrier) applyOps(c *isa.CPU, ops []sumOp) {
	sh := c.Shadow
	st := h.Store
	for i := range ops {
		op := &ops[i]
		switch op.code {
		case cRegSet:
			c.RegTags[op.dst] = op.tag
		case cRegCopy:
			c.RegTags[op.dst] = c.RegTags[op.src]
		case cRegSetUnion:
			c.RegTags[op.dst] = st.Union(op.tag, c.RegTags[op.src])
		case cRegUnionReg:
			c.RegTags[op.dst] = st.Union(c.RegTags[op.dst], c.RegTags[op.src])
		case cRegUnionTag:
			c.RegTags[op.dst] = st.Union(c.RegTags[op.dst], op.tag)
		case cRegLoadW:
			c.RegTags[op.dst] = sh.GetWord(op.bAddr(c))
		case cRegLoadB:
			c.RegTags[op.dst] = sh.Get(op.bAddr(c))
		case cRegUnionLoadW:
			t := sh.GetWord(op.bAddr(c))
			c.RegTags[op.dst] = st.Union(c.RegTags[op.dst], t)
		case cStoreWReg:
			sh.SetWord(op.aAddr(c), c.RegTags[op.src])
		case cStoreWTag:
			sh.SetWord(op.aAddr(c), op.tag)
		case cStoreBReg:
			sh.Set(op.aAddr(c), c.RegTags[op.src])
		case cStoreBTag:
			sh.Set(op.aAddr(c), op.tag)
		case cMemUnionReg:
			ea := op.aAddr(c)
			sh.SetWord(ea, st.Union(sh.GetWord(ea), c.RegTags[op.src]))
		case cMemUnionTag:
			ea := op.aAddr(c)
			sh.SetWord(ea, st.Union(sh.GetWord(ea), op.tag))
		case cMemUnionLoadW:
			ea := op.aAddr(c)
			ta := sh.GetWord(ea)
			tb := sh.GetWord(op.bAddr(c))
			sh.SetWord(ea, st.Union(ta, tb))
		case cMemCopyW:
			t := sh.GetWord(op.bAddr(c))
			sh.SetWord(op.aAddr(c), t)
		case cMemCopyB:
			t := sh.Get(op.bAddr(c))
			sh.Set(op.aAddr(c), t)
		}
	}
}
