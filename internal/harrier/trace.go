package harrier

import (
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/taint"
)

// This file is the compiled tier of the tiered taint engine
// (interpreter → trace → clean, tier.go): superblock traces. A hot
// block compiles straight to a trace rooted at it, which chains hot
// blocks across unconditional and predicted-conditional edges into
// one linear sequence of fused micro-ops (mops) and *executes* them —
// taint transfer and concrete semantics together — in a single hook
// call. The interpreter's fetch/decode/hook loop disappears entirely
// for as long as execution follows the traced path.
//
// Each mop reproduces one guest instruction in the interpreter's
// order: the Track_DataFlow transfer first (the OnInstr hook runs
// before the instruction executes), then the concrete operation.
// Conditional branches are evaluated against live flags; when the
// actual direction disagrees with the traced direction the run side-
// exits, leaving EIP at the untraced target so the interpreter (or
// another trace) picks up at a genuine block entry.
//
// A run also stops where the scheduler's quantum (CPU.TraceBudget)
// runs out, on that exact instruction, even mid-block: every consumed
// instruction owns exactly one mop, so a budget maps to one end mop.
// The stop leaves a continuation (CPU.Resume) and the next slice
// resumes the same trace from that mop, so slice ends never leave the
// trace tier. Every run therefore executes a contiguous stretch of the
// recorded path, from the head or from a resume mop, which is what
// makes the exit protocol and the clean tier's per-mop proof
// (cleantier.go) sound.
//
// A trace has exactly two loops: runTraceTaint, the full transfer,
// and runTraceBare, concrete semantics only, which runs only under a
// live clean-tier verdict. The compiler also runs a symbolic address
// pass over the whole path (footprint.go); when every taint-touching
// address is expressible as entry-register + displacement, its access
// list yields the clean tier's footprint.
const (
	// traceMaxInstrs caps the guest instructions one trace may retire.
	// A run needs no room in the quantum — a budget stop lands on the
	// exact instruction and the next slice resumes there — so the cap
	// only bounds the mop program; traceMaxBlocks bounds loop unrolling.
	traceMaxInstrs = 96
	traceMaxBlocks = 32
	// traceNoBase in a mop base slot marks an absolute address.
	traceNoBase = 0xFF
)

// mopCode selects a fused micro-op. The set covers every instruction
// shape the dataflow analysis tracks plus compares and predicted
// branches; shapes the interpreter would fault on (writes to
// immediates, POP into memory) end the trace at compile time instead.
type mopCode uint8

const (
	mBBEnter mopCode = iota // block boundary: per-block effects, retires nothing
	mBr                     // conditional branch, predicted direction
	mNop                    // NOP, or an unconditional jump the path follows

	mMovRR // mov reg, reg
	mMovRI // mov reg, imm
	mMovRM // mov reg, [mem]
	mMovMR // mov [mem], reg
	mMovMI // mov [mem], imm
	mMovMM // mov [mem], [mem]

	mMovbRR // movb variants (byte granularity)
	mMovbRI
	mMovbRM
	mMovbMR
	mMovbMI
	mMovbMM

	mLea   // lea reg, [mem]
	mZeroR // xor/sub reg,reg zeroing idiom

	mAluRR // dst = dst OP src, flags
	mAluRI
	mAluRM
	mAluMR
	mAluMI
	mAluMM

	mUnR // not/neg/inc/dec reg
	mUnM // not/neg/inc/dec [mem]

	mCmpRR // cmp/test: flags only
	mCmpRI
	mCmpRM
	mCmpMR
	mCmpMI
	mCmpMM

	mPushR
	mPushI
	mPushM
	mPopR

	mCpuid
	mRdtsc
)

// mop is one fused micro-op: taint transfer plus concrete execution
// of a single guest instruction. Memory addresses resolve against the
// *live* register file (base + disp), exactly as the interpreter
// would at that point of the block — no symbolic entry-relative form
// is needed because mops run in program order.
type mop struct {
	code  mopCode
	aop   uint8     // ALU/unary/compare opcode, or branch opcode for mBr
	reg   uint8     // destination register (source for the MR store shapes)
	reg2  uint8     // source register (RR shapes)
	base  uint8     // A-side (destination) memory base; traceNoBase = absolute
	base2 uint8     // B-side (source) memory base; traceNoBase = absolute
	pred  bool      // mBr: the traced direction is "taken"
	disp  uint32    // A-side displacement / RI immediate / mBr taken target / mBBEnter block index
	disp2 uint32    // B-side displacement / MI immediate / mBr fall-through target
	tag   taint.Tag // compile-time tag operand (BINARY of the owning image)
}

// mopInfo is the cold half of a mop, consulted only at exits and
// block boundaries: the instruction's guest address and the cumulative
// guest-instruction / data-instruction counts of a run from the head
// through it (through the *preceding* instruction for mBBEnter). Every
// consumed instruction has its own mop, which is what keeps Steps, the
// scheduler's quantum and rdtsc bit-identical to the interpreter
// across tiers, and what lets a budget stop land on any instruction.
type mopInfo struct {
	addr  uint32
	steps uint16
	nData uint16
}

// traceBlock is the per-block context of one chained (possibly
// unrolled) block: its frequency counter, attribution key, and how the
// traced path arrives at it (entryJumped mirrors the interpreter's
// jumped flag for a budget stop at this leader).
type traceBlock struct {
	ctr         *int64
	key         bbKey
	isApp       bool
	entryJumped bool
}

// blockTrace is a compiled superblock trace, installed in its head
// leader's span slot. owner is the Harrier that compiled it (the
// ownership check) and key the head block (the clean tier's block key
// and the self-loop test of clean-loop fusion).
type blockTrace struct {
	owner  *Harrier
	key    bbKey
	mops   []mop
	info   []mopInfo
	blocks []traceBlock

	// clean is the clean-tier demotion state (see cleantier.go). Only
	// initialized when the symbolic address pass held for the whole
	// path (traceCompiler.symOK), because the footprint is derived from
	// its entry-relative access list.
	clean cleanState

	nInstr    uint16 // instructions retired by a full run
	nData     uint16 // data-moving instructions instrumented by a full run
	endEIP    uint32 // exit point of a full run
	endJumped bool
}

// ea resolves the A-side (destination) memory address of a mop.
func (op *mop) ea(c *isa.CPU) uint32 {
	if op.base != traceNoBase {
		return c.Regs[op.base] + op.disp
	}
	return op.disp
}

// ea2 resolves the B-side (source) memory address of a mop.
func (op *mop) ea2(c *isa.CPU) uint32 {
	if op.base2 != traceNoBase {
		return c.Regs[op.base2] + op.disp2
	}
	return op.disp2
}

// --- trace compilation --------------------------------------------

// traceCompiler walks the hot path from a head leader, chaining block
// after block into the mop program. It runs the symbolic address pass
// (fp) in parallel to derive the clean-tier footprint, which exists
// only when every taint-touching address of the whole path is
// expressible as entry-register + displacement (symOK).
type traceCompiler struct {
	s      *isa.Span
	bin    taint.Tag
	mops   []mop
	info   []mopInfo
	blocks []traceBlock
	steps  int
	nData  int

	fp    footprintPass
	symOK bool

	endEIP    uint32
	endJumped bool
}

// traceCtr resolves (or creates) the frequency counter of a chained
// block; chained blocks may never have been entered directly.
func (h *Harrier) traceCtr(key bbKey) *int64 {
	ctr := h.bbFreq[key]
	if ctr == nil {
		ctr = new(int64)
		h.bbFreq[key] = ctr
	}
	return ctr
}

// compileTrace builds the mop program for the superblock rooted at
// leader. Chaining follows in-span unconditional jumps and predicted
// conditional edges (backward target = taken, the classic loop
// heuristic) until a cap, an un-traceable instruction, or an
// un-followable terminal ends the path. The terminal is *not*
// consumed: the trace exits with EIP on it and the interpreter
// executes it with its ordinary hooks, so CALL/RET/INT/NATIVE/HLT
// semantics never need replicating here. isApp says whether s belongs
// to the monitored application image (last-app attribution). It
// returns nil when the head yields no traceable prefix. Compilation is
// deterministic: the same span, leader and store state yield the same
// trace, which is what makes re-promotion after an execve demotion
// sound.
func (h *Harrier) compileTrace(s *isa.Span, leader int, isApp bool) *blockTrace {
	tc := &traceCompiler{s: s, bin: h.binTag(s.Image), fp: newFootprintPass(), symOK: true}

	cur := leader
	arrived := true // the head is always entered through the dispatch hook
walk:
	for {
		last := cur
		for last+1 < len(s.Instrs) && s.BBLeader[last+1] == cur {
			last++
		}
		// A chained block must fit whole; only the head may be cut at
		// the instruction cap (below), so an over-long hot block still
		// gets a trace.
		blockN := last - cur + 1
		if len(tc.blocks) > 0 && (len(tc.blocks) >= traceMaxBlocks || tc.steps+blockN > traceMaxInstrs) {
			tc.endEIP, tc.endJumped = s.Addr(cur), arrived
			break walk
		}
		bIdx := len(tc.blocks)
		mopStart := len(tc.mops)
		key := bbKey{s.Image, s.Addr(cur)}
		tc.blocks = append(tc.blocks, traceBlock{
			ctr: h.traceCtr(key), key: key, isApp: isApp,
			entryJumped: arrived,
		})
		tc.emit(mop{code: mBBEnter, disp: uint32(bIdx)}, s.Addr(cur))
		consumed := 0
		for i := cur; i <= last; i++ {
			if tc.steps == traceMaxInstrs {
				tc.endBefore(i, cur, bIdx, mopStart, consumed, arrived)
				break walk
			}
			in := &s.Instrs[i]
			if in.Op.IsControlTransfer() {
				// Only the block's final instruction can be a transfer.
				if in.Op == isa.JMP && in.A.Kind == isa.ImmOperand && s.Contains(in.A.Imm) {
					// Followed jump: consumed as a no-op mop.
					tc.steps++
					tc.scStep(in)
					tc.emit(mop{code: mNop}, s.Addr(i))
					cur, arrived = s.Index(in.A.Imm), true
					continue walk
				}
				if in.Op.IsCondJump() && in.A.Kind == isa.ImmOperand {
					taken := in.A.Imm
					fall := s.Addr(i) + isa.InstrSize
					takenIn := s.Contains(taken)
					fallIn := i+1 < len(s.Instrs)
					var pred bool
					switch {
					case takenIn && taken <= s.Addr(i):
						pred = true // backward branch: predict the loop edge
					case fallIn:
						pred = false
					case takenIn:
						pred = true
					default:
						tc.endBefore(i, cur, bIdx, mopStart, consumed, arrived)
						break walk
					}
					tc.steps++
					tc.scStep(in)
					tc.emit(mop{
						code: mBr, aop: uint8(in.Op), pred: pred,
						disp: taken, disp2: fall,
					}, s.Addr(i))
					if pred {
						cur = s.Index(taken)
					} else {
						cur = i + 1
					}
					arrived = true // the interpreter marks cond jumps as transfers either way
					continue walk
				}
				// CALL/RET/INT/NATIVE/HLT, or a jump the path cannot
				// follow: leave it to the interpreter.
				tc.endBefore(i, cur, bIdx, mopStart, consumed, arrived)
				break walk
			}
			if !tc.instr(i, in) {
				tc.endBefore(i, cur, bIdx, mopStart, consumed, arrived)
				break walk
			}
			consumed++
		}
		if tc.endEIP != 0 || len(tc.blocks) == 0 {
			break walk // endBefore fired from the body loop
		}
		if last+1 >= len(s.Instrs) {
			// The block runs off the span without a transfer; the
			// interpreter faults on the next fetch exactly here.
			tc.endEIP, tc.endJumped = s.End(), false
			break walk
		}
		cur, arrived = last+1, false // fall-through into the next leader
	}
	if tc.steps == 0 {
		return nil
	}
	tr := &blockTrace{
		owner: h, key: bbKey{s.Image, s.Addr(leader)},
		mops: tc.mops, info: tc.info, blocks: tc.blocks,
		nInstr: uint16(tc.steps), nData: uint16(tc.nData),
		endEIP: tc.endEIP, endJumped: tc.endJumped,
	}
	if tc.symOK && h.cleanThreshold > 0 {
		tr.clean.initFootprint(tc.fp.acc)
	}
	return tr
}

// endBefore ends the path at instruction i without consuming it. If
// the current block contributed nothing yet, the block itself is
// rolled back so the interpreter's OnBB at the exit leader is the
// block's one and only entry; otherwise the exit lands mid-block,
// where the interpreter resumes without a block-entry hook.
func (tc *traceCompiler) endBefore(i, leader, bIdx, mopStart, consumed int, arrived bool) {
	if consumed == 0 {
		tc.mops = tc.mops[:mopStart]
		tc.info = tc.info[:mopStart]
		tc.blocks = tc.blocks[:bIdx]
		tc.endEIP, tc.endJumped = tc.s.Addr(leader), arrived
		return
	}
	tc.endEIP, tc.endJumped = tc.s.Addr(i), false
}

func (tc *traceCompiler) emit(m mop, addr uint32) {
	tc.mops = append(tc.mops, m)
	tc.info = append(tc.info, mopInfo{addr: addr, steps: uint16(tc.steps), nData: uint16(tc.nData)})
}

// scStep advances the symbolic address domain across one consumed
// instruction; the first inexpressible address leaves the whole trace
// without a clean footprint (the trace itself stays valid — it simply
// always runs with full taint transfer).
func (tc *traceCompiler) scStep(in *isa.Instr) {
	if tc.symOK && !tc.fp.instr(in) {
		tc.symOK = false
	}
}

// instr emits the fused mop for one non-control instruction,
// returning false when the shape is un-traceable (operand forms the
// interpreter faults on, POP into memory with its pre/post-ESP
// address split, statically-zero divisors, undefined opcodes).
func (tc *traceCompiler) instr(i int, in *isa.Instr) bool {
	aBase, aDisp := traceNoBase, uint32(0)
	bBase, bDisp := traceNoBase, uint32(0)
	if in.A.Kind == isa.MemOperand {
		if in.A.HasBase {
			aBase = int(in.A.Reg)
		}
		aDisp = in.A.Imm
	}
	if in.B.Kind == isa.MemOperand {
		if in.B.HasBase {
			bBase = int(in.B.Reg)
		}
		bDisp = in.B.Imm
	}
	var m mop
	switch in.Op {
	case isa.NOP:
		m = mop{code: mNop}

	case isa.MOV, isa.MOVB:
		var codes [6]mopCode
		if in.Op == isa.MOV {
			codes = [6]mopCode{mMovRR, mMovRI, mMovRM, mMovMR, mMovMI, mMovMM}
		} else {
			codes = [6]mopCode{mMovbRR, mMovbRI, mMovbRM, mMovbMR, mMovbMI, mMovbMM}
		}
		switch {
		case in.A.Kind == isa.RegOperand && in.B.Kind == isa.RegOperand:
			m = mop{code: codes[0], reg: uint8(in.A.Reg), reg2: uint8(in.B.Reg)}
		case in.A.Kind == isa.RegOperand && in.B.Kind == isa.ImmOperand:
			m = mop{code: codes[1], reg: uint8(in.A.Reg), disp: in.B.Imm, tag: tc.bin}
		case in.A.Kind == isa.RegOperand && in.B.Kind == isa.MemOperand:
			m = mop{code: codes[2], reg: uint8(in.A.Reg), base2: uint8(bBase), disp2: bDisp}
		case in.A.Kind == isa.MemOperand && in.B.Kind == isa.RegOperand:
			m = mop{code: codes[3], base: uint8(aBase), disp: aDisp, reg: uint8(in.B.Reg)}
		case in.A.Kind == isa.MemOperand && in.B.Kind == isa.ImmOperand:
			m = mop{code: codes[4], base: uint8(aBase), disp: aDisp, disp2: in.B.Imm, tag: tc.bin}
		case in.A.Kind == isa.MemOperand && in.B.Kind == isa.MemOperand:
			m = mop{code: codes[5], base: uint8(aBase), disp: aDisp, base2: uint8(bBase), disp2: bDisp}
		default:
			return false
		}

	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.MUL, isa.DIVOP, isa.MODOP, isa.SHL, isa.SHR:
		if (in.Op == isa.XOR || in.Op == isa.SUB) &&
			in.A.Kind == isa.RegOperand && in.B.Kind == isa.RegOperand &&
			in.A.Reg == in.B.Reg {
			m = mop{code: mZeroR, reg: uint8(in.A.Reg)}
			break
		}
		if (in.Op == isa.DIVOP || in.Op == isa.MODOP) &&
			in.B.Kind == isa.ImmOperand && in.B.Imm == 0 {
			return false // statically faults; leave it to the interpreter
		}
		aop := uint8(in.Op)
		switch {
		case in.A.Kind == isa.RegOperand && in.B.Kind == isa.RegOperand:
			m = mop{code: mAluRR, aop: aop, reg: uint8(in.A.Reg), reg2: uint8(in.B.Reg)}
		case in.A.Kind == isa.RegOperand && in.B.Kind == isa.ImmOperand:
			m = mop{code: mAluRI, aop: aop, reg: uint8(in.A.Reg), disp: in.B.Imm, tag: tc.bin}
		case in.A.Kind == isa.RegOperand && in.B.Kind == isa.MemOperand:
			m = mop{code: mAluRM, aop: aop, reg: uint8(in.A.Reg), base2: uint8(bBase), disp2: bDisp}
		case in.A.Kind == isa.MemOperand && in.B.Kind == isa.RegOperand:
			m = mop{code: mAluMR, aop: aop, base: uint8(aBase), disp: aDisp, reg: uint8(in.B.Reg)}
		case in.A.Kind == isa.MemOperand && in.B.Kind == isa.ImmOperand:
			m = mop{code: mAluMI, aop: aop, base: uint8(aBase), disp: aDisp, disp2: in.B.Imm, tag: tc.bin}
		case in.A.Kind == isa.MemOperand && in.B.Kind == isa.MemOperand:
			m = mop{code: mAluMM, aop: aop, base: uint8(aBase), disp: aDisp, base2: uint8(bBase), disp2: bDisp}
		default:
			return false
		}

	case isa.LEA:
		if in.A.Kind != isa.RegOperand || in.B.Kind != isa.MemOperand {
			return false
		}
		m = mop{code: mLea, reg: uint8(in.A.Reg), base2: uint8(bBase), disp2: bDisp, tag: tc.bin}

	case isa.NOT, isa.NEG, isa.INC, isa.DEC:
		switch in.A.Kind {
		case isa.RegOperand:
			m = mop{code: mUnR, aop: uint8(in.Op), reg: uint8(in.A.Reg), tag: tc.bin}
		case isa.MemOperand:
			m = mop{code: mUnM, aop: uint8(in.Op), base: uint8(aBase), disp: aDisp, tag: tc.bin}
		default:
			return false
		}

	case isa.CMP, isa.TEST:
		aop := uint8(in.Op)
		switch {
		case in.A.Kind == isa.RegOperand && in.B.Kind == isa.RegOperand:
			m = mop{code: mCmpRR, aop: aop, reg: uint8(in.A.Reg), reg2: uint8(in.B.Reg)}
		case in.A.Kind == isa.RegOperand && in.B.Kind == isa.ImmOperand:
			m = mop{code: mCmpRI, aop: aop, reg: uint8(in.A.Reg), disp: in.B.Imm}
		case in.A.Kind == isa.RegOperand && in.B.Kind == isa.MemOperand:
			m = mop{code: mCmpRM, aop: aop, reg: uint8(in.A.Reg), base2: uint8(bBase), disp2: bDisp}
		case in.A.Kind == isa.MemOperand && in.B.Kind == isa.RegOperand:
			m = mop{code: mCmpMR, aop: aop, base: uint8(aBase), disp: aDisp, reg: uint8(in.B.Reg)}
		case in.A.Kind == isa.MemOperand && in.B.Kind == isa.ImmOperand:
			m = mop{code: mCmpMI, aop: aop, base: uint8(aBase), disp: aDisp, disp2: in.B.Imm}
		case in.A.Kind == isa.MemOperand && in.B.Kind == isa.MemOperand:
			m = mop{code: mCmpMM, aop: aop, base: uint8(aBase), disp: aDisp, base2: uint8(bBase), disp2: bDisp}
		default:
			return false
		}

	case isa.PUSH:
		switch in.A.Kind {
		case isa.RegOperand:
			m = mop{code: mPushR, reg: uint8(in.A.Reg)}
		case isa.ImmOperand:
			m = mop{code: mPushI, disp: in.A.Imm, tag: tc.bin}
		case isa.MemOperand:
			// The push source rides the B-side slots.
			if in.A.HasBase {
				m = mop{code: mPushM, base2: uint8(in.A.Reg), disp2: in.A.Imm}
			} else {
				m = mop{code: mPushM, base2: traceNoBase, disp2: in.A.Imm}
			}
		default:
			return false
		}

	case isa.POP:
		if in.A.Kind != isa.RegOperand {
			// POP [mem]: the interpreter resolves the taint address with
			// the pre-pop ESP but the concrete address with the post-pop
			// ESP; not worth replicating.
			return false
		}
		m = mop{code: mPopR, reg: uint8(in.A.Reg)}

	case isa.CPUID:
		m = mop{code: mCpuid}
	case isa.RDTSC:
		m = mop{code: mRdtsc}

	default:
		return false
	}
	tc.steps++
	if in.Op.MovesData() {
		tc.nData++
	}
	tc.scStep(in)
	tc.emit(m, tc.s.Addr(i))
	return true
}

// --- trace execution ----------------------------------------------

// traceExit describes where a trace run stopped: the architectural
// exit point, the retired/instrumented instruction counts, the guest
// fault if the run died on one, and the resume mop if the budget cut
// it short.
type traceExit struct {
	eip    uint32
	jumped bool
	// 32-bit counts: a single run fits uint16, but the clean tier
	// fuses consecutive runs of a self-looping trace into one exit,
	// whose totals are bounded only by the scheduler quantum.
	steps   uint32
	nData   uint32
	nBlocks uint32
	lastB   *traceBlock
	fault   *isa.Fault
	// stop is the mop a budget stop resumes at; 0 when the run ended
	// any other way (a stop always lies past the run's first mop).
	stop int
}

// retired returns the guest-instruction and data-instruction counts a
// run from the head retires before reaching mop j.
func (tr *blockTrace) retired(j int) (steps, nData uint32) {
	if j == 0 {
		return 0, 0
	}
	in := &tr.info[j-1]
	return uint32(in.steps), uint32(in.nData)
}

// runEnd returns the mop a run starting at mop start stops before so
// that it retires exactly budget instructions — or the end of the
// trace when the budget is unlimited (<= 0) or outlasts the path.
func (tr *blockTrace) runEnd(start, budget int) int {
	s0, _ := tr.retired(start)
	target := int(s0) + budget
	if budget <= 0 || target >= int(tr.nInstr) {
		return len(tr.mops)
	}
	// Each mop retires at most one instruction, so the stop lies at
	// least budget mops on; only the block entries in between push it
	// further. The smallest such mop stops before a block entry rather
	// than after it.
	end := start + budget
	for int(tr.info[end-1].steps) < target {
		end++
	}
	return end
}

// endExit is the exit of a run from start that reached its end mop:
// the trace's own exit point after a full run, or a budget stop that
// leaves EIP on the end mop's instruction (its leader, for mBBEnter).
func (tr *blockTrace) endExit(start, end int) traceExit {
	s0, n0 := tr.retired(start)
	if end == len(tr.mops) {
		return traceExit{
			eip: tr.endEIP, jumped: tr.endJumped,
			steps: uint32(tr.nInstr) - s0, nData: uint32(tr.nData) - n0,
		}
	}
	steps, nData := tr.retired(end)
	ex := traceExit{eip: tr.info[end].addr, steps: steps - s0, nData: nData - n0, stop: end}
	if op := &tr.mops[end]; op.code == mBBEnter {
		ex.jumped = tr.blocks[op.disp].entryJumped
	}
	return ex
}

// exitAt is the exit of a run from start that retired mop j and left
// at it: a side exit to eip, or a fault.
func (tr *blockTrace) exitAt(start, j int, eip uint32, jumped bool) traceExit {
	s0, n0 := tr.retired(start)
	return traceExit{
		eip: eip, jumped: jumped,
		steps: uint32(tr.info[j].steps) - s0, nData: uint32(tr.info[j].nData) - n0,
	}
}

// enterTrace dispatches a trace entry at its head: the clean-tier
// probe picks the bare or the full-taint loop.
func (h *Harrier) enterTrace(c *isa.CPU, tr *blockTrace) (isa.SlotAction, error) {
	if h.tt != nil {
		h.tt.Touch(obs.TierTrace)
	}
	bare := tr.clean.ok && h.cleanProbeTrace(c, tr)
	return isa.SlotTrace, h.runTrace(c, tr, 0, bare, c.TraceBudget)
}

// resumeTrace continues the run a budget stop cut short (c.Resume),
// from the mop it stopped before. Full taint is always sound: it is
// the per-instruction transfer applied to live state. A bare stop may
// continue bare only while nothing a clean verdict rests on has moved
// since — no page of this shadow flipped and the source epoch held —
// because the verdict proved the whole run from its entry a no-op.
func (h *Harrier) resumeTrace(c *isa.CPU, tr *blockTrace) (isa.SlotAction, error) {
	r := &c.Resume
	bare := r.Bare && r.Stamp == h.cleanStamp(c)
	if h.tt != nil && !bare {
		h.tt.Touch(obs.TierTrace)
	}
	return isa.SlotTrace, h.runTrace(c, tr, r.Mop, bare, c.TraceBudget)
}

// cleanStamp is what a budget stop records and a bare resume checks:
// the shadow's flip generation and the clean epoch.
func (h *Harrier) cleanStamp(c *isa.CPU) [2]uint64 {
	return [2]uint64{c.Shadow.FlipGen(), h.cleanEpoch}
}

// runTrace executes tr from mop start — bare under a live clean-tier
// verdict, with full taint transfer otherwise — then applies the exit
// protocol. budget is the scheduler's remaining quantum (<= 0:
// unlimited); a run that reaches it stops on the exact instruction.
func (h *Harrier) runTrace(c *isa.CPU, tr *blockTrace, start int, bare bool, budget int) error {
	if !bare {
		return h.finishTrace(c, tr, h.runTraceTaint(c, tr, start, tr.runEnd(start, budget)), false)
	}
	// Clean tier: the whole transfer is a proven no-op under the
	// current footprint/tag state, so run the trace with zero
	// instrumentation.
	if h.tt != nil {
		h.tt.Touch(obs.TierClean)
	}
	ex := h.runTraceBare(c, tr, start, tr.runEnd(start, budget), 0)
	// Clean-loop fusion: when the run lands back on this trace's own
	// head (a self-looping hot loop), re-enter directly instead of
	// surfacing to the fetch loop — per-entry dispatch is most of what
	// the clean tier still pays. Nothing a cached verdict depends on
	// can move during a bare run (no tag writes and no syscalls, hence
	// no page flips and no source-epoch advance); only the footprint
	// *pages* may differ now that the registers moved, which is exactly
	// what re-probing checks. Fusing only under a positive budget keeps
	// Step's contract with unbounded callers: one trace entry per call.
	// Every run retires at least one instruction, so the budget
	// strictly decreases.
	for budget > 0 && ex.fault == nil && ex.eip == tr.key.addr {
		rem := budget - int(ex.steps)
		if rem <= 0 || !h.cleanProbeTrace(c, tr) {
			break
		}
		nx := h.runTraceBare(c, tr, 0, tr.runEnd(0, rem), ex.steps)
		nx.steps += ex.steps
		nx.nData += ex.nData
		nx.nBlocks += ex.nBlocks
		if nx.lastB == nil {
			nx.lastB = ex.lastB
		}
		ex = nx
	}
	return h.finishTrace(c, tr, ex, true)
}

// finishTrace applies the exit protocol: architectural exit point,
// retired-step accounting, per-tier hit attribution, the batched
// instrumented-instruction counter with its sampling boundary, and
// the continuation of a budget stop.
func (h *Harrier) finishTrace(c *isa.CPU, tr *blockTrace, ex traceExit, clean bool) error {
	c.ExitTrace(ex.eip, ex.jumped)
	if ex.stop > 0 {
		c.Resume = isa.TraceResume{
			Trace: tr, Mop: ex.stop, PC: ex.eip,
			Bare: clean, Stamp: h.cleanStamp(c),
		}
	}
	c.Steps += uint64(ex.steps)
	h.stats.Blocks += uint64(ex.nBlocks)
	if clean {
		h.stats.CleanHits += uint64(ex.nBlocks)
	} else {
		h.stats.TraceHits += uint64(ex.nBlocks)
	}
	if b := ex.lastB; b != nil && b.isApp {
		// Write-behind app attribution, batched to one update per run:
		// no observation point exists inside a trace (a syscall ends it
		// at compile time), so only the last entered app block's key is
		// ever visible.
		if p := procOf(c); p != nil {
			if p.PID != h.appCachePID {
				h.flushApp()
				h.appCachePID = p.PID
			}
			h.appCacheKey = b.key
		}
	}
	old := h.stats.Instructions
	h.stats.Instructions = old + uint64(ex.nData)
	if h.bus != nil && old>>taintSampleShift != h.stats.Instructions>>taintSampleShift {
		h.publishTaintSample(c)
	}
	if ex.fault != nil {
		return ex.fault
	}
	return nil
}

// traceBlockEnter performs the observable per-block side effects of
// one chained block entry: the provenance register scan and the
// counter-rollover event, at the same execution point the interpreter
// tier would perform them. Only called when a recorder or bus is
// attached — the mop loops otherwise keep block entry down to one
// counter increment, with statistics batched at exit and last-app
// attribution folded into finishTrace. consumed is the instruction
// count this Step retired before the block, which keeps event
// timestamps on the interpreter's clock.
//
//go:noinline
func (h *Harrier) traceBlockEnter(c *isa.CPU, b *traceBlock, consumed uint32) {
	p := procOf(c)
	if p == nil {
		return
	}
	now := p.OS.Clock + uint64(consumed)
	if h.prov != nil {
		h.provBlockScan(c, now, int32(p.PID), b.key.addr, b.key.image, true)
	}
	if h.bus != nil && uint64(*b.ctr)&(bbRollQuantum-1) == 0 {
		h.bus.Publish(obs.Event{
			Time: now, Layer: obs.LayerHarrier, Kind: obs.KindBBRoll,
			PID: int32(p.PID), Num: uint64(b.key.addr), Num2: uint64(*b.ctr),
			Str: b.key.image,
		})
	}
}

// aluExec performs one ALU operation; ok is false on the runtime
// division-by-zero fault.
func aluExec(aop uint8, a, b uint32) (uint32, bool) {
	switch isa.Op(aop) {
	case isa.ADD:
		return a + b, true
	case isa.SUB:
		return a - b, true
	case isa.AND:
		return a & b, true
	case isa.OR:
		return a | b, true
	case isa.XOR:
		return a ^ b, true
	case isa.MUL:
		return a * b, true
	case isa.DIVOP:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case isa.MODOP:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case isa.SHL:
		return a << (b & 31), true
	case isa.SHR:
		return a >> (b & 31), true
	}
	return 0, false
}

// unExec performs one unary operation.
func unExec(aop uint8, a uint32) uint32 {
	switch isa.Op(aop) {
	case isa.NOT:
		return ^a
	case isa.NEG:
		return -a
	case isa.INC:
		return a + 1
	}
	return a - 1 // DEC
}

// brTaken evaluates a conditional-branch opcode against the flags.
func brTaken(aop uint8, zf, lt bool) bool {
	switch isa.Op(aop) {
	case isa.JZ:
		return zf
	case isa.JNZ:
		return !zf
	case isa.JL:
		return lt
	case isa.JLE:
		return lt || zf
	case isa.JG:
		return !lt && !zf
	}
	return !lt // JGE
}

// runTraceTaint is the full-transfer mop loop over mops [start,end):
// every mop applies its instruction's taint transfer first (the
// interpreter runs OnInstr before executing) and its concrete
// semantics second. A run never fuses, so its Step retired nothing
// before it.
func (h *Harrier) runTraceTaint(c *isa.CPU, tr *blockTrace, start, end int) (ex traceExit) {
	sh := c.Shadow
	st := h.Store
	mem := c.Mem
	zf, lt := c.ZF, c.LT
	observed := h.prov != nil || h.bus != nil
	var nBlocks uint32
	var lastB *traceBlock
	defer func() { ex.nBlocks, ex.lastB = nBlocks, lastB }()
	s0, _ := tr.retired(start)
	mops, info := tr.mops[:end], tr.info
	for j := start; j < len(mops); j++ {
		op := &mops[j]
		switch op.code {
		case mBBEnter:
			b := &tr.blocks[op.disp]
			*b.ctr++
			nBlocks++
			lastB = b
			if observed {
				h.traceBlockEnter(c, b, uint32(info[j].steps)-s0)
			}

		case mBr:
			if taken := brTaken(op.aop, zf, lt); taken != op.pred {
				h.stats.TraceSideExits++
				eip := op.disp2
				if taken {
					eip = op.disp
				}
				c.ZF, c.LT = zf, lt
				return tr.exitAt(start, j, eip, true)
			}
		case mNop:

		case mMovRR:
			c.RegTags[op.reg] = c.RegTags[op.reg2]
			c.Regs[op.reg] = c.Regs[op.reg2]
		case mMovRI:
			c.RegTags[op.reg] = op.tag
			c.Regs[op.reg] = op.disp
		case mMovRM:
			ea := op.ea2(c)
			c.RegTags[op.reg] = sh.GetWord(ea)
			c.Regs[op.reg] = mem.Load32(ea)
		case mMovMR:
			ea := op.ea(c)
			sh.SetWord(ea, c.RegTags[op.reg])
			mem.Store32(ea, c.Regs[op.reg])
		case mMovMI:
			ea := op.ea(c)
			sh.SetWord(ea, op.tag)
			mem.Store32(ea, op.disp2)
		case mMovMM:
			eaB := op.ea2(c)
			eaA := op.ea(c)
			sh.SetWord(eaA, sh.GetWord(eaB))
			mem.Store32(eaA, mem.Load32(eaB))

		case mMovbRR:
			c.RegTags[op.reg] = c.RegTags[op.reg2]
			c.Regs[op.reg] = (c.Regs[op.reg] &^ 0xFF) | (c.Regs[op.reg2] & 0xFF)
		case mMovbRI:
			c.RegTags[op.reg] = op.tag
			c.Regs[op.reg] = (c.Regs[op.reg] &^ 0xFF) | (op.disp & 0xFF)
		case mMovbRM:
			ea := op.ea2(c)
			c.RegTags[op.reg] = sh.Get(ea)
			c.Regs[op.reg] = (c.Regs[op.reg] &^ 0xFF) | uint32(mem.Load8(ea))
		case mMovbMR:
			ea := op.ea(c)
			sh.Set(ea, c.RegTags[op.reg])
			mem.Store8(ea, byte(c.Regs[op.reg]))
		case mMovbMI:
			ea := op.ea(c)
			sh.Set(ea, op.tag)
			mem.Store8(ea, byte(op.disp2))
		case mMovbMM:
			eaB := op.ea2(c)
			eaA := op.ea(c)
			sh.Set(eaA, sh.Get(eaB))
			mem.Store8(eaA, mem.Load8(eaB))

		case mLea:
			t := op.tag
			if op.base2 != traceNoBase {
				t = st.Union(t, c.RegTags[op.base2])
			}
			c.RegTags[op.reg] = t
			c.Regs[op.reg] = op.ea2(c)

		case mZeroR:
			c.RegTags[op.reg] = taint.Empty
			c.Regs[op.reg] = 0
			zf, lt = true, false

		case mAluRR:
			c.RegTags[op.reg] = st.Union(c.RegTags[op.reg], c.RegTags[op.reg2])
			r, ok := aluExec(op.aop, c.Regs[op.reg], c.Regs[op.reg2])
			if !ok {
				c.ZF, c.LT = zf, lt
				return traceFault(tr, start, j)
			}
			zf, lt = r == 0, int32(r) < 0
			c.Regs[op.reg] = r
		case mAluRI:
			c.RegTags[op.reg] = st.Union(c.RegTags[op.reg], op.tag)
			r, ok := aluExec(op.aop, c.Regs[op.reg], op.disp)
			if !ok {
				c.ZF, c.LT = zf, lt
				return traceFault(tr, start, j)
			}
			zf, lt = r == 0, int32(r) < 0
			c.Regs[op.reg] = r
		case mAluRM:
			ea := op.ea2(c)
			c.RegTags[op.reg] = st.Union(c.RegTags[op.reg], sh.GetWord(ea))
			r, ok := aluExec(op.aop, c.Regs[op.reg], mem.Load32(ea))
			if !ok {
				c.ZF, c.LT = zf, lt
				return traceFault(tr, start, j)
			}
			zf, lt = r == 0, int32(r) < 0
			c.Regs[op.reg] = r
		case mAluMR:
			ea := op.ea(c)
			sh.SetWord(ea, st.Union(sh.GetWord(ea), c.RegTags[op.reg]))
			r, ok := aluExec(op.aop, mem.Load32(ea), c.Regs[op.reg])
			if !ok {
				c.ZF, c.LT = zf, lt
				return traceFault(tr, start, j)
			}
			zf, lt = r == 0, int32(r) < 0
			mem.Store32(ea, r)
		case mAluMI:
			ea := op.ea(c)
			sh.SetWord(ea, st.Union(sh.GetWord(ea), op.tag))
			r, ok := aluExec(op.aop, mem.Load32(ea), op.disp2)
			if !ok {
				c.ZF, c.LT = zf, lt
				return traceFault(tr, start, j)
			}
			zf, lt = r == 0, int32(r) < 0
			mem.Store32(ea, r)
		case mAluMM:
			eaA := op.ea(c)
			eaB := op.ea2(c)
			sh.SetWord(eaA, st.Union(sh.GetWord(eaA), sh.GetWord(eaB)))
			r, ok := aluExec(op.aop, mem.Load32(eaA), mem.Load32(eaB))
			if !ok {
				c.ZF, c.LT = zf, lt
				return traceFault(tr, start, j)
			}
			zf, lt = r == 0, int32(r) < 0
			mem.Store32(eaA, r)

		case mUnR:
			if isa.Op(op.aop) == isa.INC || isa.Op(op.aop) == isa.DEC {
				c.RegTags[op.reg] = st.Union(c.RegTags[op.reg], op.tag)
			}
			r := unExec(op.aop, c.Regs[op.reg])
			zf, lt = r == 0, int32(r) < 0
			c.Regs[op.reg] = r
		case mUnM:
			ea := op.ea(c)
			t := sh.GetWord(ea)
			if isa.Op(op.aop) == isa.INC || isa.Op(op.aop) == isa.DEC {
				t = st.Union(t, op.tag)
			}
			// NOT/NEG re-store the word's own tag: not a no-op on
			// byte-granular pages (it uniformizes the four byte tags).
			sh.SetWord(ea, t)
			r := unExec(op.aop, mem.Load32(ea))
			zf, lt = r == 0, int32(r) < 0
			mem.Store32(ea, r)

		case mCmpRR:
			a, b := c.Regs[op.reg], c.Regs[op.reg2]
			zf, lt = cmpFlags(op.aop, a, b)
		case mCmpRI:
			zf, lt = cmpFlags(op.aop, c.Regs[op.reg], op.disp)
		case mCmpRM:
			zf, lt = cmpFlags(op.aop, c.Regs[op.reg], mem.Load32(op.ea2(c)))
		case mCmpMR:
			zf, lt = cmpFlags(op.aop, mem.Load32(op.ea(c)), c.Regs[op.reg])
		case mCmpMI:
			zf, lt = cmpFlags(op.aop, mem.Load32(op.ea(c)), op.disp2)
		case mCmpMM:
			a := mem.Load32(op.ea(c))
			b := mem.Load32(op.ea2(c))
			zf, lt = cmpFlags(op.aop, a, b)

		case mPushR:
			esp := c.Regs[isa.ESP] - 4
			sh.SetWord(esp, c.RegTags[op.reg])
			mem.Store32(esp, c.Regs[op.reg])
			c.Regs[isa.ESP] = esp
		case mPushI:
			esp := c.Regs[isa.ESP] - 4
			sh.SetWord(esp, op.tag)
			mem.Store32(esp, op.disp)
			c.Regs[isa.ESP] = esp
		case mPushM:
			eaB := op.ea2(c)
			esp := c.Regs[isa.ESP] - 4
			sh.SetWord(esp, sh.GetWord(eaB))
			mem.Store32(esp, mem.Load32(eaB))
			c.Regs[isa.ESP] = esp
		case mPopR:
			esp := c.Regs[isa.ESP]
			c.RegTags[op.reg] = sh.GetWord(esp)
			v := mem.Load32(esp)
			c.Regs[isa.ESP] = esp + 4
			c.Regs[op.reg] = v

		case mCpuid:
			c.RegTags[isa.EAX] = h.hwTag
			c.RegTags[isa.EBX] = h.hwTag
			c.RegTags[isa.ECX] = h.hwTag
			c.RegTags[isa.EDX] = h.hwTag
			if h.prov != nil {
				h.provHardware(c, "cpuid")
			}
			c.Regs[isa.EAX] = 0x48544853
			c.Regs[isa.EBX] = 0x696D5543
			c.Regs[isa.ECX] = 0x756C6174
			c.Regs[isa.EDX] = 0x726F2121
		case mRdtsc:
			c.RegTags[isa.EAX] = h.hwTag
			c.RegTags[isa.EDX] = h.hwTag
			if h.prov != nil {
				h.provHardware(c, "rdtsc")
			}
			steps := c.Steps + uint64(uint32(info[j].steps)-s0)
			c.Regs[isa.EAX] = uint32(steps)
			c.Regs[isa.EDX] = uint32(steps >> 32)
		}
	}
	c.ZF, c.LT = zf, lt
	return tr.endExit(start, end)
}

// traceFault builds the division-by-zero exit of a run from start:
// the faulting instruction's taint transfer has already been applied
// (the interpreter's OnInstr runs before the fault too) and its
// retirement is counted, exactly as the interpreter reports it.
func traceFault(tr *blockTrace, start, j int) traceExit {
	ex := tr.exitAt(start, j, tr.info[j].addr, false)
	ex.fault = &isa.Fault{PC: tr.info[j].addr, Reason: "division by zero"}
	return ex
}

// cmpFlags evaluates CMP/TEST flag semantics.
func cmpFlags(aop uint8, a, b uint32) (zf, lt bool) {
	if isa.Op(aop) == isa.CMP {
		return a == b, int32(a) < int32(b)
	}
	r := a & b
	return r == 0, int32(r) < 0
}

// runTraceBare is the clean tier's trace loop: the tag-free variant of
// the mop loop, executing only concrete semantics over mops
// [start,end). It runs only under a live clean-tier verdict
// (cleanProbeTrace, or a bare stop's stamp on resume). All per-block
// side effects still fire — the clean tier elides taint transfer,
// never observability. Skipping the transfer is exact because every
// mop was proven a taint no-op for the entry state (cleanMopsNoop);
// that includes a mop that faults here, so even the fault path needs
// no tag work. done is what earlier fused runs of this Step retired,
// which keeps rdtsc and event timestamps on the interpreter's clock.
func (h *Harrier) runTraceBare(c *isa.CPU, tr *blockTrace, start, end int, done uint32) (ex traceExit) {
	mem := c.Mem
	zf, lt := c.ZF, c.LT
	observed := h.prov != nil || h.bus != nil
	var nBlocks uint32
	var lastB *traceBlock
	defer func() { ex.nBlocks, ex.lastB = nBlocks, lastB }()
	s0, _ := tr.retired(start)
	s0 -= done // offsets below count from this Step's first instruction
	mops, info := tr.mops[:end], tr.info
	for j := start; j < len(mops); j++ {
		op := &mops[j]
		switch op.code {
		case mBBEnter:
			b := &tr.blocks[op.disp]
			*b.ctr++
			nBlocks++
			lastB = b
			if observed {
				h.traceBlockEnter(c, b, uint32(info[j].steps)-s0)
			}

		case mBr:
			if taken := brTaken(op.aop, zf, lt); taken != op.pred {
				h.stats.TraceSideExits++
				eip := op.disp2
				if taken {
					eip = op.disp
				}
				c.ZF, c.LT = zf, lt
				return tr.exitAt(start, j, eip, true)
			}
		case mNop:

		case mMovRR:
			c.Regs[op.reg] = c.Regs[op.reg2]
		case mMovRI:
			c.Regs[op.reg] = op.disp
		case mMovRM:
			c.Regs[op.reg] = mem.Load32(op.ea2(c))
		case mMovMR:
			mem.Store32(op.ea(c), c.Regs[op.reg])
		case mMovMI:
			mem.Store32(op.ea(c), op.disp2)
		case mMovMM:
			v := mem.Load32(op.ea2(c))
			mem.Store32(op.ea(c), v)

		case mMovbRR:
			c.Regs[op.reg] = (c.Regs[op.reg] &^ 0xFF) | (c.Regs[op.reg2] & 0xFF)
		case mMovbRI:
			c.Regs[op.reg] = (c.Regs[op.reg] &^ 0xFF) | (op.disp & 0xFF)
		case mMovbRM:
			c.Regs[op.reg] = (c.Regs[op.reg] &^ 0xFF) | uint32(mem.Load8(op.ea2(c)))
		case mMovbMR:
			mem.Store8(op.ea(c), byte(c.Regs[op.reg]))
		case mMovbMI:
			mem.Store8(op.ea(c), byte(op.disp2))
		case mMovbMM:
			v := mem.Load8(op.ea2(c))
			mem.Store8(op.ea(c), v)

		case mLea:
			c.Regs[op.reg] = op.ea2(c)
		case mZeroR:
			c.Regs[op.reg] = 0
			zf, lt = true, false

		case mAluRR:
			r, ok := aluExec(op.aop, c.Regs[op.reg], c.Regs[op.reg2])
			if !ok {
				c.ZF, c.LT = zf, lt
				return traceFault(tr, start, j)
			}
			zf, lt = r == 0, int32(r) < 0
			c.Regs[op.reg] = r
		case mAluRI:
			r, ok := aluExec(op.aop, c.Regs[op.reg], op.disp)
			if !ok {
				c.ZF, c.LT = zf, lt
				return traceFault(tr, start, j)
			}
			zf, lt = r == 0, int32(r) < 0
			c.Regs[op.reg] = r
		case mAluRM:
			r, ok := aluExec(op.aop, c.Regs[op.reg], mem.Load32(op.ea2(c)))
			if !ok {
				c.ZF, c.LT = zf, lt
				return traceFault(tr, start, j)
			}
			zf, lt = r == 0, int32(r) < 0
			c.Regs[op.reg] = r
		case mAluMR:
			ea := op.ea(c)
			r, ok := aluExec(op.aop, mem.Load32(ea), c.Regs[op.reg])
			if !ok {
				c.ZF, c.LT = zf, lt
				return traceFault(tr, start, j)
			}
			zf, lt = r == 0, int32(r) < 0
			mem.Store32(ea, r)
		case mAluMI:
			ea := op.ea(c)
			r, ok := aluExec(op.aop, mem.Load32(ea), op.disp2)
			if !ok {
				c.ZF, c.LT = zf, lt
				return traceFault(tr, start, j)
			}
			zf, lt = r == 0, int32(r) < 0
			mem.Store32(ea, r)
		case mAluMM:
			eaA := op.ea(c)
			r, ok := aluExec(op.aop, mem.Load32(eaA), mem.Load32(op.ea2(c)))
			if !ok {
				c.ZF, c.LT = zf, lt
				return traceFault(tr, start, j)
			}
			zf, lt = r == 0, int32(r) < 0
			mem.Store32(eaA, r)

		case mUnR:
			r := unExec(op.aop, c.Regs[op.reg])
			zf, lt = r == 0, int32(r) < 0
			c.Regs[op.reg] = r
		case mUnM:
			ea := op.ea(c)
			r := unExec(op.aop, mem.Load32(ea))
			zf, lt = r == 0, int32(r) < 0
			mem.Store32(ea, r)

		case mCmpRR:
			zf, lt = cmpFlags(op.aop, c.Regs[op.reg], c.Regs[op.reg2])
		case mCmpRI:
			zf, lt = cmpFlags(op.aop, c.Regs[op.reg], op.disp)
		case mCmpRM:
			zf, lt = cmpFlags(op.aop, c.Regs[op.reg], mem.Load32(op.ea2(c)))
		case mCmpMR:
			zf, lt = cmpFlags(op.aop, mem.Load32(op.ea(c)), c.Regs[op.reg])
		case mCmpMI:
			zf, lt = cmpFlags(op.aop, mem.Load32(op.ea(c)), op.disp2)
		case mCmpMM:
			a := mem.Load32(op.ea(c))
			b := mem.Load32(op.ea2(c))
			zf, lt = cmpFlags(op.aop, a, b)

		case mPushR:
			esp := c.Regs[isa.ESP] - 4
			mem.Store32(esp, c.Regs[op.reg])
			c.Regs[isa.ESP] = esp
		case mPushI:
			esp := c.Regs[isa.ESP] - 4
			mem.Store32(esp, op.disp)
			c.Regs[isa.ESP] = esp
		case mPushM:
			v := mem.Load32(op.ea2(c))
			esp := c.Regs[isa.ESP] - 4
			mem.Store32(esp, v)
			c.Regs[isa.ESP] = esp
		case mPopR:
			esp := c.Regs[isa.ESP]
			v := mem.Load32(esp)
			c.Regs[isa.ESP] = esp + 4
			c.Regs[op.reg] = v

		case mCpuid:
			// Tag writes were proven no-ops (the registers already carry
			// HARDWARE); the provenance entry still fires.
			if h.prov != nil {
				h.provHardware(c, "cpuid")
			}
			c.Regs[isa.EAX] = 0x48544853
			c.Regs[isa.EBX] = 0x696D5543
			c.Regs[isa.ECX] = 0x756C6174
			c.Regs[isa.EDX] = 0x726F2121
		case mRdtsc:
			if h.prov != nil {
				h.provHardware(c, "rdtsc")
			}
			steps := c.Steps + uint64(uint32(info[j].steps)-s0)
			c.Regs[isa.EAX] = uint32(steps)
			c.Regs[isa.EDX] = uint32(steps >> 32)
		}
	}
	c.ZF, c.LT = zf, lt
	return tr.endExit(start, end)
}
