package isa

import (
	"errors"
	"fmt"

	"repro/internal/taint"
)

// ErrHalted is returned by Step once the CPU has executed HLT or been
// halted externally.
var ErrHalted = errors.New("isa: cpu halted")

// Fault is an execution fault: bad fetch, division by zero, or an
// undefined operation. A faulting guest is killed by the OS.
type Fault struct {
	PC     uint32
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("isa: fault at %#x: %s", f.PC, f.Reason)
}

// SyscallHandler executes a system call on behalf of the guest; the
// virtual OS implements it. The handler reads arguments from the CPU
// registers (EAX = number, EBX/ECX/EDX/ESI/EDI = arguments) and writes
// the result to EAX, following the Linux i386 convention.
type SyscallHandler interface {
	Syscall(c *CPU)
}

// Native is a host-implemented guest library routine. When the CPU
// executes a NATIVE instruction it runs Fn and then performs RET.
type Native struct {
	Name string
	Fn   func(c *CPU)
}

// SlotAction is the verdict Hooks.OnTraceSlot returns for a block
// entry that landed on a filled slot (Span.TraceSlot).
type SlotAction uint8

const (
	// SlotDecline rejects the slot (foreign, stale or pinned); the
	// interpreter-tier hooks run as usual.
	SlotDecline SlotAction = iota
	// SlotTrace means the hook *executed* guest instructions itself
	// (a compiled superblock trace): it advanced EIP, Steps and the
	// flags/registers/memory to the trace's exit point. Step returns
	// immediately without fetching — the accompanying error, if any,
	// is the guest fault the trace stopped on.
	SlotTrace
)

// Hooks are the instrumentation points Harrier attaches to; all are
// optional. They correspond to the instrumentation granularities of
// paper Table 3 (instruction, basic block, routine).
type Hooks struct {
	// OnInstr runs before every instruction executes. Harrier's
	// Track_DataFlow analysis is installed here (paper Figure 5).
	OnInstr func(c *CPU, s *Span, idx int)
	// OnInstrData, when set, restricts OnInstr to data-moving
	// instructions (Op.MovesData): the fetch loop skips the callback
	// entirely for compares and control transfers, which Harrier's
	// dataflow analysis ignores (implicit flows are out of scope).
	// Leave false to run OnInstr before every instruction.
	OnInstrData bool
	// OnBB runs once per dynamic basic-block entry, before the leader
	// instruction. Harrier's Collect_BB_Frequency lives here.
	OnBB func(c *CPU, s *Span, leaderIdx int)
	// OnTraceSlot is the fast-dispatch point of the tiered taint
	// engine: when a block entry lands on a leader whose slot is filled
	// (Span.TraceSlot), the fetch loop offers the slot here before
	// calling OnBB. The returned SlotAction either declines
	// (interpreter hooks run as usual) or reports that a trace ran (the
	// hook executed instructions itself; see CPU.TraceBudget).
	// The error return accompanies SlotTrace when the trace stopped
	// on a guest fault, which Step propagates as its own. A pending
	// continuation (CPU.Resume) is offered here too, before Step
	// fetches anything, with s == nil, leaderIdx -1 and the stopped
	// trace as the slot: the hook resumes it from Resume.Mop and answers
	// SlotTrace, or declines and the interpreter continues from EIP.
	OnTraceSlot func(c *CPU, s *Span, leaderIdx int, slot any) (SlotAction, error)
	// OnNativePre/Post bracket host-implemented library routines.
	// Harrier's short-circuit dataflow (gethostbyname) lives here
	// (paper §7.2).
	OnNativePre  func(c *CPU, name string)
	OnNativePost func(c *CPU, name string)
}

// TraceResume is the continuation of a SlotTrace run that
// CPU.TraceBudget cut short: the hook stopped on the exact instruction
// where the budget ran out — mid-block if need be — and the next Step
// hands the stopped trace back to it to continue from Mop. Plain
// fields, so recording a stop allocates nothing.
type TraceResume struct {
	Trace any    // the stopped trace; nil means no continuation is pending
	Mop   int    // the trace's micro-op to resume at
	PC    uint32 // EIP at the stop; the resume is valid only while EIP still equals it
	// Bare and Stamp are the hook's own record of the state the run
	// stopped under; the CPU never reads them.
	Bare  bool
	Stamp [2]uint64
}

// CPU is the interpreting guest processor. One CPU belongs to one
// process; fork() clones it. The CPU core never touches taint state —
// RegTags and Shadow exist for the instrumentation layer (Harrier) and
// are carried here so they travel with the architectural state.
type CPU struct {
	Regs  [NumRegs]uint32
	EIP   uint32
	ZF    bool // zero flag
	LT    bool // signed-less flag (set by CMP/arithmetic)
	Steps uint64

	// Taint state, maintained by the instrumentation layer.
	RegTags [NumRegs]taint.Tag
	Shadow  *taint.Shadow

	Mem     *Memory
	Code    *CodeMap
	Natives []Native
	Sys     SyscallHandler
	Hooks   Hooks

	// Ctx is an opaque owner pointer (the vos.Process), available to
	// hooks and syscall handlers.
	Ctx any

	// TraceBudget caps how many guest instructions a SlotTrace hook
	// may execute in one Step call; the scheduler sets it to the
	// remainder of the current quantum before each Step so trace
	// execution never stretches a scheduling slice: a run that reaches
	// it stops on that exact instruction and leaves a Resume. Zero or
	// negative means unlimited (callers outside the scheduler).
	TraceBudget int
	// Resume is the continuation slot a SlotTrace hook fills when
	// TraceBudget stops its run early. Step consumes it before its next
	// fetch; SetPC drops it and Clone never copies it.
	Resume TraceResume

	Halted     bool
	jumped     bool // last instruction transferred control
	pcOverride *uint32

	// Sequential-fetch cursor: when the previous instruction fell
	// through, the next one is curSpan.Instrs[curIdx] and the CodeMap
	// lookup is skipped entirely. curOK gates validity — invalidated
	// by any control transfer, PC override, or externally assigned
	// EIP. curSpan itself is left in place when the cursor goes
	// invalid (clearing it would pay a GC write barrier per jump).
	curSpan *Span
	curIdx  int
	curOK   bool
}

// NewCPU returns a CPU with fresh memory and code map; callers supply
// shadow, natives and the syscall handler.
func NewCPU() *CPU {
	return &CPU{Mem: NewMemory(), Code: NewCodeMap(), jumped: true}
}

// SetPC overrides the next program counter; used by execve to enter a
// fresh image.
func (c *CPU) SetPC(addr uint32) {
	a := addr
	c.pcOverride = &a
	c.curOK = false
	c.Resume.Trace = nil
}

// ExitTrace records the architectural exit point of a SlotTrace
// hook: the next PC and whether the trace left via a control transfer
// (which makes the following instruction a fresh block entry even when
// it is not a leader). The sequential-fetch cursor is invalidated —
// the trace moved EIP underneath it.
func (c *CPU) ExitTrace(pc uint32, jumped bool) {
	c.EIP = pc
	c.jumped = jumped
	c.curOK = false
}

// Halt stops the CPU; subsequent Step calls return ErrHalted.
func (c *CPU) Halt() { c.Halted = true }

// EffectiveAddr computes the guest address a memory operand refers to.
// It is exported for the instrumentation layer, which must resolve
// addresses before the instruction executes.
func (c *CPU) EffectiveAddr(op *Operand) uint32 {
	ea := op.Imm
	if op.HasBase {
		ea += c.Regs[op.Reg]
	}
	return ea
}

// fault builds an execution fault at the current PC. Kept out of line
// so the operand accessors stay under the inlining budget; the paths
// that reach it are unreachable for assembler-produced code.
//
//go:noinline
func (c *CPU) fault(reason string) error {
	return &Fault{PC: c.EIP, Reason: reason}
}

// ReadOperand returns the 32-bit value an operand denotes.
func (c *CPU) ReadOperand(op *Operand) (uint32, error) {
	switch op.Kind {
	case RegOperand:
		return c.Regs[op.Reg], nil
	case ImmOperand:
		return op.Imm, nil
	case MemOperand:
		return c.Mem.Load32(c.EffectiveAddr(op)), nil
	}
	return 0, c.fault("read of empty operand")
}

func (c *CPU) readOperand8(op *Operand) (uint32, error) {
	switch op.Kind {
	case RegOperand:
		return c.Regs[op.Reg] & 0xFF, nil
	case ImmOperand:
		return op.Imm & 0xFF, nil
	case MemOperand:
		return uint32(c.Mem.Load8(c.EffectiveAddr(op))), nil
	}
	return 0, c.fault("read of empty operand")
}

func (c *CPU) writeOperand(op *Operand, v uint32) error {
	switch op.Kind {
	case RegOperand:
		c.Regs[op.Reg] = v
		return nil
	case MemOperand:
		c.Mem.Store32(c.EffectiveAddr(op), v)
		return nil
	}
	return c.fault("write to non-writable operand")
}

func (c *CPU) writeOperand8(op *Operand, v uint32) error {
	switch op.Kind {
	case RegOperand:
		c.Regs[op.Reg] = (c.Regs[op.Reg] &^ 0xFF) | (v & 0xFF)
		return nil
	case MemOperand:
		c.Mem.Store8(c.EffectiveAddr(op), byte(v))
		return nil
	}
	return c.fault("byte write to non-writable operand")
}

func (c *CPU) setFlags(v uint32) {
	c.ZF = v == 0
	c.LT = int32(v) < 0
}

// branchTarget resolves the target of a control-transfer operand.
func (c *CPU) branchTarget(op *Operand) (uint32, error) {
	switch op.Kind {
	case ImmOperand:
		return op.Imm, nil
	case RegOperand:
		return c.Regs[op.Reg], nil
	case MemOperand:
		return c.Mem.Load32(c.EffectiveAddr(op)), nil
	}
	return 0, c.fault("branch with empty target")
}

func (c *CPU) push(v uint32) {
	c.Regs[ESP] -= 4
	c.Mem.Store32(c.Regs[ESP], v)
}

func (c *CPU) pop() uint32 {
	v := c.Mem.Load32(c.Regs[ESP])
	c.Regs[ESP] += 4
	return v
}

// Step fetches, instruments and executes one instruction.
func (c *CPU) Step() error {
	if c.Halted {
		return ErrHalted
	}
	var span *Span
	var idx int
	if c.curOK {
		span, idx = c.curSpan, c.curIdx
	} else {
		// A pending continuation always comes with an invalid cursor
		// (ExitTrace clears it), so only this path looks for one.
		if c.Resume.Trace != nil {
			if resumed, err := c.resume(); resumed {
				return err
			}
		}
		var ok bool
		span, idx, ok = c.Code.Find(c.EIP)
		if !ok {
			c.Halted = true
			return &Fault{PC: c.EIP, Reason: "fetch from unmapped code"}
		}
	}
	in := &span.Instrs[idx]
	m := span.meta[idx]

	// Basic-block entry: the instruction is its block's leader, or
	// control arrived here non-sequentially (paper §7.4). A leader
	// whose slot is filled is offered to OnTraceSlot first; a trace
	// that ran there replaces this whole Step. Mid-block entries
	// (computed jumps landing past the leader) never match metaLeader
	// and always take the interpreter tier.
	if (m&metaLeader != 0 || c.jumped) && (c.Hooks.OnBB != nil || c.Hooks.OnTraceSlot != nil) {
		if m&metaLeader != 0 && span.slots != nil && c.Hooks.OnTraceSlot != nil {
			if slot := span.slots[idx]; slot != nil {
				if act, terr := c.Hooks.OnTraceSlot(c, span, idx, slot); act == SlotTrace {
					// EIP, Steps, flags and the architectural state
					// already sit at the trace's exit point. A non-nil
					// error is a guest fault the trace stopped on,
					// reported exactly as if the interpreter had executed
					// the faulting instruction.
					c.curOK = false
					if terr != nil {
						c.Halted = true
						return terr
					}
					return nil
				}
			}
		}
		if c.Hooks.OnBB != nil {
			c.Hooks.OnBB(c, span, span.BBLeader[idx])
		}
	}
	if c.Hooks.OnInstr != nil && (m&metaData != 0 || !c.Hooks.OnInstrData) {
		c.Hooks.OnInstr(c, span, idx)
	}

	c.Steps++
	c.jumped = false
	next := c.EIP + InstrSize
	jump := func(addr uint32) {
		next = addr
		c.jumped = true
	}

	var err error
	switch in.Op {
	case NOP:
		// nothing
	case HLT:
		c.Halted = true
		c.jumped = true

	case MOV:
		var v uint32
		if v, err = c.ReadOperand(&in.B); err == nil {
			err = c.writeOperand(&in.A, v)
		}
	case MOVB:
		var v uint32
		if v, err = c.readOperand8(&in.B); err == nil {
			err = c.writeOperand8(&in.A, v)
		}
	case LEA:
		if in.B.Kind != MemOperand {
			err = &Fault{PC: c.EIP, Reason: "lea requires memory source"}
			break
		}
		err = c.writeOperand(&in.A, c.EffectiveAddr(&in.B))

	case ADD, SUB, AND, OR, XOR, MUL, DIVOP, MODOP, SHL, SHR:
		var a, b uint32
		if a, err = c.ReadOperand(&in.A); err != nil {
			break
		}
		if b, err = c.ReadOperand(&in.B); err != nil {
			break
		}
		var r uint32
		switch in.Op {
		case ADD:
			r = a + b
		case SUB:
			r = a - b
		case AND:
			r = a & b
		case OR:
			r = a | b
		case XOR:
			r = a ^ b
		case MUL:
			r = a * b
		case DIVOP:
			if b == 0 {
				err = &Fault{PC: c.EIP, Reason: "division by zero"}
			} else {
				r = a / b
			}
		case MODOP:
			if b == 0 {
				err = &Fault{PC: c.EIP, Reason: "division by zero"}
			} else {
				r = a % b
			}
		case SHL:
			r = a << (b & 31)
		case SHR:
			r = a >> (b & 31)
		}
		if err == nil {
			c.setFlags(r)
			err = c.writeOperand(&in.A, r)
		}

	case NOT, NEG, INC, DEC:
		var a uint32
		if a, err = c.ReadOperand(&in.A); err != nil {
			break
		}
		var r uint32
		switch in.Op {
		case NOT:
			r = ^a
		case NEG:
			r = -a
		case INC:
			r = a + 1
		case DEC:
			r = a - 1
		}
		c.setFlags(r)
		err = c.writeOperand(&in.A, r)

	case CMP:
		var a, b uint32
		if a, err = c.ReadOperand(&in.A); err != nil {
			break
		}
		if b, err = c.ReadOperand(&in.B); err != nil {
			break
		}
		c.ZF = a == b
		c.LT = int32(a) < int32(b)
	case TEST:
		var a, b uint32
		if a, err = c.ReadOperand(&in.A); err != nil {
			break
		}
		if b, err = c.ReadOperand(&in.B); err != nil {
			break
		}
		c.setFlags(a & b)

	case PUSH:
		var v uint32
		if v, err = c.ReadOperand(&in.A); err == nil {
			c.push(v)
		}
	case POP:
		err = c.writeOperand(&in.A, c.pop())

	case JMP:
		var t uint32
		if t, err = c.branchTarget(&in.A); err == nil {
			jump(t)
		}
	case JZ, JNZ, JL, JLE, JG, JGE:
		taken := false
		switch in.Op {
		case JZ:
			taken = c.ZF
		case JNZ:
			taken = !c.ZF
		case JL:
			taken = c.LT
		case JLE:
			taken = c.LT || c.ZF
		case JG:
			taken = !c.LT && !c.ZF
		case JGE:
			taken = !c.LT
		}
		// A conditional jump ends its basic block whether or not it
		// is taken; mark the transfer so the fall-through leader is
		// counted as a fresh block entry.
		c.jumped = true
		if taken {
			var t uint32
			if t, err = c.branchTarget(&in.A); err == nil {
				jump(t)
			}
		}
	case CALL:
		var t uint32
		if t, err = c.branchTarget(&in.A); err == nil {
			c.push(c.EIP + InstrSize)
			jump(t)
		}
	case RET:
		jump(c.pop())

	case INT:
		if in.A.Kind != ImmOperand || in.A.Imm != 0x80 {
			err = &Fault{PC: c.EIP, Reason: fmt.Sprintf("unsupported interrupt %v", in.A)}
			break
		}
		if c.Sys == nil {
			err = &Fault{PC: c.EIP, Reason: "int 0x80 with no OS attached"}
			break
		}
		c.jumped = true // a syscall ends the basic block
		c.Sys.Syscall(c)

	case CPUID:
		// Fixed processor identification, in the spirit of the x86
		// cpuid instruction (paper §5.1): the values are hardware-
		// provided and carry the HARDWARE data source.
		c.Regs[EAX] = 0x48544853 // "SHTH"
		c.Regs[EBX] = 0x696D5543 // "CUmi"
		c.Regs[ECX] = 0x756C6174 // "talu"
		c.Regs[EDX] = 0x726F2121 // "!!or"
	case RDTSC:
		c.Regs[EAX] = uint32(c.Steps)
		c.Regs[EDX] = uint32(c.Steps >> 32)

	case NATIVE:
		if in.Native < 0 || in.Native >= len(c.Natives) {
			err = &Fault{PC: c.EIP, Reason: "undefined native routine"}
			break
		}
		n := c.Natives[in.Native]
		if c.Hooks.OnNativePre != nil {
			c.Hooks.OnNativePre(c, n.Name)
		}
		n.Fn(c)
		if c.Hooks.OnNativePost != nil {
			c.Hooks.OnNativePost(c, n.Name)
		}
		jump(c.pop()) // native routines behave as body+RET

	default:
		err = &Fault{PC: c.EIP, Reason: fmt.Sprintf("undefined opcode %v", in.Op)}
	}

	if err != nil {
		c.Halted = true
		c.curOK = false
		return err
	}
	if c.pcOverride != nil {
		next = *c.pcOverride
		c.pcOverride = nil
		c.jumped = true
	}
	if c.Halted {
		// A syscall handler halted the process (exit / kill).
		c.curOK = false
		return nil
	}
	// Only touch the pointer field when it actually changes: a pointer
	// store pays the GC write barrier, and in straight-line code the
	// cached span is already the current one.
	if c.curOK = !c.jumped && idx+1 < len(span.Instrs); c.curOK {
		if c.curSpan != span {
			c.curSpan = span
		}
		c.curIdx = idx + 1
	}
	c.EIP = next
	return nil
}

// resume consumes the continuation slot before Step fetches: while
// EIP still sits where the run stopped, the hook continues the stopped
// trace. resumed reports that it ran; err is then the guest fault it
// stopped on, if any. The hook refills the slot if this run stops
// early too.
func (c *CPU) resume() (resumed bool, err error) {
	tr := c.Resume.Trace
	c.Resume.Trace = nil
	if c.Resume.PC != c.EIP || c.Hooks.OnTraceSlot == nil {
		return false, nil
	}
	act, err := c.Hooks.OnTraceSlot(c, nil, -1, tr)
	if act != SlotTrace {
		return false, nil
	}
	if err != nil {
		c.Halted = true
	}
	return true, err
}

// Clone duplicates the architectural and taint register state for
// fork(). Memory, shadow and code map are cloned by the caller, which
// owns their lifecycles. A pending Resume is not copied: the child
// enters its code through an ordinary block entry.
func (c *CPU) Clone() *CPU {
	out := &CPU{
		Regs:    c.Regs,
		EIP:     c.EIP,
		ZF:      c.ZF,
		LT:      c.LT,
		Steps:   c.Steps,
		RegTags: c.RegTags,
		Natives: c.Natives,
		Sys:     c.Sys,
		Hooks:   c.Hooks,
		jumped:  true,
	}
	return out
}
