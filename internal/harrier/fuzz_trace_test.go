package harrier

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/taint"
)

// FuzzTraceApply is the trace tier's differential oracle at the
// multi-block level: a pseudo-random program with conditional and
// unconditional branches runs once under the interpreter tier and once
// with superblock traces compiled at every leader, from the same
// concrete and taint state against one shared tag store. Both runs are
// driven in scheduler slices of 1–40 instructions (the length comes
// from the input), so a trace's budget stops — mid-block ones included
// — and the resumes that continue them land on the comparison path
// next to its side exits and fault exits. Registers, EIP, flags,
// retired steps and the fault verdict must always match; register tags
// and the shadow window must match whenever the program did not die
// mid-flight.
func FuzzTraceApply(f *testing.F) {
	// A countdown loop: mov ecx,8; dec ecx; jnz back — the classic
	// backward-predicted superblock with one final mispredict.
	f.Add([]byte{
		0x00, 0x09, 0x48, 0x08, // mov ecx, 8<<2... (generator-decoded)
		0x10, 0x01, 0x00, 0x00,
		0x19, 0x00, 0x00, 0x01,
	})
	f.Add([]byte{0x02, 0x00, 0x00, 0x10, 0x18, 0x00, 0x00, 0x00})                         // mov + jmp
	f.Add([]byte{0x05, 0x09, 0x00, 0x20, 0x1a, 0x05, 0x00, 0x08})                         // alu + jz fwd
	f.Add([]byte{0x14, 0x03, 0x00, 0x00, 0x15, 0x01, 0x00, 0x00})                         // push/pop
	f.Add([]byte{0x09, 0x11, 0x00, 0x00, 0x16, 0x00, 0x00, 0x00, 0x1b, 0x02, 0x00, 0x00}) // div + cpuid + jcc

	f.Fuzz(func(t *testing.T, data []byte) {
		span := buildFuzzSpan(data, traceFuzzOps)
		h := New(Config{Dataflow: true}, nil)
		if installTraces(h, span) == 0 {
			return // nothing traceable: the comparison would be vacuous
		}
		compareTraced(t, h, span, data)
	})
}

// FuzzStraightLineTrace is the single-block oracle: a pseudo-random
// straight-line block — no control transfers, so every mutation goes
// to the data-flow transfer rather than to branch shapes — compiles to
// one trace at its entry, twice to a deep-equal trace, and then runs
// under the interpreter tier and through that trace exactly as
// FuzzTraceApply's programs do.
func FuzzStraightLineTrace(f *testing.F) {
	f.Add([]byte{0x02, 0x00, 0x00, 0x10})                         // lea
	f.Add([]byte{0x05, 0x09, 0x00, 0x20, 0x02, 0x11, 0x00, 0x08}) // alu + lea
	f.Add([]byte{0x14, 0x03, 0x00, 0x00, 0x15, 0x01, 0x00, 0x00}) // push/pop
	f.Add([]byte{0x0d, 0x00, 0x00, 0x00, 0x0e, 0x02, 0x00, 0x00}) // not/neg
	f.Add([]byte{0x16, 0x00, 0x00, 0x00, 0x17, 0x00, 0x00, 0x00}) // cpuid/rdtsc

	f.Fuzz(func(t *testing.T, data []byte) {
		span := buildFuzzSpan(data, straightFuzzOps)
		h := New(Config{Dataflow: true}, nil)
		tr := h.compileTrace(span, 0, false)
		if tr == nil {
			return // pinned head: interpreter-only, nothing to compare
		}
		if again := h.compileTrace(span, 0, false); !reflect.DeepEqual(tr, again) {
			t.Fatalf("nondeterministic trace compile:\n  first:  %+v\n  second: %+v", tr, again)
		}
		span.SetBBSummary(0, tr)
		compareTraced(t, h, span, data)
	})
}

// compareTraced runs span from data's initial state once under the
// interpreter tier and once with the traces installed in span, both in
// scheduler slices whose length comes from data's last byte, and fails
// t on any concrete divergence, or on a taint divergence when the run
// did not fault.
func compareTraced(t *testing.T, h *Harrier, span *isa.Span, data []byte) {
	t.Helper()
	const bound = 4096
	slice := 1 + int(data[len(data)-1])%40
	cA := newFuzzCPU(span, h.Store, data)
	cA.Hooks.OnInstr = h.trackDataFlow
	cA.Hooks.OnInstrData = true
	faultA := runBudgeted(cA, span, bound, slice)

	cB := newFuzzCPU(span, h.Store, data)
	cB.Hooks.OnInstr = h.trackDataFlow
	cB.Hooks.OnInstrData = true
	cB.Hooks.OnBBSummary = h.onBBSummary
	faultB := runBudgeted(cB, span, bound, slice)

	if cA.Regs != cB.Regs || cA.EIP != cB.EIP || cA.Steps != cB.Steps ||
		cA.ZF != cB.ZF || cA.LT != cB.LT || faultA != faultB {
		t.Fatalf("concrete divergence:\n  interp: regs %v eip %#x steps %d zf %v lt %v fault %v\n"+
			"  trace:  regs %v eip %#x steps %d zf %v lt %v fault %v",
			cA.Regs, cA.EIP, cA.Steps, cA.ZF, cA.LT, faultA,
			cB.Regs, cB.EIP, cB.Steps, cB.ZF, cB.LT, faultB)
	}
	if faultA {
		return // over-applied flows are unobservable after a fault
	}
	if cA.RegTags != cB.RegTags {
		t.Fatalf("register tag divergence: interp %v, trace %v", cA.RegTags, cB.RegTags)
	}
	for addr := uint32(0); addr < 0x3000; addr++ {
		if ta, tb := cA.Shadow.Get(addr), cB.Shadow.Get(addr); ta != tb {
			t.Fatalf("shadow divergence at %#x: interp tag%d, trace tag%d", addr, ta, tb)
		}
	}
}

// installTraces compiles a trace at every leader that yields one and
// installs it, exactly as the tier state machine would after
// promotion, returning how many it installed.
func installTraces(h *Harrier, span *isa.Span) int {
	installed := 0
	for i := range span.Instrs {
		if span.BBLeader[i] != i {
			continue
		}
		if tr := h.compileTrace(span, i, false); tr != nil {
			span.SetBBSummary(i, tr)
			installed++
		}
	}
	return installed
}

// straightFuzzOps is the straight-line generator's op set: every
// data-moving shape the compiler models (minus CALL, which ends a
// trace), compares and NOP. DIVOP/MODOP stay in deliberately — their
// runtime faults exercise the fault exits.
var straightFuzzOps = []isa.Op{
	isa.MOV, isa.MOVB, isa.LEA,
	isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
	isa.MUL, isa.DIVOP, isa.MODOP, isa.SHL, isa.SHR,
	isa.NOT, isa.NEG, isa.INC, isa.DEC,
	isa.CMP, isa.TEST, isa.NOP,
	isa.PUSH, isa.POP,
	isa.CPUID, isa.RDTSC,
}

// traceFuzzOps adds the control transfers the trace compiler chains
// across (or side-exits through): every conditional jump plus JMP.
var traceFuzzOps = append(straightFuzzOps[:len(straightFuzzOps):len(straightFuzzOps)],
	isa.JMP, isa.JZ, isa.JNZ, isa.JL, isa.JLE, isa.JG, isa.JGE)

// buildFuzzSpan decodes 4 bytes per instruction, drawn from ops, into
// a program ending in HLT. Branch targets land on real instruction
// slots (occasionally one past the end, exercising the out-of-span
// exit), so with traceFuzzOps programs form loops, diamonds and skips;
// with straightFuzzOps they are one straight-line block.
func buildFuzzSpan(data []byte, ops []isa.Op) *isa.Span {
	n := len(data) / 4
	if n > 24 {
		n = 24
	}
	var instrs []isa.Instr
	for k := 0; k < n; k++ {
		b0, b1, b2, b3 := data[k*4], data[k*4+1], data[k*4+2], data[k*4+3]
		op := ops[int(b0)%len(ops)]
		in := isa.Instr{Op: op}
		if op.IsControlTransfer() {
			target := uint32(0x10000) + uint32(int(b1)%(n+1))*isa.InstrSize
			in.A = isa.Imm(target)
		} else {
			in.A = fuzzOperand(b1, b3)
			in.B = fuzzOperand(b2, b3>>1)
		}
		instrs = append(instrs, in)
	}
	instrs = append(instrs, isa.Instr{Op: isa.HLT})
	return isa.NewSpan(0x10000, "fuzz", instrs, nil)
}

// runBudgeted drives the CPU the way vos.Run does: in slices of
// `slice` instructions, each Step seeing the slice's remainder in
// TraceBudget, so a trace can never retire past a slice end or the
// bound. After the bound it finishes the current block one instruction
// at a time, so both runs stop at a block boundary.
func runBudgeted(c *isa.CPU, span *isa.Span, bound uint64, slice int) (faulted bool) {
	step := func() (stop, faulted bool) {
		err := c.Step()
		if err == nil {
			return false, false
		}
		var f *isa.Fault
		return true, errors.As(err, &f) // non-fault err is a clean HLT
	}
	for c.Steps < bound {
		n := slice
		if rem := int(bound - c.Steps); rem < n {
			n = rem
		}
		for ran := 0; ran < n; {
			c.TraceBudget = n - ran
			before := c.Steps
			if stop, faulted := step(); stop {
				return faulted
			}
			ran += int(c.Steps - before)
		}
	}
	c.TraceBudget = 1
	for extra := 0; extra < 64; extra++ {
		if !span.Contains(c.EIP) {
			break
		}
		if idx := span.Index(c.EIP); span.BBLeader[idx] == idx {
			break // block boundary: comparison-valid stop
		}
		if stop, faulted := step(); stop {
			return faulted
		}
	}
	return false
}

// fuzzOperand decodes one operand: register, small immediate,
// absolute memory, or base+displacement memory.
func fuzzOperand(sel, disp byte) isa.Operand {
	r := isa.Reg(sel & 7)
	switch (sel >> 3) & 3 {
	case 0:
		return isa.R(r)
	case 1:
		return isa.Imm(uint32(disp) << 2)
	case 2:
		return isa.Operand{Kind: isa.MemOperand, Imm: 0x400 + uint32(disp)<<2}
	}
	return isa.Operand{Kind: isa.MemOperand, Reg: r, HasBase: true, Imm: uint32(disp) << 2}
}

// newFuzzCPU builds a CPU at the span's entry with a deterministic
// initial state derived from the fuzz input: small register values
// (so memory operands stay near the compared window), a sane stack
// pointer, and a few seeded register and shadow tags.
func newFuzzCPU(span *isa.Span, st *taint.Store, data []byte) *isa.CPU {
	c := isa.NewCPU()
	c.Code.Add(span)
	c.EIP = span.Base
	c.Shadow = taint.NewShadow(st)

	t1 := st.Of(taint.Source{Type: taint.UserInput, Name: "stdin"})
	t2 := st.Of(taint.Source{Type: taint.Socket, Name: "10.0.0.1:99"})
	tags := [4]taint.Tag{taint.Empty, t1, t2, st.Union(t1, t2)}

	var seed byte
	for _, b := range data {
		seed ^= b
	}
	for r := 0; r < int(isa.NumRegs); r++ {
		c.Regs[r] = uint32(seed^byte(r*37)) << 3 // < 0x800
		c.RegTags[r] = tags[(int(seed)+r)>>1&3]
	}
	c.Regs[isa.ESP] = 0x2800
	c.RegTags[isa.ESP] = taint.Empty
	for i := uint32(0); i < 8; i++ {
		c.Shadow.SetWord(0x400+i*4, tags[(uint32(seed)+i)&3])
		c.Mem.Store32(0x400+i*4, 0x11111111*i)
	}
	return c
}
