package harrier

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/taint"
)

// FuzzSummaryApply is the tiered engine's differential oracle at the
// single-block level: a pseudo-random straight-line block runs once
// under the interpreter tier (per-instruction trackDataFlow) and once
// with its compiled summary pre-applied at block entry, starting from
// the same concrete registers, memory and taint state, against one
// shared tag store. When neither execution faults, the final register
// tags and the shadow bytes over the whole addressable window must be
// identical tag IDs. A mid-block fault voids the comparison by
// design: the process dies and its taint state is unreachable, which
// is exactly the argument that makes whole-block application sound.
func FuzzSummaryApply(f *testing.F) {
	f.Add([]byte{0x02, 0x00, 0x00, 0x10})                         // mov eax, [0x40]
	f.Add([]byte{0x05, 0x09, 0x00, 0x20, 0x02, 0x11, 0x00, 0x08}) // alu + mov mix
	f.Add([]byte{0x14, 0x03, 0x00, 0x00, 0x15, 0x01, 0x00, 0x00}) // push/pop
	f.Add([]byte{0x0d, 0x00, 0x00, 0x00, 0x0e, 0x02, 0x00, 0x00}) // not/neg
	f.Add([]byte{0x16, 0x00, 0x00, 0x00, 0x17, 0x00, 0x00, 0x00}) // cpuid/rdtsc

	f.Fuzz(func(t *testing.T, data []byte) {
		span := buildFuzzSpan(data)
		h := New(Config{Dataflow: true}, nil)

		sum, ok := CompileSummary(h.Store, span, 0)
		if !ok {
			return // pinned shape: interpreter-only, nothing to compare
		}
		if again, ok2 := CompileSummary(h.Store, span, 0); !ok2 || sum.String() != again.String() {
			t.Fatalf("nondeterministic compile:\n--- first\n%s--- second\n%s", sum, again)
		}

		cA := newFuzzCPU(span, h.Store, data)
		cA.Hooks.OnInstr = h.trackDataFlow
		cA.Hooks.OnInstrData = true
		faultA := runToHalt(cA)

		cB := newFuzzCPU(span, h.Store, data)
		h.applyOps(cB, sum.ops)
		faultB := runToHalt(cB)

		if cA.Regs != cB.Regs || faultA != faultB {
			t.Fatalf("concrete divergence: regs %v vs %v, fault %v vs %v",
				cA.Regs, cB.Regs, faultA, faultB)
		}
		if faultA {
			return // over-applied flows are unobservable after a fault
		}
		if cA.RegTags != cB.RegTags {
			t.Fatalf("register tag divergence:\n  block:\n%s  interp: %v\n  summary: %v",
				sum, cA.RegTags, cB.RegTags)
		}
		for addr := uint32(0); addr < 0x3000; addr++ {
			if ta, tb := cA.Shadow.Get(addr), cB.Shadow.Get(addr); ta != tb {
				t.Fatalf("shadow divergence at %#x: interp tag%d, summary tag%d\n  block:\n%s",
					addr, ta, tb, sum)
			}
		}
	})
}

// fuzzOps are the opcodes the generator draws from: every data-moving
// shape the compiler models, minus CALL (ends the block mid-stream).
// DIVOP/MODOP stay in deliberately — their runtime faults exercise the
// fault-voids-comparison path.
var fuzzOps = [...]isa.Op{
	isa.MOV, isa.MOVB, isa.LEA,
	isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
	isa.MUL, isa.DIVOP, isa.MODOP, isa.SHL, isa.SHR,
	isa.NOT, isa.NEG, isa.INC, isa.DEC,
	isa.CMP, isa.TEST, isa.NOP,
	isa.PUSH, isa.POP,
	isa.CPUID, isa.RDTSC,
}

// buildFuzzSpan decodes 4 bytes per instruction into a straight-line
// block ending in HLT. Displacements are kept small so the bulk of
// the traffic stays inside the compared shadow window.
func buildFuzzSpan(data []byte) *isa.Span {
	var instrs []isa.Instr
	for len(data) >= 4 && len(instrs) < 24 {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		data = data[4:]
		in := isa.Instr{Op: fuzzOps[int(b0)%len(fuzzOps)]}
		in.A = fuzzOperand(b1, b3)
		in.B = fuzzOperand(b2, b3>>1)
		instrs = append(instrs, in)
	}
	instrs = append(instrs, isa.Instr{Op: isa.HLT})
	return isa.NewSpan(0x10000, "fuzz", instrs, nil)
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

// runToHalt steps the CPU to completion, reporting whether it died on
// a fault rather than reaching HLT.
func runToHalt(c *isa.CPU) (faulted bool) {
	for i := 0; i < 256; i++ {
		err := c.Step()
		if err == nil {
			continue
		}
		var f *isa.Fault
		if errors.As(err, &f) {
			return true
		}
		return false // ErrHalted: clean HLT
	}
	return false
}
