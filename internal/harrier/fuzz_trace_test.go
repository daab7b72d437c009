package harrier

import (
	"errors"
	"testing"

	"repro/internal/isa"
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
		span := buildTraceFuzzSpan(data)
		h := New(Config{Dataflow: true}, nil)

		// Compile a trace at every leader that yields one and install it,
		// exactly as the tier state machine would after promotion, with
		// the block's real compiled summary as its head.
		installed := 0
		for i := range span.Instrs {
			if span.BBLeader[i] != i {
				continue
			}
			sum, ok := compileBlock(h.Store, span, i, h.binTag(span.Image), h.hwTag)
			if !ok {
				continue // unsummarizable blocks never reach the trace tier
			}
			head := &blockSummary{
				Summary: *sum,
				owner:   h,
				ctr:     new(int64),
				key:     bbKey{span.Image, span.Addr(i)},
			}
			if tr := h.compileTrace(span, i, head); tr != nil {
				span.SetBBSummary(i, tr)
				installed++
			}
		}
		if installed == 0 {
			return // nothing traceable: the comparison would be vacuous
		}

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
	})
}

// traceFuzzOps extends the straight-line generator's op set with the
// control transfers the trace compiler chains across (or side-exits
// through): every conditional jump plus JMP.
var traceFuzzOps = [...]isa.Op{
	isa.MOV, isa.MOVB, isa.LEA,
	isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
	isa.MUL, isa.DIVOP, isa.MODOP, isa.SHL, isa.SHR,
	isa.NOT, isa.NEG, isa.INC, isa.DEC,
	isa.CMP, isa.TEST, isa.NOP,
	isa.PUSH, isa.POP,
	isa.CPUID, isa.RDTSC,
	isa.JMP, isa.JZ, isa.JNZ, isa.JL, isa.JLE, isa.JG, isa.JGE,
}

// buildTraceFuzzSpan decodes 4 bytes per instruction into a
// multi-block program ending in HLT. Branch targets land on real
// instruction slots (occasionally one past the end, exercising the
// out-of-span exit), so programs form loops, diamonds and skips.
func buildTraceFuzzSpan(data []byte) *isa.Span {
	n := len(data) / 4
	if n > 24 {
		n = 24
	}
	var instrs []isa.Instr
	for k := 0; k < n; k++ {
		b0, b1, b2, b3 := data[k*4], data[k*4+1], data[k*4+2], data[k*4+3]
		op := traceFuzzOps[int(b0)%len(traceFuzzOps)]
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
// at a time — across tiers, taint state is only comparable at block
// boundaries, because the summary tier applies a block's whole
// transfer atomically at entry (a quantum expiring mid-block leaves it
// legitimately ahead of the interpreter until the block completes,
// just as under vos.Run).
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
