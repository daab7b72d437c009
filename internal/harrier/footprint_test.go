package harrier

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/taint"
)

// runFootprintPair runs span from its base under the interpreter tier
// and with the trace at leader 0 installed (clean tier armed), from the
// same registers and shadow (registers listed in regs carry the
// binary's tag, taint covers [taintAt, taintAt+taintLen)), and fails on
// any register, register-tag or shadow difference.
func runFootprintPair(t *testing.T, span *isa.Span, regs map[isa.Reg]uint32, taintAt, taintLen uint32) (h *Harrier, tr *blockTrace) {
	t.Helper()
	h = New(Config{Dataflow: true, BBFrequency: true, PromoteThreshold: 1, CleanThreshold: 1}, nil)
	if tr = h.compileTrace(span, 0, false); tr == nil || !tr.clean.ok {
		t.Fatalf("trace %+v is not clean-eligible", tr)
	}
	span.SetBBSummary(0, tr)
	src := h.Store.Of(taint.Source{Type: taint.Socket, Name: "10.0.0.1:99"})
	bin := h.binTag(span.Image)
	mk := func() *isa.CPU {
		c := isa.NewCPU()
		c.Code.Add(span)
		c.EIP = span.Base
		c.Shadow = taint.NewShadow(h.Store)
		c.Shadow.OnPageFlip(h.onPageFlip)
		for r, v := range regs {
			c.Regs[r], c.RegTags[r] = v, bin
		}
		if taintLen > 0 {
			c.Shadow.SetRange(taintAt, taintLen, src)
		}
		c.Hooks.OnInstr = h.trackDataFlow
		c.Hooks.OnInstrData = true
		return c
	}
	interp, traced := mk(), mk()
	traced.Hooks.OnBBSummary = h.onBBSummary
	for _, c := range []*isa.CPU{interp, traced} {
		for i := 0; i < 4096 && !c.Halted; i++ {
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if interp.Regs != traced.Regs || interp.RegTags != traced.RegTags {
		t.Fatalf("divergence: interp regs %v tags %v, traced regs %v tags %v",
			interp.Regs, interp.RegTags, traced.Regs, traced.RegTags)
	}
	for _, r := range [][2]uint32{{0x1000, 0x5000}, {0x100000, 0x104000}} {
		for a := r[0]; a < r[1]; a++ {
			if x, y := interp.Shadow.Get(a), traced.Shadow.Get(a); x != y {
				t.Fatalf("shadow at %#x: interp tag%d, traced tag%d", a, x, y)
			}
		}
	}
	return h, tr
}

// TestFootprintBelowBase: a trace reading both below and at its base
// register's entry value covers the page below when the base sits
// just past a page boundary, so taint there keeps it instrumented;
// with both pages clean it runs bare.
func TestFootprintBelowBase(t *testing.T) {
	span := func() *isa.Span {
		return isa.NewSpan(0x10000, "below", []isa.Instr{
			{Op: isa.MOV, A: isa.R(isa.EBX), B: isa.MemBase(isa.ECX, 0xFFFFFFFC)}, // [ecx-4]
			{Op: isa.MOV, A: isa.R(isa.EAX), B: isa.MemBase(isa.ECX, 0)},
			{Op: isa.HLT},
		}, nil)
	}
	// ecx-4 is 0x2ffe, on the page below ecx's.
	regs := map[isa.Reg]uint32{isa.ECX: 0x3002}
	for _, tc := range []struct {
		taintLen  uint32 // bytes tainted from 0x2ffe, all on the page below
		cleanHits uint64
		traceHits uint64
	}{{0, 1, 0}, {2, 0, 1}} {
		h, _ := runFootprintPair(t, span(), regs, 0x2ffe, tc.taintLen)
		if h.stats.CleanHits != tc.cleanHits || h.stats.TraceHits != tc.traceHits {
			t.Fatalf("%d tainted bytes: clean hits %d, trace hits %d; want %d, %d",
				tc.taintLen, h.stats.CleanHits, h.stats.TraceHits, tc.cleanHits, tc.traceHits)
		}
	}
}

// TestFootprintSplitsFarAccesses: a trace whose pointers are
// constants reaches two regions 1 MiB apart through absolute
// addresses; each region gets its own footprint interval, so the
// trace runs bare while both are clean and instrumented once taint
// sits on either.
func TestFootprintSplitsFarAccesses(t *testing.T) {
	span := func() *isa.Span {
		return isa.NewSpan(0x10000, "far", []isa.Instr{
			{Op: isa.MOV, A: isa.R(isa.ECX), B: isa.Imm(0x1000)},
			{Op: isa.MOV, A: isa.R(isa.EDX), B: isa.Imm(0x101000)},
			{Op: isa.MOV, A: isa.R(isa.EAX), B: isa.MemBase(isa.ECX, 0)}, // loop
			{Op: isa.MOV, A: isa.MemBase(isa.EDX, 0), B: isa.R(isa.EAX)},
			{Op: isa.ADD, A: isa.R(isa.ECX), B: isa.Imm(4)},
			{Op: isa.ADD, A: isa.R(isa.EDX), B: isa.Imm(4)},
			{Op: isa.DEC, A: isa.R(isa.ESI)},
			{Op: isa.JNZ, A: isa.Imm(0x10008)},
			{Op: isa.HLT},
		}, nil)
	}
	regs := map[isa.Reg]uint32{isa.ECX: 0, isa.EDX: 0, isa.ESI: 8}
	h, tr := runFootprintPair(t, span(), regs, 0, 0)
	if len(tr.clean.fp) != 2 || h.stats.CleanHits == 0 {
		t.Fatalf("footprint %v, clean hits %d; want two intervals and a bare run", tr.clean.fp, h.stats.CleanHits)
	}
	for _, at := range []uint32{0x1008, 0x101008} {
		h, _ := runFootprintPair(t, span(), regs, at, 4)
		if h.stats.CleanHits != 0 {
			t.Fatalf("taint at %#x: clean hits %d, want 0", at, h.stats.CleanHits)
		}
	}
}
