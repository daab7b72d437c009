package harrier

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/taint"
)

// resumeLoop is a copy loop whose whole footprint (the words at ECX and
// ECX+0x10) lies on one page: clean until a test taints it, so its
// trace runs bare under a clean verdict.
func resumeLoop() *isa.Span {
	return isa.NewSpan(0x10000, "resume", []isa.Instr{
		{Op: isa.MOV, A: isa.R(isa.EAX), B: isa.MemBase(isa.ECX, 0)},
		{Op: isa.MOV, A: isa.MemBase(isa.ECX, 0x10), B: isa.R(isa.EAX)},
		{Op: isa.ADD, A: isa.R(isa.ECX), B: isa.Imm(4)},
		{Op: isa.DEC, A: isa.R(isa.ESI)},
		{Op: isa.JNZ, A: isa.Imm(0x10000)},
		{Op: isa.HLT},
	}, nil)
}

// newResumeCPU installs the loop's trace (clean tier armed) and
// returns a CPU entering it, plus an interpreter-tier twin in the same
// state for differential checks.
func newResumeCPU(t *testing.T) (h *Harrier, span *isa.Span, tr *blockTrace, traced, interp *isa.CPU) {
	t.Helper()
	span = resumeLoop()
	h = New(Config{Dataflow: true, BBFrequency: true, PromoteThreshold: 1, CleanThreshold: 1}, nil)
	if tr = h.compileTrace(span, 0, false); tr == nil || !tr.clean.ok {
		t.Fatal("loop did not compile to a clean-eligible trace")
	}
	span.SetBBSummary(0, tr)
	mk := func() *isa.CPU {
		c := isa.NewCPU()
		c.Code.Add(span)
		c.EIP = span.Base
		c.Shadow = taint.NewShadow(h.Store)
		c.Shadow.OnPageFlip(h.onPageFlip)
		bin := h.binTag(span.Image)
		c.Regs[isa.ECX], c.RegTags[isa.ECX] = 0x2000, bin
		c.Regs[isa.ESI], c.RegTags[isa.ESI] = 40, bin
		c.Hooks.OnInstr = h.trackDataFlow
		c.Hooks.OnInstrData = true
		return c
	}
	traced, interp = mk(), mk()
	traced.Hooks.OnBBSummary = h.onBBSummary
	return h, span, tr, traced, interp
}

// stepBudget runs one Step under a TraceBudget, failing on any error.
func stepBudget(t *testing.T, c *isa.CPU, budget int) {
	t.Helper()
	c.TraceBudget = budget
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
}

// stepTo drives the interpreter twin to the traced CPU's step count.
func stepTo(t *testing.T, c *isa.CPU, steps uint64) {
	t.Helper()
	for c.Steps < steps {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTraceStopsMidBlockAndResumes(t *testing.T) {
	_, span, tr, c, _ := newResumeCPU(t)
	stepBudget(t, c, 7) // one whole block plus two instructions
	if c.Steps != 7 || c.EIP != span.Addr(2) {
		t.Fatalf("stop at steps %d eip %#x, want 7 at %#x", c.Steps, c.EIP, span.Addr(2))
	}
	r := c.Resume
	if r.Trace != tr || r.PC != c.EIP || !r.Bare {
		t.Fatalf("continuation = %+v, want a bare stop in the loop trace at %#x", r, c.EIP)
	}
	stepBudget(t, c, 5)
	if c.Steps != 12 || c.EIP != span.Addr(2) {
		t.Fatalf("resume ended at steps %d eip %#x, want 12 at %#x", c.Steps, c.EIP, span.Addr(2))
	}
	if c.Resume.Trace != tr || c.Resume.Mop <= r.Mop {
		t.Fatalf("second stop left continuation %+v after mop %d", c.Resume, r.Mop)
	}
}

func TestSetPCDropsContinuation(t *testing.T) {
	_, span, _, c, _ := newResumeCPU(t)
	stepBudget(t, c, 7)
	if c.Resume.Trace == nil {
		t.Fatal("mid-block stop left no continuation")
	}
	c.SetPC(span.Addr(5))
	if c.Resume.Trace != nil {
		t.Fatal("SetPC kept the continuation")
	}
	// The next Step interprets the one instruction at EIP, then jumps.
	stepBudget(t, c, 100)
	if c.Steps != 8 || c.EIP != span.Addr(5) {
		t.Fatalf("after SetPC: steps %d eip %#x, want 8 at %#x", c.Steps, c.EIP, span.Addr(5))
	}
}

func TestContinuationIgnoredWhenPCMoved(t *testing.T) {
	_, span, _, c, _ := newResumeCPU(t)
	stepBudget(t, c, 7)
	if c.Resume.Trace == nil {
		t.Fatal("mid-block stop left no continuation")
	}
	c.EIP = span.Addr(1) // mid-block, but not where the run stopped
	stepBudget(t, c, 100)
	if c.Steps != 8 || c.EIP != span.Addr(2) {
		t.Fatalf("stale continuation resumed: steps %d eip %#x, want 8 at %#x", c.Steps, c.EIP, span.Addr(2))
	}
	if c.Resume.Trace != nil {
		t.Fatal("stale continuation was not consumed")
	}
}

// TestBareResumeRevalidates: a bare stop continues bare only while the
// shadow's flip generation and the clean epoch both hold. After either
// moves, the resumed run is full-taint — and when taint really arrived
// on the footprint, only that keeps the shadow equal to the
// interpreter's.
func TestBareResumeRevalidates(t *testing.T) {
	for _, tc := range []struct {
		name string
		bare bool // the resume may stay bare
		move func(h *Harrier, c *isa.CPU)
	}{
		{"unchanged", true, func(*Harrier, *isa.CPU) {}},
		{"epoch", false, func(h *Harrier, _ *isa.CPU) { h.cleanEpoch++ }},
		{"flip", false, func(h *Harrier, c *isa.CPU) {
			// External taint lands on the words the loop copies next.
			c.Shadow.SetRange(0x2000, 0x40, h.Store.Of(taint.Source{Type: taint.Socket, Name: "10.0.0.1:99"}))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, _, _, c, ref := newResumeCPU(t)
			stepBudget(t, c, 7)
			if !c.Resume.Bare || h.stats.CleanHits != 2 || h.stats.TraceHits != 0 {
				t.Fatalf("first run: continuation %+v, clean hits %d, trace hits %d; want a bare stop after 2 blocks",
					c.Resume, h.stats.CleanHits, h.stats.TraceHits)
			}
			stepTo(t, ref, c.Steps)
			tc.move(h, c)
			tc.move(h, ref)
			stepBudget(t, c, 5) // the rest of block 2 and the start of block 3
			wantClean, wantTrace := uint64(2), uint64(1)
			if tc.bare {
				wantClean, wantTrace = 3, 0
			}
			if h.stats.CleanHits != wantClean || h.stats.TraceHits != wantTrace {
				t.Fatalf("resume: clean hits %d, trace hits %d; want %d, %d",
					h.stats.CleanHits, h.stats.TraceHits, wantClean, wantTrace)
			}
			for c.EIP != c.Code.Spans()[0].Addr(5) {
				stepBudget(t, c, 13)
			}
			stepTo(t, ref, c.Steps)
			if c.Regs != ref.Regs || c.EIP != ref.EIP || c.RegTags != ref.RegTags {
				t.Fatalf("divergence: traced regs %v tags %v eip %#x, interp regs %v tags %v eip %#x",
					c.Regs, c.RegTags, c.EIP, ref.Regs, ref.RegTags, ref.EIP)
			}
			for a := uint32(0x2000); a < 0x2200; a++ {
				if x, y := c.Shadow.Get(a), ref.Shadow.Get(a); x != y {
					t.Fatalf("shadow at %#x: traced tag%d, interp tag%d", a, x, y)
				}
			}
		})
	}
}

// TestLongHeadBlockTrace: a hot block longer than the trace cap still
// compiles to a trace — its first traceMaxInstrs instructions, ending
// mid-block, where the interpreter carries on without a second block
// entry — and runs bit-identically to the interpreter tier.
func TestLongHeadBlockTrace(t *testing.T) {
	var instrs []isa.Instr
	for k := uint32(0); k < traceMaxInstrs+20; k++ {
		instrs = append(instrs,
			isa.Instr{Op: isa.ADD, A: isa.R(isa.EAX), B: isa.MemBase(isa.ECX, 4*(k%8))},
			isa.Instr{Op: isa.MOV, A: isa.MemBase(isa.ECX, 0x100+4*(k%8)), B: isa.R(isa.EAX)})
	}
	span := isa.NewSpan(0x10000, "long", append(instrs, isa.Instr{Op: isa.HLT}), nil)
	h := New(Config{Dataflow: true, BBFrequency: true, PromoteThreshold: 1}, nil)
	tr := h.compileTrace(span, 0, false)
	if tr == nil || tr.nInstr != traceMaxInstrs || tr.endEIP != span.Addr(traceMaxInstrs) || tr.endJumped {
		t.Fatalf("long head block: trace %+v, want %d instructions ending mid-block", tr, traceMaxInstrs)
	}
	span.SetBBSummary(0, tr)
	src := h.Store.Of(taint.Source{Type: taint.Socket, Name: "10.0.0.1:99"})
	mk := func() *isa.CPU {
		c := isa.NewCPU()
		c.Code.Add(span)
		c.EIP = span.Base
		c.Shadow = taint.NewShadow(h.Store)
		c.Regs[isa.ECX] = 0x2000
		c.Shadow.SetRange(0x2008, 4, src)
		c.Hooks.OnInstr = h.trackDataFlow
		c.Hooks.OnInstrData = true
		return c
	}
	interp, traced := mk(), mk()
	traced.Hooks.OnBBSummary = h.onBBSummary
	for _, c := range []*isa.CPU{interp, traced} {
		for !c.Halted {
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if h.stats.TraceHits != 1 {
		t.Fatalf("trace hits %d, want 1", h.stats.TraceHits)
	}
	if interp.Regs != traced.Regs || interp.Steps != traced.Steps || interp.RegTags != traced.RegTags {
		t.Fatalf("divergence: interp regs %v steps %d tags %v, traced regs %v steps %d tags %v",
			interp.Regs, interp.Steps, interp.RegTags, traced.Regs, traced.Steps, traced.RegTags)
	}
	for a := uint32(0x2000); a < 0x2200; a++ {
		if x, y := interp.Shadow.Get(a), traced.Shadow.Get(a); x != y {
			t.Fatalf("shadow at %#x: interp tag%d, traced tag%d", a, x, y)
		}
	}
}
