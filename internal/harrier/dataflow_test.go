package harrier

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/secpert"
	"repro/internal/taint"
)

// dfFixture builds a CPU wired to a Harrier dataflow hook, with two
// pre-tainted registers and a pre-tainted memory word, for direct
// per-instruction propagation tests.
type dfFixture struct {
	h    *Harrier
	cpu  *isa.CPU
	fTag taint.Tag // FILE:"f"
	sTag taint.Tag // SOCKET:"s"
	bTag taint.Tag // BINARY:"test.img" (the span's image)
}

func newDF(t *testing.T) *dfFixture {
	t.Helper()
	sec := secpert.New(secpert.DefaultConfig(), nil)
	h := New(DefaultConfig(), sec)
	cpu := isa.NewCPU()
	cpu.Shadow = taint.NewShadow(h.Store)
	cpu.Hooks.OnInstr = h.trackDataFlow
	cpu.Hooks.OnInstrData = true
	f := &dfFixture{
		h:    h,
		cpu:  cpu,
		fTag: h.Store.Of(taint.Source{Type: taint.File, Name: "f"}),
		sTag: h.Store.Of(taint.Source{Type: taint.Socket, Name: "s"}),
		bTag: h.Store.Of(taint.Source{Type: taint.Binary, Name: "test.img"}),
	}
	cpu.RegTags[isa.ESI] = f.fTag
	cpu.RegTags[isa.EDI] = f.sTag
	cpu.Regs[isa.ESI] = 0x1111
	cpu.Regs[isa.EDI] = 0x2222
	cpu.Regs[isa.ESP] = 0x00100000
	cpu.Mem.Store32(0x5000, 0xABCD)
	cpu.Shadow.SetWord(0x5000, f.fTag)
	return f
}

// run executes the given instructions at a fresh span.
func (f *dfFixture) run(t *testing.T, instrs ...isa.Instr) {
	t.Helper()
	instrs = append(instrs, isa.Instr{Op: isa.HLT})
	f.cpu.Code = isa.NewCodeMap()
	f.cpu.Code.Add(isa.NewSpan(0x1000, "test.img", instrs, nil))
	f.cpu.EIP = 0x1000
	f.cpu.Halted = false
	for !f.cpu.Halted {
		if err := f.cpu.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func (f *dfFixture) regTag(r isa.Reg) taint.Tag { return f.cpu.RegTags[r] }

func TestDFMovRegReg(t *testing.T) {
	f := newDF(t)
	f.run(t, isa.Instr{Op: isa.MOV, A: isa.R(isa.EAX), B: isa.R(isa.ESI)})
	if f.regTag(isa.EAX) != f.fTag {
		t.Error("mov reg,reg did not copy tag")
	}
}

func TestDFMovImmIsBinary(t *testing.T) {
	f := newDF(t)
	f.run(t, isa.Instr{Op: isa.MOV, A: isa.R(isa.EAX), B: isa.Imm(4)})
	if f.regTag(isa.EAX) != f.bTag {
		t.Errorf("immediate tag = %s, want BINARY", f.h.Store.String(f.regTag(isa.EAX)))
	}
}

func TestDFMovMemLoadStore(t *testing.T) {
	f := newDF(t)
	// Load tainted word, store to a new location.
	f.run(t,
		isa.Instr{Op: isa.MOV, A: isa.R(isa.EAX), B: isa.Mem(0x5000)},
		isa.Instr{Op: isa.MOV, A: isa.Mem(0x6000), B: isa.R(isa.EAX)},
	)
	if f.cpu.Shadow.GetWord(0x6000) != f.fTag {
		t.Error("store did not carry tag")
	}
}

func TestDFAluUnion(t *testing.T) {
	f := newDF(t)
	f.run(t, isa.Instr{Op: isa.ADD, A: isa.R(isa.ESI), B: isa.R(isa.EDI)})
	got := f.regTag(isa.ESI)
	want := f.h.Store.Union(f.fTag, f.sTag)
	if got != want {
		t.Errorf("add union = %s", f.h.Store.String(got))
	}
}

func TestDFAluImmAddsBinary(t *testing.T) {
	f := newDF(t)
	f.run(t, isa.Instr{Op: isa.ADD, A: isa.R(isa.ESI), B: isa.Imm(1)})
	if f.regTag(isa.ESI) != f.h.Store.Union(f.fTag, f.bTag) {
		t.Error("add imm did not union BINARY")
	}
}

func TestDFZeroingIdiomsClear(t *testing.T) {
	for _, op := range []isa.Op{isa.XOR, isa.SUB} {
		f := newDF(t)
		f.run(t, isa.Instr{Op: op, A: isa.R(isa.ESI), B: isa.R(isa.ESI)})
		if f.regTag(isa.ESI) != taint.Empty {
			t.Errorf("%v r,r left tag %s", op, f.h.Store.String(f.regTag(isa.ESI)))
		}
	}
}

func TestDFXorDifferentRegsUnions(t *testing.T) {
	f := newDF(t)
	f.run(t, isa.Instr{Op: isa.XOR, A: isa.R(isa.ESI), B: isa.R(isa.EDI)})
	if f.regTag(isa.ESI) != f.h.Store.Union(f.fTag, f.sTag) {
		t.Error("xor r1,r2 should union, not clear")
	}
}

func TestDFIncDecKeepAndAddBinary(t *testing.T) {
	f := newDF(t)
	f.run(t, isa.Instr{Op: isa.INC, A: isa.R(isa.ESI)})
	if f.regTag(isa.ESI) != f.h.Store.Union(f.fTag, f.bTag) {
		t.Error("inc tag wrong")
	}
}

func TestDFNotNegPreserve(t *testing.T) {
	f := newDF(t)
	f.run(t, isa.Instr{Op: isa.NOT, A: isa.R(isa.ESI)})
	if f.regTag(isa.ESI) != f.fTag {
		t.Error("not changed tag")
	}
}

func TestDFPushPop(t *testing.T) {
	f := newDF(t)
	f.run(t,
		isa.Instr{Op: isa.PUSH, A: isa.R(isa.ESI)},
		isa.Instr{Op: isa.POP, A: isa.R(isa.EBX)},
	)
	if f.regTag(isa.EBX) != f.fTag {
		t.Error("push/pop lost tag")
	}
}

func TestDFCallPushesUntaintedReturn(t *testing.T) {
	f := newDF(t)
	// Taint the stack slot first; CALL must clear it for the return
	// address.
	f.cpu.Shadow.SetWord(f.cpu.Regs[isa.ESP]-4, f.sTag)
	f.run(t,
		isa.Instr{Op: isa.CALL, A: isa.Imm(0x1000 + 3*isa.InstrSize)},
		isa.Instr{Op: isa.NOP}, // return lands here
		isa.Instr{Op: isa.HLT},
		isa.Instr{Op: isa.RET}, // the called routine
	)
	// After ret, the slot below ESP held the (untainted) return addr.
	if f.cpu.Shadow.GetWord(f.cpu.Regs[isa.ESP]-4) != taint.Empty {
		t.Error("return address slot tainted")
	}
}

// has reports whether the set named by t has a source of type typ.
func (f *dfFixture) has(t taint.Tag, typ taint.SourceType) bool {
	for _, s := range f.h.Store.Sources(t) {
		if s.Type == typ {
			return true
		}
	}
	return false
}

func TestDFCPUIDHardware(t *testing.T) {
	f := newDF(t)
	f.run(t, isa.Instr{Op: isa.CPUID})
	for _, r := range []isa.Reg{isa.EAX, isa.EBX, isa.ECX, isa.EDX} {
		if !f.has(f.regTag(r), taint.Hardware) {
			t.Errorf("cpuid %v missing HARDWARE", r)
		}
	}
}

func TestDFRDTSCHardware(t *testing.T) {
	f := newDF(t)
	f.run(t, isa.Instr{Op: isa.RDTSC})
	if !f.has(f.regTag(isa.EAX), taint.Hardware) ||
		!f.has(f.regTag(isa.EDX), taint.Hardware) {
		t.Error("rdtsc outputs missing HARDWARE")
	}
}

func TestDFLEAUnionsBase(t *testing.T) {
	f := newDF(t)
	f.run(t, isa.Instr{Op: isa.LEA, A: isa.R(isa.EAX), B: isa.MemBase(isa.ESI, 4)})
	got := f.regTag(isa.EAX)
	if !f.has(got, taint.File) || !f.has(got, taint.Binary) {
		t.Errorf("lea tag = %s", f.h.Store.String(got))
	}
}

func TestDFMovbByteGranularity(t *testing.T) {
	f := newDF(t)
	// Taint one byte; movb of a *different* byte must stay clean.
	f.cpu.Shadow.Set(0x7000, f.fTag)
	f.run(t,
		isa.Instr{Op: isa.MOVB, A: isa.R(isa.EAX), B: isa.Mem(0x7001)},
	)
	if f.regTag(isa.EAX) != taint.Empty {
		t.Error("movb picked up a neighbouring byte's tag")
	}
	f2 := newDF(t)
	f2.cpu.Shadow.Set(0x7000, f2.fTag)
	f2.run(t,
		isa.Instr{Op: isa.MOVB, A: isa.R(isa.EAX), B: isa.Mem(0x7000)},
		isa.Instr{Op: isa.MOVB, A: isa.Mem(0x7005), B: isa.R(isa.EAX)},
	)
	if f2.cpu.Shadow.Get(0x7005) != f2.fTag {
		t.Error("movb store lost tag")
	}
	if f2.cpu.Shadow.Get(0x7006) != taint.Empty {
		t.Error("movb store bled into the next byte")
	}
}

func TestDFControlFlowNotTracked(t *testing.T) {
	// CMP/TEST and jumps must not move any taint (implicit flows are
	// out of scope, paper §7.3 footnote 7).
	f := newDF(t)
	f.run(t,
		isa.Instr{Op: isa.CMP, A: isa.R(isa.ESI), B: isa.R(isa.EDI)},
		isa.Instr{Op: isa.TEST, A: isa.R(isa.ESI), B: isa.R(isa.EDI)},
	)
	if f.regTag(isa.ESI) != f.fTag || f.regTag(isa.EDI) != f.sTag {
		t.Error("cmp/test modified tags")
	}
}

func TestDFStatsCount(t *testing.T) {
	f := newDF(t)
	f.run(t,
		isa.Instr{Op: isa.MOV, A: isa.R(isa.EAX), B: isa.Imm(1)},
		isa.Instr{Op: isa.NOP},
	)
	// Instructions counted: only the mov — nop and the closing hlt have
	// no tracked dataflow, so the opcode filter skips the hook for them.
	if f.h.Stats().Instructions != 1 {
		t.Errorf("instr stat = %d", f.h.Stats().Instructions)
	}
}
