package isa

import (
	"errors"
	"fmt"
	"testing"
)

// runProgram executes instrs starting at base until the CPU halts or
// maxSteps elapse, returning the CPU for inspection.
func runProgram(t *testing.T, instrs []Instr) *CPU {
	t.Helper()
	c := NewCPU()
	c.Code.Add(NewSpan(0x1000, "test", instrs, nil))
	c.EIP = 0x1000
	c.Regs[ESP] = 0x00100000
	for i := 0; i < 10000 && !c.Halted; i++ {
		if err := c.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if !c.Halted {
		t.Fatal("program did not halt")
	}
	return c
}

func TestMovImmediate(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: MOV, A: R(EAX), B: Imm(42)},
		{Op: HLT},
	})
	if c.Regs[EAX] != 42 {
		t.Errorf("eax = %d", c.Regs[EAX])
	}
}

func TestMovRegToReg(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: MOV, A: R(EAX), B: Imm(7)},
		{Op: MOV, A: R(EBX), B: R(EAX)},
		{Op: HLT},
	})
	if c.Regs[EBX] != 7 {
		t.Errorf("ebx = %d", c.Regs[EBX])
	}
}

func TestMovMemory(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: MOV, A: R(EAX), B: Imm(0xCAFE)},
		{Op: MOV, A: Mem(0x2000), B: R(EAX)},
		{Op: MOV, A: R(EBX), B: Mem(0x2000)},
		{Op: HLT},
	})
	if c.Regs[EBX] != 0xCAFE {
		t.Errorf("ebx = %#x", c.Regs[EBX])
	}
}

func TestMovBaseDisplacement(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: MOV, A: R(ESI), B: Imm(0x3000)},
		{Op: MOV, A: MemBase(ESI, 8), B: Imm(0x1234)},
		{Op: MOV, A: R(EAX), B: Mem(0x3008)},
		{Op: HLT},
	})
	if c.Regs[EAX] != 0x1234 {
		t.Errorf("eax = %#x", c.Regs[EAX])
	}
}

func TestMovByte(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: MOV, A: R(EAX), B: Imm(0xAABBCCDD)},
		{Op: MOVB, A: Mem(0x2000), B: R(EAX)},
		{Op: MOV, A: R(EBX), B: Mem(0x2000)},
		// movb into a register replaces only the low byte
		{Op: MOV, A: R(ECX), B: Imm(0xFFFF0000)},
		{Op: MOVB, A: R(ECX), B: Imm(0x42)},
		{Op: HLT},
	})
	if c.Regs[EBX] != 0xDD {
		t.Errorf("byte store leaked: ebx = %#x", c.Regs[EBX])
	}
	if c.Regs[ECX] != 0xFFFF0042 {
		t.Errorf("byte reg write: ecx = %#x", c.Regs[ECX])
	}
}

func TestLEA(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: MOV, A: R(EBX), B: Imm(0x100)},
		{Op: LEA, A: R(EAX), B: MemBase(EBX, 0x20)},
		{Op: HLT},
	})
	if c.Regs[EAX] != 0x120 {
		t.Errorf("lea = %#x", c.Regs[EAX])
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint32
		want uint32
	}{
		{ADD, 5, 3, 8},
		{SUB, 5, 3, 2},
		{AND, 0xF0, 0xFF, 0xF0},
		{OR, 0xF0, 0x0F, 0xFF},
		{XOR, 0xFF, 0x0F, 0xF0},
		{MUL, 6, 7, 42},
		{DIVOP, 42, 5, 8},
		{MODOP, 42, 5, 2},
		{SHL, 1, 4, 16},
		{SHR, 16, 4, 1},
		{SUB, 3, 5, 0xFFFFFFFE}, // wraparound
	}
	for _, tc := range cases {
		c := runProgram(t, []Instr{
			{Op: MOV, A: R(EAX), B: Imm(tc.a)},
			{Op: tc.op, A: R(EAX), B: Imm(tc.b)},
			{Op: HLT},
		})
		if c.Regs[EAX] != tc.want {
			t.Errorf("%v %d,%d = %d, want %d", tc.op, tc.a, tc.b, c.Regs[EAX], tc.want)
		}
	}
}

func TestUnaryOps(t *testing.T) {
	cases := []struct {
		op   Op
		a    uint32
		want uint32
	}{
		{NOT, 0, 0xFFFFFFFF},
		{NEG, 1, 0xFFFFFFFF},
		{INC, 41, 42},
		{DEC, 43, 42},
	}
	for _, tc := range cases {
		c := runProgram(t, []Instr{
			{Op: MOV, A: R(EAX), B: Imm(tc.a)},
			{Op: tc.op, A: R(EAX)},
			{Op: HLT},
		})
		if c.Regs[EAX] != tc.want {
			t.Errorf("%v %d = %d, want %d", tc.op, tc.a, c.Regs[EAX], tc.want)
		}
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	c := NewCPU()
	c.Code.Add(NewSpan(0x1000, "t", []Instr{
		{Op: MOV, A: R(EAX), B: Imm(1)},
		{Op: DIVOP, A: R(EAX), B: Imm(0)},
	}, nil))
	c.EIP = 0x1000
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	err := c.Step()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want Fault, got %v", err)
	}
	if f.PC != 0x1004 {
		t.Errorf("fault PC = %#x", f.PC)
	}
}

func TestConditionalJumps(t *testing.T) {
	// For each comparison, run: cmp a, b ; jcc taken ; mov eax, 0 ;
	// hlt ; taken: mov eax, 1 ; hlt
	mk := func(jcc Op, a, b uint32) uint32 {
		c := runProgram(t, []Instr{
			{Op: MOV, A: R(ECX), B: Imm(a)},
			{Op: CMP, A: R(ECX), B: Imm(b)},
			{Op: jcc, A: Imm(0x1000 + 5*InstrSize)},
			{Op: MOV, A: R(EAX), B: Imm(0)},
			{Op: HLT},
			{Op: MOV, A: R(EAX), B: Imm(1)},
			{Op: HLT},
		})
		return c.Regs[EAX]
	}
	type tc struct {
		op    Op
		a, b  uint32
		taken uint32
	}
	neg2 := uint32(0xFFFFFFFE) // -2 signed
	cases := []tc{
		{JZ, 5, 5, 1}, {JZ, 5, 6, 0},
		{JNZ, 5, 6, 1}, {JNZ, 5, 5, 0},
		{JL, 3, 5, 1}, {JL, 5, 3, 0}, {JL, neg2, 1, 1},
		{JLE, 5, 5, 1}, {JLE, 6, 5, 0},
		{JG, 5, 3, 1}, {JG, 3, 5, 0}, {JG, 1, neg2, 1},
		{JGE, 5, 5, 1}, {JGE, 4, 5, 0},
	}
	for _, c := range cases {
		if got := mk(c.op, c.a, c.b); got != c.taken {
			t.Errorf("%v with %d,%d: taken=%d, want %d", c.op, c.a, c.b, got, c.taken)
		}
	}
}

func TestUnconditionalJmp(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: JMP, A: Imm(0x1000 + 2*InstrSize)},
		{Op: MOV, A: R(EAX), B: Imm(99)}, // skipped
		{Op: HLT},
	})
	if c.Regs[EAX] != 0 {
		t.Error("jmp did not skip")
	}
}

func TestJmpIndirectRegister(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: MOV, A: R(EAX), B: Imm(0x1000 + 3*InstrSize)},
		{Op: JMP, A: R(EAX)},
		{Op: MOV, A: R(EBX), B: Imm(1)}, // skipped
		{Op: HLT},
	})
	if c.Regs[EBX] != 0 {
		t.Error("indirect jmp failed")
	}
}

func TestPushPop(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: PUSH, A: Imm(0x11)},
		{Op: PUSH, A: Imm(0x22)},
		{Op: POP, A: R(EAX)},
		{Op: POP, A: R(EBX)},
		{Op: HLT},
	})
	if c.Regs[EAX] != 0x22 || c.Regs[EBX] != 0x11 {
		t.Errorf("LIFO violated: %#x %#x", c.Regs[EAX], c.Regs[EBX])
	}
	if c.Regs[ESP] != 0x00100000 {
		t.Errorf("esp not restored: %#x", c.Regs[ESP])
	}
}

func TestCallRet(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: CALL, A: Imm(0x1000 + 3*InstrSize)}, // call f
		{Op: MOV, A: R(EBX), B: Imm(5)},          // after return
		{Op: HLT},
		{Op: MOV, A: R(EAX), B: Imm(9)}, // f:
		{Op: RET},
	})
	if c.Regs[EAX] != 9 || c.Regs[EBX] != 5 {
		t.Errorf("call/ret: eax=%d ebx=%d", c.Regs[EAX], c.Regs[EBX])
	}
}

func TestCPUIDAndRDTSC(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: CPUID},
		{Op: HLT},
	})
	if c.Regs[EAX] == 0 || c.Regs[EBX] == 0 || c.Regs[ECX] == 0 || c.Regs[EDX] == 0 {
		t.Error("cpuid left zero registers")
	}
	c2 := runProgram(t, []Instr{
		{Op: NOP}, {Op: NOP},
		{Op: RDTSC},
		{Op: HLT},
	})
	if c2.Regs[EAX] != 3 {
		t.Errorf("rdtsc = %d, want 3 (steps including itself)", c2.Regs[EAX])
	}
}

type fakeOS struct {
	calls []uint32
	fn    func(c *CPU)
}

func (f *fakeOS) Syscall(c *CPU) {
	f.calls = append(f.calls, c.Regs[EAX])
	if f.fn != nil {
		f.fn(c)
	}
}

func TestIntInvokesSyscall(t *testing.T) {
	os := &fakeOS{fn: func(c *CPU) { c.Regs[EAX] = 123 }}
	c := NewCPU()
	c.Sys = os
	c.Code.Add(NewSpan(0x1000, "t", []Instr{
		{Op: MOV, A: R(EAX), B: Imm(4)},
		{Op: INT, A: Imm(0x80)},
		{Op: HLT},
	}, nil))
	c.EIP = 0x1000
	c.Regs[ESP] = 0x100000
	for !c.Halted {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(os.calls) != 1 || os.calls[0] != 4 {
		t.Errorf("syscalls = %v", os.calls)
	}
	if c.Regs[EAX] != 123 {
		t.Error("syscall result not visible")
	}
}

func TestIntWithoutOSFaults(t *testing.T) {
	c := NewCPU()
	c.Code.Add(NewSpan(0x1000, "t", []Instr{{Op: INT, A: Imm(0x80)}}, nil))
	c.EIP = 0x1000
	if err := c.Step(); err == nil {
		t.Error("int without OS did not fault")
	}
}

func TestSyscallSetPC(t *testing.T) {
	os := &fakeOS{}
	os.fn = func(c *CPU) { c.SetPC(0x1000 + 3*InstrSize) }
	c := NewCPU()
	c.Sys = os
	c.Code.Add(NewSpan(0x1000, "t", []Instr{
		{Op: INT, A: Imm(0x80)},
		{Op: MOV, A: R(EAX), B: Imm(1)}, // skipped by SetPC
		{Op: HLT},
		{Op: MOV, A: R(EBX), B: Imm(2)},
		{Op: HLT},
	}, nil))
	c.EIP = 0x1000
	c.Regs[ESP] = 0x100000
	for !c.Halted {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Regs[EAX] != 0 || c.Regs[EBX] != 2 {
		t.Errorf("SetPC not honored: eax=%d ebx=%d", c.Regs[EAX], c.Regs[EBX])
	}
}

func TestNativeRoutine(t *testing.T) {
	c := NewCPU()
	c.Natives = []Native{{Name: "magic", Fn: func(c *CPU) { c.Regs[EAX] = 77 }}}
	var pre, post []string
	c.Hooks.OnNativePre = func(_ *CPU, n string) { pre = append(pre, n) }
	c.Hooks.OnNativePost = func(_ *CPU, n string) { post = append(post, n) }
	c.Code.Add(NewSpan(0x1000, "app", []Instr{
		{Op: CALL, A: Imm(0x5000)},
		{Op: HLT},
	}, nil))
	c.Code.Add(NewSpan(0x5000, "lib.so", []Instr{
		{Op: NATIVE, Native: 0},
	}, map[int]string{0: "magic"}))
	c.EIP = 0x1000
	c.Regs[ESP] = 0x100000
	for !c.Halted {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Regs[EAX] != 77 {
		t.Error("native did not run")
	}
	if len(pre) != 1 || pre[0] != "magic" || len(post) != 1 {
		t.Errorf("hooks: pre=%v post=%v", pre, post)
	}
}

func TestFetchFaultHalts(t *testing.T) {
	c := NewCPU()
	c.EIP = 0xDEAD0000
	err := c.Step()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want Fault, got %v", err)
	}
	if !c.Halted {
		t.Error("fault did not halt")
	}
	if err := c.Step(); err != ErrHalted {
		t.Errorf("second step = %v, want ErrHalted", err)
	}
}

func TestBBHookCounts(t *testing.T) {
	// loop: dec eax ; jnz loop ; hlt — with eax=3 the loop BB runs 3
	// times and the hlt BB once.
	c := NewCPU()
	counts := map[uint32]int{}
	c.Hooks.OnBB = func(_ *CPU, s *Span, leader int) {
		counts[s.Addr(leader)]++
	}
	c.Code.Add(NewSpan(0x1000, "t", []Instr{
		{Op: MOV, A: R(EAX), B: Imm(3)},
		{Op: DEC, A: R(EAX)}, // loop:
		{Op: JNZ, A: Imm(0x1004)},
		{Op: HLT},
	}, nil))
	c.EIP = 0x1000
	for !c.Halted {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if counts[0x1000] != 1 {
		t.Errorf("entry BB count = %d, want 1", counts[0x1000])
	}
	if counts[0x1004] != 3 {
		t.Errorf("loop BB count = %d, want 3", counts[0x1004])
	}
	if counts[0x100C] != 1 {
		t.Errorf("hlt BB count = %d, want 1", counts[0x100C])
	}
}

func TestInstrHookSeesEveryInstruction(t *testing.T) {
	c := NewCPU()
	var seen []Op
	c.Hooks.OnInstr = func(_ *CPU, s *Span, idx int) {
		seen = append(seen, s.Instrs[idx].Op)
	}
	c.Code.Add(NewSpan(0x1000, "t", []Instr{
		{Op: MOV, A: R(EAX), B: Imm(1)},
		{Op: INC, A: R(EAX)},
		{Op: HLT},
	}, nil))
	c.EIP = 0x1000
	for !c.Halted {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want := []Op{MOV, INC, HLT}
	if len(seen) != len(want) {
		t.Fatalf("seen %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("seen[%d] = %v, want %v", i, seen[i], want[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	c := NewCPU()
	c.Regs[EAX] = 5
	c.EIP = 0x1000
	cl := c.Clone()
	cl.Regs[EAX] = 9
	if c.Regs[EAX] != 5 {
		t.Error("clone register leaked")
	}
	if cl.EIP != 0x1000 {
		t.Error("clone EIP wrong")
	}
}

func TestCmpDoesNotWrite(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: MOV, A: R(EAX), B: Imm(5)},
		{Op: CMP, A: R(EAX), B: Imm(3)},
		{Op: HLT},
	})
	if c.Regs[EAX] != 5 {
		t.Error("cmp modified its operand")
	}
}

func TestTestSetsZF(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: MOV, A: R(EAX), B: Imm(0xF0)},
		{Op: TEST, A: R(EAX), B: Imm(0x0F)},
		{Op: JZ, A: Imm(0x1000 + 5*InstrSize)},
		{Op: MOV, A: R(EBX), B: Imm(1)},
		{Op: HLT},
		{Op: MOV, A: R(EBX), B: Imm(2)},
		{Op: HLT},
	})
	if c.Regs[EBX] != 2 {
		t.Errorf("test/jz: ebx = %d", c.Regs[EBX])
	}
}

func TestFaultErrorString(t *testing.T) {
	f := &Fault{PC: 0x1000, Reason: "bad"}
	if f.Error() != "isa: fault at 0x1000: bad" {
		t.Errorf("Error() = %q", f.Error())
	}
}

func TestJmpIndirectThroughMemory(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: MOV, A: Mem(0x2000), B: Imm(0x1000 + 3*InstrSize)},
		{Op: JMP, A: Mem(0x2000)},
		{Op: MOV, A: R(EAX), B: Imm(1)}, // skipped
		{Op: HLT},
	})
	if c.Regs[EAX] != 0 {
		t.Error("indirect-through-memory jmp failed")
	}
}

func TestMovbMemToMem(t *testing.T) {
	c := runProgram(t, []Instr{
		{Op: MOV, A: Mem(0x2000), B: Imm(0x11223344)},
		{Op: MOVB, A: Mem(0x3000), B: Mem(0x2001)},
		{Op: MOV, A: R(EAX), B: Mem(0x3000)},
		{Op: HLT},
	})
	if c.Regs[EAX] != 0x33 {
		t.Errorf("movb mem,mem = %#x", c.Regs[EAX])
	}
}

func TestLEARequiresMemorySource(t *testing.T) {
	c := NewCPU()
	c.Code.Add(NewSpan(0x1000, "t", []Instr{
		{Op: LEA, A: R(EAX), B: R(EBX)},
	}, nil))
	c.EIP = 0x1000
	if err := c.Step(); err == nil {
		t.Error("lea reg,reg did not fault")
	}
}

func TestWriteToImmediateFaults(t *testing.T) {
	c := NewCPU()
	c.Code.Add(NewSpan(0x1000, "t", []Instr{
		{Op: MOV, A: Imm(5), B: R(EAX)},
	}, nil))
	c.EIP = 0x1000
	if err := c.Step(); err == nil {
		t.Error("write to immediate did not fault")
	}
}

// TestBBSummaryDispatch pins the Hooks.OnTraceSlot contract the tiered
// taint engine builds on: a declined slot is invisible (OnBB and
// OnInstr run exactly as for an empty slot), a SlotTrace answer
// replaces the whole Step (no fetch, no OnInstr, EIP and Steps left
// where ExitTrace and the hook put them), and a trace error halts the
// CPU and is Step's own error.
func TestBBSummaryDispatch(t *testing.T) {
	type hook = func(c *CPU, s *Span, leader int, slot any) (SlotAction, error)
	// setup loads the program with logging OnBB/OnInstr hooks and the
	// given OnTraceSlot; slots lists the leaders that get a slot.
	setup := func(summary hook, slots ...int) (*CPU, *Span, *[]string) {
		span := NewSpan(0x1000, "test", []Instr{
			{Op: MOV, A: R(EAX), B: Imm(1)}, // block 0
			{Op: ADD, A: R(EAX), B: Imm(2)},
			{Op: JMP, A: Imm(0x100c)},
			{Op: DIVOP, A: R(EAX), B: Imm(0)}, // block 3: faults if executed
			{Op: MOV, A: R(EBX), B: R(EAX)},
			{Op: HLT},
		}, nil)
		for _, i := range slots {
			span.SetTraceSlot(i, i)
		}
		c := NewCPU()
		c.Code.Add(span)
		c.EIP = span.Base
		log := new([]string)
		c.Hooks.OnBB = func(c *CPU, s *Span, leader int) { *log = append(*log, fmt.Sprintf("bb%d", leader)) }
		c.Hooks.OnInstr = func(c *CPU, s *Span, idx int) { *log = append(*log, fmt.Sprintf("in%d", idx)) }
		c.Hooks.OnTraceSlot = summary
		return c, span, log
	}
	run := func(t *testing.T, c *CPU) error {
		t.Helper()
		for i := 0; i < 64 && !c.Halted; i++ {
			if err := c.Step(); err != nil {
				return err
			}
		}
		if !c.Halted {
			t.Fatal("program did not halt")
		}
		return nil
	}

	t.Run("decline", func(t *testing.T) {
		var offered []int
		decline := func(c *CPU, s *Span, leader int, slot any) (SlotAction, error) {
			offered = append(offered, leader)
			if slot != leader {
				t.Errorf("leader %d offered slot %v", leader, slot)
			}
			return SlotDecline, nil
		}
		ref, _, refLog := setup(decline)
		refErr := run(t, ref)
		got, _, gotLog := setup(decline, 0, 3)
		gotErr := run(t, got)
		if fmt.Sprint(refErr) != fmt.Sprint(gotErr) || ref.Regs != got.Regs || ref.EIP != got.EIP || ref.Steps != got.Steps {
			t.Fatalf("declined run diverged: err %v/%v regs %v/%v eip %#x/%#x steps %d/%d",
				refErr, gotErr, ref.Regs, got.Regs, ref.EIP, got.EIP, ref.Steps, got.Steps)
		}
		if a, b := fmt.Sprint(*refLog), fmt.Sprint(*gotLog); a != b {
			t.Fatalf("hooks diverged:\n  empty slot:    %s\n  declined slot: %s", a, b)
		}
		if fmt.Sprint(offered) != "[0 3]" {
			t.Fatalf("offered leaders %v, want [0 3]", offered)
		}
	})

	t.Run("trace", func(t *testing.T) {
		// Stand in for a compiled trace of block 3 that retired its
		// first instruction without faulting.
		c, span, log := setup(func(c *CPU, s *Span, leader int, slot any) (SlotAction, error) {
			c.Regs[EAX] = 7
			c.Steps++
			c.ExitTrace(s.Addr(4), false)
			return SlotTrace, nil
		}, 3)
		for c.EIP != span.Addr(3) {
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		before := len(*log)
		if err := c.Step(); err != nil {
			t.Fatalf("trace step: %v", err)
		}
		if c.EIP != span.Addr(4) || c.Steps != 4 || c.Regs[EAX] != 7 || c.Halted {
			t.Fatalf("after the trace: eip %#x steps %d eax %d halted %v; want %#x, 4, 7, running",
				c.EIP, c.Steps, c.Regs[EAX], c.Halted, span.Addr(4))
		}
		if len(*log) != before {
			t.Fatalf("trace step ran hooks %v", (*log)[before:])
		}
		// Execution continues from the trace's exit point.
		if err := run(t, c); err != nil {
			t.Fatal(err)
		}
		if c.Regs[EBX] != 7 || c.Steps != 6 {
			t.Fatalf("after the exit: ebx %d steps %d; want 7, 6", c.Regs[EBX], c.Steps)
		}
	})

	t.Run("fault", func(t *testing.T) {
		fault := &Fault{PC: 0x100c, Reason: "division by zero"}
		c, _, _ := setup(func(c *CPU, s *Span, leader int, slot any) (SlotAction, error) {
			c.Steps++
			c.ExitTrace(s.Addr(leader), false)
			return SlotTrace, fault
		}, 3)
		if err := run(t, c); err != fault || !c.Halted {
			t.Fatalf("trace fault: err %v halted %v; want %v, halted", err, c.Halted, fault)
		}
		if err := c.Step(); !errors.Is(err, ErrHalted) {
			t.Fatalf("step after the fault: %v, want ErrHalted", err)
		}
	})
}
