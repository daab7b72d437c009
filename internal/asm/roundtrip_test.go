package asm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
)

// TestDisassemblyRoundTrip is a property test: the disassembly syntax
// of every instruction re-assembles to the identical instruction.
func TestDisassemblyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2006))

	randReg := func() isa.Reg { return isa.Reg(rng.Intn(int(isa.NumRegs))) }
	randImm := func() uint32 { return uint32(rng.Int63()) }
	randOperand := func(allowed ...isa.OperandKind) isa.Operand {
		switch allowed[rng.Intn(len(allowed))] {
		case isa.RegOperand:
			return isa.R(randReg())
		case isa.ImmOperand:
			return isa.Imm(randImm())
		case isa.MemOperand:
			switch rng.Intn(3) {
			case 0:
				return isa.Mem(randImm())
			case 1:
				return isa.MemBase(randReg(), 0)
			default:
				// Signed displacements exercise the +/- rendering.
				d := uint32(rng.Intn(1 << 16))
				if rng.Intn(2) == 0 {
					d = -d
				}
				return isa.MemBase(randReg(), d)
			}
		}
		return isa.Operand{}
	}

	anyKind := []isa.OperandKind{isa.RegOperand, isa.ImmOperand, isa.MemOperand}
	writable := []isa.OperandKind{isa.RegOperand, isa.MemOperand}

	randInstr := func() isa.Instr {
		switch rng.Intn(8) {
		case 0:
			return isa.Instr{Op: isa.NOP}
		case 1: // two-operand data ops
			ops := []isa.Op{isa.MOV, isa.MOVB, isa.ADD, isa.SUB, isa.AND,
				isa.OR, isa.XOR, isa.MUL, isa.DIVOP, isa.MODOP, isa.SHL,
				isa.SHR, isa.CMP, isa.TEST}
			return isa.Instr{
				Op: ops[rng.Intn(len(ops))],
				A:  randOperand(writable...),
				B:  randOperand(anyKind...),
			}
		case 2: // unary
			ops := []isa.Op{isa.NOT, isa.NEG, isa.INC, isa.DEC}
			return isa.Instr{Op: ops[rng.Intn(len(ops))], A: randOperand(writable...)}
		case 3:
			return isa.Instr{Op: isa.PUSH, A: randOperand(anyKind...)}
		case 4:
			return isa.Instr{Op: isa.POP, A: randOperand(writable...)}
		case 5: // branches with absolute targets
			ops := []isa.Op{isa.JMP, isa.JZ, isa.JNZ, isa.JL, isa.JLE,
				isa.JG, isa.JGE, isa.CALL}
			return isa.Instr{Op: ops[rng.Intn(len(ops))], A: randOperand(anyKind...)}
		case 6:
			return isa.Instr{Op: isa.LEA, A: isa.R(randReg()), B: randOperand(isa.MemOperand)}
		default:
			zero := []isa.Op{isa.RET, isa.CPUID, isa.RDTSC, isa.HLT}
			return isa.Instr{Op: zero[rng.Intn(len(zero))]}
		}
	}

	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		want := make([]isa.Instr, n)
		var src strings.Builder
		src.WriteString(".text\n")
		for i := range want {
			want[i] = randInstr()
			fmt.Fprintf(&src, "    %s\n", want[i])
		}
		img, err := Assemble("rt", src.String())
		if err != nil {
			t.Fatalf("trial %d: %v\nsource:\n%s", trial, err, src.String())
		}
		got := section(img, ".text").Instrs
		if len(got) != n {
			t.Fatalf("trial %d: %d instrs, want %d", trial, len(got), n)
		}
		for i := range want {
			g := got[i]
			g.Line = 0
			w := want[i]
			if g != w {
				t.Fatalf("trial %d instr %d: got %+v, want %+v (text %q)",
					trial, i, g, w, w.String())
			}
		}
	}
}

// TestAssembleLoadExecuteRandomALU cross-checks the interpreter
// against a Go model on random straight-line arithmetic.
func TestAssembleLoadExecuteRandomALU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type op struct {
		mnem string
		fn   func(a, b uint32) uint32
	}
	ops := []op{
		{"add", func(a, b uint32) uint32 { return a + b }},
		{"sub", func(a, b uint32) uint32 { return a - b }},
		{"and", func(a, b uint32) uint32 { return a & b }},
		{"or", func(a, b uint32) uint32 { return a | b }},
		{"xor", func(a, b uint32) uint32 { return a ^ b }},
		{"mul", func(a, b uint32) uint32 { return a * b }},
		{"shl", func(a, b uint32) uint32 { return a << (b & 31) }},
		{"shr", func(a, b uint32) uint32 { return a >> (b & 31) }},
	}
	for trial := 0; trial < 50; trial++ {
		model := uint32(rng.Int63())
		var src strings.Builder
		fmt.Fprintf(&src, ".text\n_start:\n    mov eax, %d\n", model)
		for i := 0; i < 30; i++ {
			o := ops[rng.Intn(len(ops))]
			v := uint32(rng.Intn(1 << 20)) // keep shifts interesting
			if o.mnem == "shl" || o.mnem == "shr" {
				v = uint32(rng.Intn(32))
			}
			fmt.Fprintf(&src, "    %s eax, %d\n", o.mnem, v)
			model = o.fn(model, v)
		}
		src.WriteString("    hlt\n")

		img, err := Assemble("alu", src.String())
		if err != nil {
			t.Fatal(err)
		}
		// Execute on a bare CPU via a span built from the image.
		sec := section(img, ".text")
		cpu := isa.NewCPU()
		cpu.Code.Add(isa.NewSpan(0x1000, "alu", sec.Instrs, img.TextSymbols(sectionIndex(img, ".text"))))
		cpu.EIP = 0x1000
		for !cpu.Halted {
			if err := cpu.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if cpu.Regs[isa.EAX] != model {
			t.Fatalf("trial %d: eax = %#x, model = %#x\n%s", trial, cpu.Regs[isa.EAX], model, src.String())
		}
	}
}

func sectionIndex(img *image.Image, name string) int {
	for i := range img.Sections {
		if img.Sections[i].Name == name {
			return i
		}
	}
	return -1
}
