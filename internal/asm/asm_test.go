package asm

import (
	"strings"
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
)

func mustAsm(t *testing.T, src string) *image.Image {
	t.Helper()
	img, err := Assemble("test.img", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

// section returns img's section called name, or nil.
func section(img *image.Image, name string) *image.Section {
	for i := range img.Sections {
		if img.Sections[i].Name == name {
			return &img.Sections[i]
		}
	}
	return nil
}

func textSection(t *testing.T, img *image.Image) *image.Section {
	t.Helper()
	sec := section(img, ".text")
	if sec == nil {
		t.Fatal("no .text section")
	}
	return sec
}

func TestAssembleSimple(t *testing.T) {
	img := mustAsm(t, `
.text
_start:
    mov eax, 1
    mov ebx, 0
    int 0x80
`)
	sec := textSection(t, img)
	if len(sec.Instrs) != 3 {
		t.Fatalf("instrs = %d", len(sec.Instrs))
	}
	in := sec.Instrs[0]
	if in.Op != isa.MOV || in.A.Kind != isa.RegOperand || in.A.Reg != isa.EAX ||
		in.B.Kind != isa.ImmOperand || in.B.Imm != 1 {
		t.Errorf("instr 0 = %v", in)
	}
	if sym, ok := img.Symbols["_start"]; !ok || sym.Offset != 0 {
		t.Error("_start symbol wrong")
	}
}

func TestAssembleNumberForms(t *testing.T) {
	img := mustAsm(t, `
.text
    mov eax, 0x10
    mov ebx, -1
    mov ecx, 'A'
    mov edx, '\n'
`)
	ins := textSection(t, img).Instrs
	wants := []uint32{0x10, 0xFFFFFFFF, 65, 10}
	for i, w := range wants {
		if ins[i].B.Imm != w {
			t.Errorf("instr %d imm = %#x, want %#x", i, ins[i].B.Imm, w)
		}
	}
}

func TestAssembleMemoryOperands(t *testing.T) {
	img := mustAsm(t, `
.text
    mov eax, [0x2000]
    mov ebx, [esi]
    mov ecx, [esi+8]
    mov edx, [ebp-4]
    mov [edi+buf], eax
.data
buf: .space 4
`)
	ins := textSection(t, img).Instrs
	if ins[0].B.Kind != isa.MemOperand || ins[0].B.Imm != 0x2000 || ins[0].B.HasBase {
		t.Errorf("abs mem: %v", ins[0].B)
	}
	if !ins[1].B.HasBase || ins[1].B.Reg != isa.ESI || ins[1].B.Imm != 0 {
		t.Errorf("[esi]: %v", ins[1].B)
	}
	if ins[2].B.Imm != 8 {
		t.Errorf("[esi+8]: %v", ins[2].B)
	}
	if ins[3].B.Imm != ^uint32(3) {
		t.Errorf("[ebp-4]: imm = %#x", ins[3].B.Imm)
	}
	if !ins[4].A.HasBase || ins[4].A.Reg != isa.EDI {
		t.Errorf("[edi+buf]: %v", ins[4].A)
	}
	// The buf reference must have produced a relocation on slot A.
	found := false
	for _, r := range img.Relocs {
		if r.Symbol == "buf" && r.Instr == 4 && r.Slot == image.SlotA {
			found = true
		}
	}
	if !found {
		t.Errorf("missing reloc for buf: %+v", img.Relocs)
	}
}

func TestAssembleSymbolRefs(t *testing.T) {
	img := mustAsm(t, `
.text
start:
    jmp start
    call helper
    mov eax, msg
    mov ebx, msg+4
helper:
    ret
.data
msg: .asciz "hi"
`)
	if len(img.Relocs) != 4 {
		t.Fatalf("relocs = %d: %+v", len(img.Relocs), img.Relocs)
	}
	ins := textSection(t, img).Instrs
	if ins[3].B.Imm != 4 {
		t.Errorf("msg+4 addend = %d", ins[3].B.Imm)
	}
}

func TestAssembleDataDirectives(t *testing.T) {
	img := mustAsm(t, `
.data
a: .asciz "ab"
b: .ascii "cd"
c: .byte 1, 2, 0xFF
d: .word 0x11223344, a
e: .space 3, 0xEE
`)
	sec := section(img, ".data")
	if sec == nil {
		t.Fatal("no data section")
	}
	want := []byte{'a', 'b', 0, 'c', 'd', 1, 2, 0xFF, 0x44, 0x33, 0x22, 0x11, 0, 0, 0, 0, 0xEE, 0xEE, 0xEE}
	if len(sec.Data) != len(want) {
		t.Fatalf("data len = %d, want %d: %v", len(sec.Data), len(want), sec.Data)
	}
	for i := range want {
		if sec.Data[i] != want[i] {
			t.Errorf("data[%d] = %#x, want %#x", i, sec.Data[i], want[i])
		}
	}
	if len(img.DataRels) != 1 || img.DataRels[0].Symbol != "a" || img.DataRels[0].Offset != 12 {
		t.Errorf("data relocs: %+v", img.DataRels)
	}
}

func TestAssembleStringEscapes(t *testing.T) {
	img := mustAsm(t, `
.data
s: .asciz "a\nb\t\"q\"\x41\0z"
`)
	got := section(img, ".data").Data
	want := []byte("a\nb\t\"q\"A\x00z\x00")
	if string(got) != string(want) {
		t.Errorf("escapes: %q, want %q", got, want)
	}
}

func TestAssembleDirectivesMeta(t *testing.T) {
	img := mustAsm(t, `
.image "renamed.out"
.import "libc.so"
.entry main
.text
main: hlt
`)
	if img.Name != "renamed.out" {
		t.Errorf("name = %q", img.Name)
	}
	if len(img.Imports) != 1 || img.Imports[0] != "libc.so" {
		t.Errorf("imports = %v", img.Imports)
	}
	if img.Entry != "main" {
		t.Errorf("entry = %q", img.Entry)
	}
}

func TestAssembleNative(t *testing.T) {
	img := mustAsm(t, `
.text
gethostbyname:
    .native gethostbyname
system:
    .native system
`)
	if len(img.Natives) != 2 {
		t.Fatalf("natives = %v", img.Natives)
	}
	ins := textSection(t, img).Instrs
	if ins[0].Op != isa.NATIVE || ins[0].Native != 0 || ins[1].Native != 1 {
		t.Errorf("native instrs wrong: %v", ins)
	}
}

func TestAssembleComments(t *testing.T) {
	img := mustAsm(t, `
.text
    mov eax, 1   ; comment with , and [ inside
    nop          # hash comment
.data
s: .asciz "semi ; inside string"
`)
	if n := len(textSection(t, img).Instrs); n != 2 {
		t.Errorf("instrs = %d", n)
	}
	if got := string(section(img, ".data").Data); got != "semi ; inside string\x00" {
		t.Errorf("string with semicolon: %q", got)
	}
}

func TestAssembleLabelWithInstruction(t *testing.T) {
	img := mustAsm(t, `
.text
start: mov eax, 1
loop: dec eax
    jnz loop
`)
	if len(textSection(t, img).Instrs) != 3 {
		t.Error("label+instr on one line failed")
	}
	if sym := img.Symbols["loop"]; sym.Offset != 1 {
		t.Errorf("loop offset = %d", sym.Offset)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown mnemonic", ".text\n bogus eax", "unknown mnemonic"},
		{"bad operand count", ".text\n mov eax", "takes 2 operand"},
		{"duplicate label", ".text\na:\na:\n nop", "duplicate symbol"},
		{"two base regs", ".text\n mov eax, [ebx+ecx]", "two base registers"},
		{"data in text", ".text\n .asciz \"x\"", "in text section"},
		{"instr in data", ".data\n mov eax, 1", "instruction outside text"},
		{"unknown directive", ".frobnicate", "unknown directive"},
		{"undefined symbol", ".text\n jmp nowhere", "undefined symbol"},
		{"bad escape", `.data` + "\n" + `s: .asciz "\q"`, "unknown escape"},
		{"unterminated mem", ".text\n mov eax, [ebx", "unterminated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble("t", tc.src)
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Assemble("t", ".text\n nop\n bogus eax\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error = %v, want line 3", err)
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble did not panic")
		}
	}()
	MustAssemble("t", "bogus")
}

func TestAssembleAllMnemonics(t *testing.T) {
	src := `
.text
t:
    nop
    mov eax, 1
    movb [0x100], eax
    lea eax, [ebx+4]
    add eax, 1
    sub eax, 1
    and eax, 1
    or eax, 1
    xor eax, eax
    mul eax, 2
    div eax, 2
    mod eax, 2
    shl eax, 1
    shr eax, 1
    not eax
    neg eax
    inc eax
    dec eax
    cmp eax, 0
    test eax, eax
    push eax
    pop eax
    jmp t
    jz t
    jnz t
    jl t
    jle t
    jg t
    jge t
    call t
    ret
    int 0x80
    cpuid
    rdtsc
    hlt
`
	img := mustAsm(t, src)
	if n := len(textSection(t, img).Instrs); n != 35 {
		t.Errorf("instr count = %d, want 35", n)
	}
}

func TestAssembleEdgeCases(t *testing.T) {
	// Multiple labels on one line, label at section end, empty
	// program, negative memory displacement chains.
	img := mustAsm(t, `
.text
a: b: c:
    nop
end:
.data
d1: d2: .byte 1
tail:
`)
	for _, sym := range []string{"a", "b", "c", "end", "d1", "d2", "tail"} {
		if _, ok := img.Symbols[sym]; !ok {
			t.Errorf("symbol %q missing", sym)
		}
	}
	if img.Symbols["a"].Offset != 0 || img.Symbols["end"].Offset != 1 {
		t.Error("text label offsets wrong")
	}
	if img.Symbols["tail"].Offset != 1 {
		t.Errorf("tail offset = %d", img.Symbols["tail"].Offset)
	}
}

func TestAssembleMemMultiTerm(t *testing.T) {
	img := mustAsm(t, `
.text
    mov eax, [esi+buf+4]
    mov ebx, [buf+8-4]
.data
buf: .space 16
`)
	ins := textSection(t, img).Instrs
	if !ins[0].B.HasBase || ins[0].B.Reg != isa.ESI || ins[0].B.Imm != 4 {
		t.Errorf("[esi+buf+4] = %+v", ins[0].B)
	}
	if ins[1].B.HasBase || ins[1].B.Imm != 4 {
		t.Errorf("[buf+8-4] = %+v", ins[1].B)
	}
	if len(img.Relocs) != 2 {
		t.Errorf("relocs = %d", len(img.Relocs))
	}
}

func TestAssembleErrorRecoveryCollectsMultiple(t *testing.T) {
	_, err := Assemble("t", `
.text
 bogus1 eax
 bogus2 ebx
 bogus3 ecx
`)
	if err == nil {
		t.Fatal("no error")
	}
	el, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if len(el) != 3 {
		t.Errorf("errors = %d, want 3", len(el))
	}
}

func TestAssembleCharEscapes(t *testing.T) {
	img := mustAsm(t, `
.text
    mov eax, '\\'
    mov ebx, '\x41'
    mov ecx, '\0'
`)
	ins := textSection(t, img).Instrs
	if ins[0].B.Imm != '\\' || ins[1].B.Imm != 0x41 || ins[2].B.Imm != 0 {
		t.Errorf("char escapes: %v %v %v", ins[0].B.Imm, ins[1].B.Imm, ins[2].B.Imm)
	}
}

func TestAssembleRODataSection(t *testing.T) {
	img := mustAsm(t, `
.rodata
msg: .asciz "const"
.text
    mov eax, msg
`)
	sec := section(img, ".rodata")
	if sec == nil || sec.Kind != image.ROData {
		t.Fatal("rodata section missing")
	}
	if string(sec.Data) != "const\x00" {
		t.Errorf("rodata = %q", sec.Data)
	}
}
