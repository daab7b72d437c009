package loader

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/taint"
)

func newCPUWithShadow() (*isa.CPU, *taint.Store) {
	st := taint.NewStore()
	c := isa.NewCPU()
	c.Shadow = taint.NewShadow(st)
	return c, st
}

func TestLoadSimpleExecutable(t *testing.T) {
	img := asm.MustAssemble("/bin/demo", `
.entry _start
.text
_start:
    mov ebx, msg
    hlt
.data
msg: .asciz "hello"
`)
	cpu, st := newCPUWithShadow()
	m := NewMap()
	li, err := m.Load(cpu, img, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	if li.Base != ExecBase {
		t.Errorf("base = %#x", li.Base)
	}
	entry, err := li.EntryAddr()
	if err != nil {
		t.Fatal(err)
	}
	if entry != ExecBase {
		t.Errorf("entry = %#x", entry)
	}
	// Data mapped after the (page-aligned) text section.
	msgAddr, ok := li.SymbolAddr("msg")
	if !ok {
		t.Fatal("msg not found")
	}
	if got := cpu.Mem.CString(msgAddr); got != "hello" {
		t.Errorf("mapped string = %q", got)
	}
	// Mapped bytes carry BINARY taint (paper §7.3.2).
	tag := cpu.Shadow.Get(msgAddr)
	if !slices.Contains(st.Sources(tag), taint.Source{Type: taint.Binary, Name: "/bin/demo"}) {
		t.Errorf("msg tag = %s", st.String(tag))
	}
	// The mov's operand was relocated to msg's address.
	span, idx, ok := cpu.Code.Find(entry)
	if !ok {
		t.Fatal("entry not in code map")
	}
	if span.Instrs[idx].B.Imm != msgAddr {
		t.Errorf("reloc: imm = %#x, want %#x", span.Instrs[idx].B.Imm, msgAddr)
	}
}

func TestLoadWithImport(t *testing.T) {
	lib := asm.MustAssemble("libdemo.so", `
.text
helper:
    mov eax, 42
    ret
.data
libstr: .asciz "in lib"
`)
	app := asm.MustAssemble("/bin/app", `
.import "libdemo.so"
.entry _start
.text
_start:
    call helper
    mov ebx, libstr
    hlt
`)
	cpu, st := newCPUWithShadow()
	m := NewMap()
	env := &Env{Resolve: func(name string) (*image.Image, error) {
		if name == "libdemo.so" {
			return lib, nil
		}
		return nil, fmt.Errorf("not found: %s", name)
	}}
	li, err := m.Load(cpu, app, env)
	if err != nil {
		t.Fatal(err)
	}
	libLoaded, ok := m.Loaded("libdemo.so")
	if !ok {
		t.Fatal("library not loaded")
	}
	if libLoaded.Base < LibBase {
		t.Errorf("lib base = %#x", libLoaded.Base)
	}
	// Run it: call into the lib must work.
	entry, _ := li.EntryAddr()
	cpu.EIP = entry
	cpu.Regs[isa.ESP] = 0x00200000
	for !cpu.Halted {
		if err := cpu.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if cpu.Regs[isa.EAX] != 42 {
		t.Errorf("eax = %d", cpu.Regs[isa.EAX])
	}
	// Library data tagged with the library's BINARY source.
	addr, _ := libLoaded.SymbolAddr("libstr")
	if !slices.Contains(st.Sources(cpu.Shadow.Get(addr)), taint.Source{Type: taint.Binary, Name: "libdemo.so"}) {
		t.Error("lib data missing BINARY tag")
	}
	// Code ownership: the helper span belongs to the library image.
	span, _, _ := cpu.Code.Find(libLoaded.Base)
	if span.Image != "libdemo.so" {
		t.Errorf("span image = %q", span.Image)
	}
}

func TestLoadMissingImport(t *testing.T) {
	app := asm.MustAssemble("/bin/app", `
.import "nope.so"
.text
_start: hlt
`)
	cpu, _ := newCPUWithShadow()
	_, err := NewMap().Load(cpu, app, &Env{Resolve: func(string) (*image.Image, error) {
		return nil, fmt.Errorf("no such library")
	}})
	if err == nil || !strings.Contains(err.Error(), "nope.so") {
		t.Errorf("err = %v", err)
	}
}

func TestLoadUndefinedSymbol(t *testing.T) {
	lib := asm.MustAssemble("l.so", ".text\nx: ret\n")
	app := asm.MustAssemble("/bin/app", `
.import "l.so"
.text
_start: call missing
`)
	cpu, _ := newCPUWithShadow()
	env := &Env{Resolve: func(string) (*image.Image, error) { return lib, nil }}
	_, err := NewMap().Load(cpu, app, env)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("err = %v", err)
	}
}

func TestLoadNativeBinding(t *testing.T) {
	lib := asm.MustAssemble("libc.so", `
.text
getpid_native:
    .native getpid_native
`)
	app := asm.MustAssemble("/bin/app", `
.import "libc.so"
.entry _start
.text
_start:
    call getpid_native
    hlt
`)
	cpu, _ := newCPUWithShadow()
	called := false
	env := &Env{
		Resolve: func(string) (*image.Image, error) { return lib, nil },
		Natives: map[string]func(*isa.CPU){
			"getpid_native": func(c *isa.CPU) { called = true; c.Regs[isa.EAX] = 7 },
		},
	}
	li, err := NewMap().Load(cpu, app, env)
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := li.EntryAddr()
	cpu.EIP = entry
	cpu.Regs[isa.ESP] = 0x00200000
	for !cpu.Halted {
		if err := cpu.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !called || cpu.Regs[isa.EAX] != 7 {
		t.Error("native not bound/executed")
	}
}

func TestLoadNativeMissing(t *testing.T) {
	lib := asm.MustAssemble("libc.so", ".text\nf:\n .native nothere\n")
	cpu, _ := newCPUWithShadow()
	_, err := NewMap().Load(cpu, lib, &Env{})
	if err == nil || !strings.Contains(err.Error(), "nothere") {
		t.Errorf("err = %v", err)
	}
}

func TestLoadIdempotent(t *testing.T) {
	img := asm.MustAssemble("/bin/a", ".text\n_start: hlt\n")
	cpu, _ := newCPUWithShadow()
	m := NewMap()
	li1, err := m.Load(cpu, img, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	li2, err := m.Load(cpu, img, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	if li1 != li2 {
		t.Error("double load created a second mapping")
	}
}

func TestDataReloc(t *testing.T) {
	img := asm.MustAssemble("/bin/a", `
.entry _start
.text
_start:
    mov eax, [table]
    hlt
.data
target: .asciz "x"
table: .word target
`)
	cpu, _ := newCPUWithShadow()
	m := NewMap()
	li, err := m.Load(cpu, img, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	tableAddr, _ := li.SymbolAddr("table")
	targetAddr, _ := li.SymbolAddr("target")
	if got := cpu.Mem.Load32(tableAddr); got != targetAddr {
		t.Errorf("data reloc: [table] = %#x, want %#x", got, targetAddr)
	}
}

func TestOnLoadCallback(t *testing.T) {
	lib := asm.MustAssemble("l.so", ".text\nf: ret\n")
	app := asm.MustAssemble("/bin/a", ".import \"l.so\"\n.text\n_start: hlt\n")
	cpu, _ := newCPUWithShadow()
	var loads []string
	env := &Env{
		Resolve: func(string) (*image.Image, error) { return lib, nil },
		OnLoad:  func(li *Loaded) { loads = append(loads, li.Image.Name) },
	}
	if _, err := NewMap().Load(cpu, app, env); err != nil {
		t.Fatal(err)
	}
	// Imports load (and notify) before the importing image.
	if len(loads) != 2 || loads[0] != "l.so" || loads[1] != "/bin/a" {
		t.Errorf("loads = %v", loads)
	}
}

func TestMapClone(t *testing.T) {
	img := asm.MustAssemble("/bin/a", ".text\n_start: hlt\n")
	cpu, _ := newCPUWithShadow()
	m := NewMap()
	m.Load(cpu, img, &Env{})
	cl := m.Clone()
	if _, ok := cl.Loaded("/bin/a"); !ok {
		t.Error("clone lost image")
	}
	if len(cl.order) != 1 {
		t.Error("clone image order wrong")
	}
}

func TestLoadWithoutShadow(t *testing.T) {
	// Unmonitored processes have no shadow; loading must not panic
	// and must not tag.
	img := asm.MustAssemble("/bin/a", ".text\n_start: hlt\n.data\nd: .asciz \"x\"\n")
	cpu := isa.NewCPU()
	if _, err := NewMap().Load(cpu, img, &Env{}); err != nil {
		t.Fatal(err)
	}
}

func TestTransitiveImports(t *testing.T) {
	// app -> libmid.so -> libbase.so: symbols resolve along the
	// import chain and all three images map at distinct bases.
	base := asm.MustAssemble("libbase.so", `
.text
base_fn:
    mov eax, [base_val]
    ret
.data
base_val: .word 77
`)
	mid := asm.MustAssemble("libmid.so", `
.import "libbase.so"
.text
mid_fn:
    call base_fn
    add eax, 1
    ret
`)
	app := asm.MustAssemble("/bin/app", `
.import "libmid.so"
.entry _start
.text
_start:
    call mid_fn
    hlt
`)
	cpu, _ := newCPUWithShadow()
	m := NewMap()
	env := &Env{Resolve: func(name string) (*image.Image, error) {
		switch name {
		case "libmid.so":
			return mid, nil
		case "libbase.so":
			return base, nil
		}
		return nil, fmt.Errorf("unknown %s", name)
	}}
	li, err := m.Load(cpu, app, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.order) != 3 {
		t.Fatalf("images = %d", len(m.order))
	}
	entry, _ := li.EntryAddr()
	cpu.EIP = entry
	cpu.Regs[isa.ESP] = 0x00200000
	for !cpu.Halted {
		if err := cpu.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if cpu.Regs[isa.EAX] != 78 {
		t.Errorf("eax = %d, want 78", cpu.Regs[isa.EAX])
	}
	// Bases are disjoint.
	seen := map[uint32]bool{}
	for _, im := range m.order {
		if seen[im.Base] {
			t.Errorf("duplicate base %#x", im.Base)
		}
		seen[im.Base] = true
	}
}

// TestDataTailTagging pins the loader's word-tail rule: a data
// section's trailing partial word is tagged whole when no other
// section of the image occupies the rest of it, so its shadow page
// stays in word mode, and a layout that packs another section into
// that word keeps the exact length.
func TestDataTailTagging(t *testing.T) {
	im := image.New("/bin/tail")
	im.Entry = "_start"
	im.Sections = []image.Section{
		{Name: ".text", Kind: image.Text, Instrs: []isa.Instr{{Op: isa.HLT}}},
		{Name: ".free", Kind: image.Data, Data: make([]byte, 5), Addr: ExecBase + 0x3000},
		{Name: ".packed", Kind: image.Data, Data: make([]byte, 5), Addr: ExecBase + 0x4000},
		{Name: ".next", Kind: image.Data, Data: make([]byte, 3), Addr: ExecBase + 0x4005},
		{Name: ".auto", Kind: image.Data, Data: make([]byte, 9)},
	}
	im.Symbols["_start"] = image.Symbol{Section: 0, Offset: 0}
	cpu, st := newCPUWithShadow()
	li, err := NewMap().Load(cpu, im, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range map[int]uint32{1: 8, 2: 5, 3: 3, 4: 12} {
		if got := li.tagLen(i); got != want {
			t.Errorf("%s: tagged %d bytes, want %d", im.Sections[i].Name, got, want)
		}
	}
	bin := st.Of(taint.Source{Type: taint.Binary, Name: "/bin/tail"})
	if got := cpu.Shadow.GetWord(ExecBase + 0x3004); got != bin {
		t.Errorf(".free tail word tag = %s, want the whole word %s", st.String(got), st.String(bin))
	}
	// Only the packed page splits a word between the tagged tail of
	// .packed and a not-yet-tagged .next, so only it degrades.
	if n := cpu.Shadow.BytePages(); n != 1 {
		t.Errorf("%d shadow pages degraded to byte mode, want 1 (the packed one)", n)
	}
}
