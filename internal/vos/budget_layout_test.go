package vos

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/taint"
)

// TestWriteFileSizeBudget: a guest that seeks far past a file's end
// and writes must not make the kernel materialize the hole as host
// memory. A write that starts at or past MaxFileSize fails with EFBIG
// and leaves the file alone; one that crosses the cap is cut short at
// it, like Linux under RLIMIT_FSIZE.
func TestWriteFileSizeBudget(t *testing.T) {
	os := buildOS(t, fmt.Sprintf(`
.text
_start:
    mov ebx, path
    mov ecx, 0
    mov eax, 8          ; SYS_creat
    int 0x80
    mov esi, eax
    ; lseek(fd, 0x4000000, SEEK_SET); write(fd, buf, 1)
    mov ebx, esi
    mov ecx, 0x4000000
    mov edx, 0
    mov eax, 19
    int 0x80
    mov ebx, esi
    mov ecx, buf
    mov edx, 1
    mov eax, 4
    int 0x80
    mov [res], eax
    ; lseek(fd, MaxFileSize-2, SEEK_SET); write(fd, buf, 4)
    mov ebx, esi
    mov ecx, %d
    mov edx, 0
    mov eax, 19
    int 0x80
    mov ebx, esi
    mov ecx, buf
    mov edx, 4
    mov eax, 4
    int 0x80
    mov [res+4], eax
    ; print both write results
    mov ebx, 1
    mov ecx, res
    mov edx, 8
    mov eax, 4
    int 0x80
    hlt
.data
path: .asciz "/tmp/big"
buf:  .asciz "WXYZ"
res:  .space 8
`, MaxFileSize-2))
	start(t, os, ProcSpec{})
	run(t, os)
	if len(os.Console) != 8 {
		t.Fatalf("console = %q, want two result words", os.Console)
	}
	if got := binary.LittleEndian.Uint32(os.Console); got != errno(EFBIG) {
		t.Errorf("write past the cap returned %d, want -EFBIG", int32(got))
	}
	if got := binary.LittleEndian.Uint32(os.Console[4:]); got != 2 {
		t.Errorf("write across the cap returned %d, want the 2 bytes below it", int32(got))
	}
	f, ok := os.FS.Lookup("/tmp/big")
	if !ok {
		t.Fatal("file not created")
	}
	if len(f.Data) != MaxFileSize {
		t.Fatalf("file is %d bytes, want the cap %d", len(f.Data), MaxFileSize)
	}
	if string(f.Data[MaxFileSize-2:]) != "WX" || f.Data[0] != 0 || f.Data[MaxFileSize-3] != 0 {
		t.Error("file holds the wrong bytes: want a zero hole, then WX")
	}
}

// TestStartupShadowStaysWordMode: the initial stack pads each string
// block to a whole word, tagged like its block, and the loader tags a
// data section's trailing partial word whole. Odd-length argv/env
// strings and a .data section of 4k+1 bytes therefore leave argv[] and
// envp[] word-aligned, every string byte tagged, and no shadow page in
// byte mode.
func TestStartupShadowStaysWordMode(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    hlt
.data
odd: .space 4097
`)
	st := newStore()
	argv := []string{"/bin/prog", "abcde", "x"}
	env := []string{"HOME=/home/u", "TERM=vt"}
	p := start(t, os, ProcSpec{Argv: argv, Env: env, Monitor: NopMonitor{}, Store: st})
	mem, sh := p.CPU.Mem, p.CPU.Shadow

	sp := p.CPU.Regs[isa.ESP]
	if argc := mem.Load32(sp); argc != uint32(len(argv)) {
		t.Fatalf("argc = %d, want %d", argc, len(argv))
	}
	check := func(name string, arr uint32, items []string) {
		t.Helper()
		if arr&3 != 0 {
			t.Errorf("%s[] at %#x is not word-aligned", name, arr)
		}
		tag := st.Of(taint.Source{Type: taint.UserInput, Name: name})
		for i, s := range items {
			ptr := mem.Load32(arr + 4*uint32(i))
			if got := mem.CString(ptr); got != s {
				t.Errorf("%s[%d] = %q, want %q", name, i, got, s)
			}
			for a := ptr; a <= ptr+uint32(len(s)); a++ { // the NUL too
				if sh.Get(a) != tag {
					t.Errorf("%s[%d] byte %#x has tag %s, want %s", name, i, a, st.String(sh.Get(a)), st.String(tag))
				}
			}
		}
		if mem.Load32(arr+4*uint32(len(items))) != 0 {
			t.Errorf("%s[] is not NULL-terminated", name)
		}
	}
	check("argv", mem.Load32(sp+4), argv)
	check("env", mem.Load32(sp+8), env)

	li, ok := p.Images.Loaded("/bin/prog")
	if !ok {
		t.Fatal("/bin/prog not loaded")
	}
	bin := st.Of(taint.Source{Type: taint.Binary, Name: "/bin/prog"})
	for i, sec := range li.Image.Sections {
		if sec.Kind == image.Text {
			continue
		}
		base := li.SectionBases[i]
		for a := base; a < base+sec.Size(); a++ {
			if sh.Get(a) != bin {
				t.Fatalf("%s byte %#x has tag %s, want %s", sec.Name, a, st.String(sh.Get(a)), st.String(bin))
			}
		}
	}
	if n := sh.BytePages(); n != 0 {
		t.Errorf("%d shadow pages degraded to byte mode at start-up", n)
	}
}
