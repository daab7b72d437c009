package guestlib

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/vos"
)

func runProg(t *testing.T, os *vos.OS, src string, spec vos.ProcSpec) *vos.Process {
	t.Helper()
	os.FS.Install("/bin/prog", asm.MustAssemble("/bin/prog", src))
	spec.Path = "/bin/prog"
	p, err := os.StartProcess(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return p
}

func TestPrintAndStrlen(t *testing.T) {
	os := vos.New()
	InstallInto(os)
	runProg(t, os, `
.import "libc.so"
.text
_start:
    mov ebx, msg
    call print
    hlt
.data
msg: .asciz "via libc"
`, vos.ProcSpec{})
	if got := string(os.Console); got != "via libc" {
		t.Errorf("console = %q", got)
	}
}

func TestStrcpyMemcpy(t *testing.T) {
	os := vos.New()
	InstallInto(os)
	runProg(t, os, `
.import "libc.so"
.text
_start:
    mov ebx, dst
    mov ecx, src
    call strcpy
    mov ebx, dst2
    mov ecx, src
    mov edx, 3
    call memcpy
    mov ebx, dst
    call print
    mov ebx, dst2
    call print
    hlt
.data
src:  .asciz "xyz"
dst:  .space 8
dst2: .space 8
`, vos.ProcSpec{})
	if got := string(os.Console); got != "xyzxyz" {
		t.Errorf("console = %q", got)
	}
}

func TestSystemRunsShellCommand(t *testing.T) {
	os := vos.New()
	InstallInto(os)
	// /bin/sh: prints argv[2] (the -c command) to stdout.
	os.FS.Install("/bin/sh", asm.MustAssemble("/bin/sh", `
.import "libc.so"
.text
_start:
    mov esi, [esp+4]    ; argv array
    mov ebx, [esi+8]    ; argv[2] = command
    call print
    mov ebx, 0
    call exit
`))
	p := runProg(t, os, `
.import "libc.so"
.text
_start:
    mov ebx, cmd
    call system
    mov ebx, 0
    call exit
.data
cmd: .asciz "echo hello"
`, vos.ProcSpec{})
	if got := string(os.Console); got != "echo hello" {
		t.Errorf("console = %q", got)
	}
	if p.ExitCode != 0 {
		t.Errorf("exit = %d", p.ExitCode)
	}
}

func TestSystemMissingShell(t *testing.T) {
	os := vos.New()
	InstallInto(os)
	p := runProg(t, os, `
.import "libc.so"
.text
_start:
    mov ebx, cmd
    call system
    shr eax, 8          ; wait status -> exit code
    mov ebx, eax
    call exit
.data
cmd: .asciz "anything"
`, vos.ProcSpec{})
	// The child's execve fails (no /bin/sh installed) and it exits
	// 127, which system() returns via the wait status.
	if p.ExitCode != 127 {
		t.Errorf("exit = %d, want 127", p.ExitCode)
	}
}

func TestGethostbyname(t *testing.T) {
	os := vos.New()
	InstallInto(os)
	os.Net.AddHost("pop.mail.yahoo.com", "216.136.173.10")
	runProg(t, os, `
.import "libc.so"
.text
_start:
    mov ebx, host
    call gethostbyname
    cmp eax, 0
    jz fail
    mov ebx, eax
    call print
    hlt
fail:
    mov ebx, 1
    call exit
.data
host: .asciz "pop.mail.yahoo.com"
`, vos.ProcSpec{})
	if got := string(os.Console); got != "216.136.173.10" {
		t.Errorf("console = %q", got)
	}
}

func TestGethostbynameUnknown(t *testing.T) {
	os := vos.New()
	InstallInto(os)
	p := runProg(t, os, `
.import "libc.so"
.text
_start:
    mov ebx, host
    call gethostbyname
    cmp eax, 0
    jz notfound
    mov ebx, 1
    call exit
notfound:
    mov ebx, 0
    call exit
.data
host: .asciz "no.such.host.example"
`, vos.ProcSpec{})
	if p.ExitCode != 0 {
		t.Error("unknown host resolved unexpectedly")
	}
}

func TestLibcImagesValidate(t *testing.T) {
	if err := Libc().Validate(); err != nil {
		t.Errorf("libc: %v", err)
	}
	if err := Ld().Validate(); err != nil {
		t.Errorf("ld: %v", err)
	}
	if !strings.Contains(Libc().Name, "libc") {
		t.Error("libc image name wrong")
	}
}

func TestStrcmp(t *testing.T) {
	os := vos.New()
	InstallInto(os)
	p := runProg(t, os, `
.import "libc.so"
.text
_start:
    mov ebx, a
    mov ecx, b
    call strcmp
    cmp eax, 0
    jnz differ
    ; equal strings: now compare different ones
    mov ebx, a
    mov ecx, c
    call strcmp
    cmp eax, 0
    jz fail
    mov ebx, 0
    call exit
differ:
fail:
    mov ebx, 1
    call exit
.data
a: .asciz "hello"
b: .asciz "hello"
c: .asciz "help"
`, vos.ProcSpec{})
	if p.ExitCode != 0 {
		t.Errorf("strcmp exit = %d", p.ExitCode)
	}
}

func TestAtoiItoaRoundTrip(t *testing.T) {
	os := vos.New()
	InstallInto(os)
	runProg(t, os, `
.import "libc.so"
.text
_start:
    ; atoi("40712") -> itoa -> print
    mov ebx, numstr
    call atoi
    mov ebx, eax
    add ebx, 5          ; 40717
    mov ecx, outbuf
    call itoa
    mov ebx, outbuf
    call puts
    hlt
.data
numstr: .asciz "40712"
outbuf: .space 16
`, vos.ProcSpec{})
	if got := string(os.Console); got != "40717\n" {
		t.Errorf("console = %q", got)
	}
}

func TestAtoiStopsAtNonDigit(t *testing.T) {
	os := vos.New()
	InstallInto(os)
	p := runProg(t, os, `
.import "libc.so"
.text
_start:
    mov ebx, s
    call atoi
    mov ebx, eax
    call exit
.data
s: .asciz "42abc"
`, vos.ProcSpec{})
	if p.ExitCode != 42 {
		t.Errorf("atoi = %d", p.ExitCode)
	}
}

func TestItoaZero(t *testing.T) {
	os := vos.New()
	InstallInto(os)
	runProg(t, os, `
.import "libc.so"
.text
_start:
    mov ebx, 0
    mov ecx, outbuf
    call itoa
    mov ebx, outbuf
    call print
    hlt
.data
outbuf: .space 8
`, vos.ProcSpec{})
	if got := string(os.Console); got != "0" {
		t.Errorf("itoa(0) printed %q", got)
	}
}

func TestNativesEdgeCases(t *testing.T) {
	// Natives called outside a process context fail safely (EAX=0).
	fns := Natives()
	c := isa.NewCPU()
	fns["gethostbyname"](c)
	if c.Regs[isa.EAX] != 0 {
		t.Error("gethostbyname without a process returned a pointer")
	}
	fns["gethostbyaddr"](c)
	if c.Regs[isa.EAX] != 0 {
		t.Error("gethostbyaddr without a process returned a pointer")
	}
}

func TestGethostbyaddrResolves(t *testing.T) {
	os := vos.New()
	InstallInto(os)
	os.Net.AddHost("10.1.2.3", "backbone.example")
	runProg(t, os, `
.import "libc.so"
.text
_start:
    mov ebx, addr
    call gethostbyaddr
    cmp eax, 0
    jz fail
    mov ebx, eax
    call print
    hlt
fail:
    mov ebx, 1
    call exit
.data
addr: .asciz "10.1.2.3"
`, vos.ProcSpec{})
	if got := string(os.Console); got != "backbone.example" {
		t.Errorf("console = %q", got)
	}
}
