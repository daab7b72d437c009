// Package guestlib provides the guest shared objects the corpus
// programs link against — most importantly libc.so, which supplies
// system(), gethostbyname() and small string/I-O helpers. Reproducing
// libc as a distinct, *trusted* image is load-bearing for the paper's
// results: the ElmExploit's system("/bin/cat …") goes unwarned
// because the "/bin/sh" string that reaches execve is hardcoded in
// libc.so, which Secpert trusts (paper §8.3.1), and gethostbyname is
// the routine whose data flow Harrier short-circuits (paper §7.2).
//
// Guest calling convention: arguments in EBX, ECX, EDX; result in EAX.
// Routines preserve EBX unless documented otherwise.
package guestlib

import (
	"sync"

	"repro/internal/asm"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/vos"
)

// LibcName is the image name of the guest C library.
const LibcName = "libc.so"

// LdName is the image name of the guest dynamic linker (present so
// the trusted-image set matches the paper's: libc and ld-linux).
const LdName = "ld-linux.so"

const libcSrc = `
.image "libc.so"

.text

; system(EBX=command) — fork; child executes /bin/sh -c command;
; parent waits. Returns the child's wait status in EAX.
system:
    push ebx
    mov eax, 2              ; SYS_fork
    int 0x80
    cmp eax, 0
    jnz system_parent
    ; child: execve("/bin/sh", ["/bin/sh", "-c", cmd], NULL)
    pop ebx                 ; the command string
    mov [sys_argv], sh_path
    mov [sys_argv+4], dash_c
    mov [sys_argv+8], ebx
    mov [sys_argv+12], 0
    mov ebx, sh_path
    mov ecx, sys_argv
    mov edx, 0
    mov eax, 11             ; SYS_execve
    int 0x80
    ; exec failed: _exit(127)
    mov ebx, 127
    mov eax, 1
    int 0x80
    hlt
system_parent:
    pop ebx
    push ebx
    mov ebx, eax            ; child pid
    mov ecx, sys_status
    mov edx, 0
    mov eax, 7              ; SYS_waitpid
    int 0x80
    mov eax, [sys_status]
    pop ebx
    ret

; strlen(EBX=str) -> EAX
strlen:
    push ecx
    push edx
    mov eax, 0
    mov ecx, ebx
strlen_loop:
    movb edx, [ecx]
    test edx, 0xFF
    jz strlen_done
    inc eax
    inc ecx
    jmp strlen_loop
strlen_done:
    pop edx
    pop ecx
    ret

; print(EBX=str) — write the NUL-terminated string to stdout.
print:
    push ebx
    push ecx
    push edx
    call strlen
    mov ecx, ebx            ; buf
    mov edx, eax            ; len
    mov ebx, 1              ; stdout
    mov eax, 4              ; SYS_write
    int 0x80
    pop edx
    pop ecx
    pop ebx
    ret

; memcpy(EBX=dst, ECX=src, EDX=n)
memcpy:
    push eax
    push ebx
    push ecx
    push edx
memcpy_loop:
    cmp edx, 0
    jz memcpy_done
    movb eax, [ecx]
    movb [ebx], eax
    inc ebx
    inc ecx
    dec edx
    jmp memcpy_loop
memcpy_done:
    pop edx
    pop ecx
    pop ebx
    pop eax
    ret

; strcpy(EBX=dst, ECX=src) — copies including the terminator.
strcpy:
    push eax
    push ebx
    push ecx
strcpy_loop:
    movb eax, [ecx]
    movb [ebx], eax
    test eax, 0xFF
    jz strcpy_done
    inc ebx
    inc ecx
    jmp strcpy_loop
strcpy_done:
    pop ecx
    pop ebx
    pop eax
    ret

; strcmp(EBX=a, ECX=b) -> EAX = 0 when equal, else the difference of
; the first differing bytes.
strcmp:
    push ebx
    push ecx
    push edx
    push esi
strcmp_loop:
    movb eax, [ebx]
    and eax, 0xFF
    movb edx, [ecx]
    and edx, 0xFF
    mov esi, eax
    sub esi, edx
    cmp esi, 0
    jnz strcmp_done
    cmp eax, 0              ; both ended: equal
    jz strcmp_done
    inc ebx
    inc ecx
    jmp strcmp_loop
strcmp_done:
    mov eax, esi
    pop esi
    pop edx
    pop ecx
    pop ebx
    ret

; atoi(EBX=str) -> EAX: unsigned decimal conversion, stops at the
; first non-digit.
atoi:
    push ebx
    push ecx
    mov eax, 0
atoi_loop:
    movb ecx, [ebx]
    and ecx, 0xFF
    cmp ecx, '0'
    jl atoi_done
    cmp ecx, '9'
    jg atoi_done
    mul eax, 10
    add eax, ecx
    sub eax, '0'
    inc ebx
    jmp atoi_loop
atoi_done:
    pop ecx
    pop ebx
    ret

; itoa(EBX=value, ECX=buffer) -> EAX = length. Writes the unsigned
; decimal representation plus a NUL terminator.
itoa:
    push ebx
    push ecx
    push edx
    push esi
    push edi
    mov esi, ecx            ; out pointer
    mov edi, 0              ; digit count (reversed in tmp)
    mov eax, ebx
itoa_digits:
    mov edx, eax
    mod edx, 10
    add edx, '0'
    mov ecx, itoa_tmp
    add ecx, edi
    movb [ecx], edx
    inc edi
    div eax, 10
    cmp eax, 0
    jnz itoa_digits
    ; reverse into the caller's buffer
    mov eax, edi            ; length to return
itoa_rev:
    dec edi
    mov ecx, itoa_tmp
    add ecx, edi
    movb edx, [ecx]
    movb [esi], edx
    inc esi
    cmp edi, 0
    jnz itoa_rev
    movb [esi], 0
    pop edi
    pop esi
    pop edx
    pop ecx
    pop ebx
    ret

; puts(EBX=str) — print plus a newline.
puts:
    call print
    push ebx
    mov ebx, puts_nl
    call print
    pop ebx
    ret

; exit(EBX=code) — does not return.
exit:
    mov eax, 1              ; SYS_exit
    int 0x80
    hlt

; gethostbyname(EBX=name) -> EAX = pointer to the resolved network
; address string, or 0. Host-implemented: the resolution consults the
; simulated hosts table, outside the guest's data flow — which is why
; Harrier must short-circuit it (paper §7.2).
gethostbyname:
    .native gethostbyname

; gethostbyaddr(EBX=addr) -> EAX = pointer to the resolved host name
; string, or 0.
gethostbyaddr:
    .native gethostbyaddr

.data
sh_path:     .asciz "/bin/sh"
dash_c:      .asciz "-c"
sys_argv:    .space 16
sys_status:  .space 4
hostent_buf: .space 64
itoa_tmp:    .space 16
puts_nl:     .asciz "\n"
`

const ldSrc = `
.image "ld-linux.so"
.text
; The dynamic linker's visible surface is a no-op in the simulator;
; loading and relocation are performed by the host loader. The image
; exists so that the trusted-binaries set matches the paper's.
_dl_start:
    ret
.data
_dl_ident: .asciz "ld-linux.so.2"
`

// Libc returns the process-wide libc.so image, assembled on first use.
// The image is shared by every System in the process: callers must
// never mutate it (see image.Image).
var Libc = sync.OnceValue(func() *image.Image {
	return asm.MustAssemble(LibcName, libcSrc)
})

// Ld returns the process-wide ld-linux.so image, assembled on first
// use. Shared like Libc: never mutate it.
var Ld = sync.OnceValue(func() *image.Image {
	return asm.MustAssemble(LdName, ldSrc)
})

// Natives returns the host implementations of libc's native routines.
// The map is process-wide and shared: read it, never write it.
var Natives = sync.OnceValue(func() map[string]func(*isa.CPU) {
	return map[string]func(*isa.CPU){
		"gethostbyname": gethostbyname,
		"gethostbyaddr": gethostbyaddr,
	}
})

// InstallInto installs the shared libc.so and ld-linux.so images into
// the OS filesystem and registers their native routines. It assembles
// nothing after the first call in a process.
func InstallInto(os *vos.OS) {
	os.FS.Install(LibcName, Libc())
	os.FS.Install(LdName, Ld())
	for name, fn := range Natives() {
		os.Natives[name] = fn
	}
}

// hostentBuf locates libc's static result buffer in the calling
// process.
func hostentBuf(c *isa.CPU) (uint32, bool) {
	p, ok := c.Ctx.(*vos.Process)
	if !ok {
		return 0, false
	}
	li, ok := p.Images.Loaded(LibcName)
	if !ok {
		return 0, false
	}
	return liSymbol(li, "hostent_buf")
}

func liSymbol(li interface {
	SymbolAddr(string) (uint32, bool)
}, name string) (uint32, bool) {
	return li.SymbolAddr(name)
}

func gethostbyname(c *isa.CPU) {
	p, ok := c.Ctx.(*vos.Process)
	if !ok {
		c.Regs[isa.EAX] = 0
		return
	}
	buf, ok := hostentBuf(c)
	if !ok {
		c.Regs[isa.EAX] = 0
		return
	}
	name := c.Mem.CString(c.Regs[isa.EBX])
	addr, found := p.OS.Net.ResolveHost(name)
	if !found {
		c.Regs[isa.EAX] = 0
		return
	}
	c.Mem.WriteCString(buf, addr)
	c.Regs[isa.EAX] = buf
}

func gethostbyaddr(c *isa.CPU) {
	// Reverse resolution reuses the hosts table; for the simulator's
	// purposes the identity of the returned string is what matters.
	gethostbyname(c)
}
