package vos

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/asm"
)

// buildOS returns an OS with a program installed at /bin/prog.
func buildOS(t *testing.T, src string) *OS {
	t.Helper()
	os := New()
	os.FS.Install("/bin/prog", asm.MustAssemble("/bin/prog", src))
	return os
}

func start(t *testing.T, os *OS, spec ProcSpec) *Process {
	t.Helper()
	if spec.Path == "" {
		spec.Path = "/bin/prog"
	}
	p, err := os.StartProcess(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, os *OS) {
	t.Helper()
	if err := os.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestHelloWorld(t *testing.T) {
	os := buildOS(t, `
.entry _start
.text
_start:
    mov ebx, 1          ; stdout
    mov ecx, msg
    mov edx, 5
    mov eax, 4          ; SYS_write
    int 0x80
    mov ebx, 0
    mov eax, 1          ; SYS_exit
    int 0x80
.data
msg: .asciz "hello"
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if got := string(os.Console); got != "hello" {
		t.Errorf("console = %q", got)
	}
	if p.State != Exited || p.ExitCode != 0 {
		t.Errorf("state=%v code=%d", p.State, p.ExitCode)
	}
}

func TestExitCode(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, 42
    mov eax, 1
    int 0x80
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != 42 {
		t.Errorf("exit code = %d", p.ExitCode)
	}
}

func TestHltIsImplicitExit(t *testing.T) {
	os := buildOS(t, ".text\n_start: hlt\n")
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.State != Exited || p.ExitCode != 0 || p.Fault != nil {
		t.Errorf("state=%v code=%d fault=%v", p.State, p.ExitCode, p.Fault)
	}
}

func TestFaultTerminatesProcess(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov eax, 1
    div eax, 0
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.Fault == nil {
		t.Error("no fault recorded")
	}
	if p.State != Exited {
		t.Error("faulting process still alive")
	}
}

func TestOpenReadFile(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, path
    mov ecx, 0          ; O_RDONLY
    mov eax, 5          ; SYS_open
    int 0x80
    mov ebx, eax        ; fd
    mov ecx, buf
    mov edx, 64
    mov eax, 3          ; SYS_read
    int 0x80
    ; write what was read to stdout
    mov edx, eax
    mov ecx, buf
    mov ebx, 1
    mov eax, 4
    int 0x80
    hlt
.data
path: .asciz "/etc/secret"
buf:  .space 64
`)
	os.FS.Create("/etc/secret", []byte("s3cret"))
	start(t, os, ProcSpec{})
	run(t, os)
	if got := string(os.Console); got != "s3cret" {
		t.Errorf("console = %q", got)
	}
}

func TestOpenMissingFileENOENT(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, path
    mov ecx, 0
    mov eax, 5
    int 0x80
    ; exit with the (negated) result so the test can see it
    neg eax
    mov ebx, eax
    mov eax, 1
    int 0x80
.data
path: .asciz "/no/such"
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != ENOENT {
		t.Errorf("exit = %d, want ENOENT", p.ExitCode)
	}
}

func TestCreateWriteFile(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, path
    mov ecx, 0
    mov eax, 8          ; SYS_creat
    int 0x80
    mov ebx, eax
    mov ecx, data
    mov edx, 4
    mov eax, 4          ; SYS_write
    int 0x80
    mov eax, 6          ; SYS_close
    int 0x80
    hlt
.data
path: .asciz "/tmp/out"
data: .asciz "ABCD"
`)
	start(t, os, ProcSpec{})
	run(t, os)
	f, ok := os.FS.Lookup("/tmp/out")
	if !ok || string(f.Data) != "ABCD" {
		t.Errorf("file = %v", f)
	}
}

func TestStdinRead(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, 0          ; stdin
    mov ecx, buf
    mov edx, 16
    mov eax, 3
    int 0x80
    mov edx, eax
    mov ecx, buf
    mov ebx, 1
    mov eax, 4
    int 0x80
    hlt
.data
buf: .space 16
`)
	start(t, os, ProcSpec{Stdin: []byte("typed")})
	run(t, os)
	if got := string(os.Console); got != "typed" {
		t.Errorf("console = %q", got)
	}
}

func TestArgvOnStack(t *testing.T) {
	// Prints argv[1].
	os := buildOS(t, `
.text
_start:
    mov esi, [esp+4]    ; argv array
    mov ebx, [esi+4]    ; argv[1]
    ; strlen inline (assume < 16): write 3 bytes for the test
    mov ecx, ebx
    mov ebx, 1
    mov edx, 3
    mov eax, 4
    int 0x80
    hlt
`)
	start(t, os, ProcSpec{Argv: []string{"/bin/prog", "abc"}})
	run(t, os)
	if got := string(os.Console); got != "abc" {
		t.Errorf("console = %q", got)
	}
}

func TestForkAndWaitpid(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov eax, 2          ; SYS_fork
    int 0x80
    cmp eax, 0
    jz child
    ; parent: waitpid(child, status, 0)
    mov ebx, eax
    mov ecx, status
    mov edx, 0
    mov eax, 7
    int 0x80
    mov eax, [status]
    shr eax, 8
    mov ebx, eax        ; exit with child's code
    mov eax, 1
    int 0x80
child:
    mov ebx, 7
    mov eax, 1
    int 0x80
.data
status: .space 4
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != 7 {
		t.Errorf("parent exit = %d, want child's 7", p.ExitCode)
	}
	if len(os.Processes()) != 2 {
		t.Errorf("process count = %d", len(os.Processes()))
	}
}

func TestForkMemoryIsolation(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov [shared], 1
    mov eax, 2
    int 0x80
    cmp eax, 0
    jz child
    ; parent waits, then checks its copy is untouched
    mov ebx, eax
    mov ecx, 0
    mov edx, 0
    mov eax, 7
    int 0x80
    mov ebx, [shared]   ; should still be 1
    mov eax, 1
    int 0x80
child:
    mov [shared], 99
    mov ebx, 0
    mov eax, 1
    int 0x80
.data
shared: .space 4
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != 1 {
		t.Errorf("parent saw child's write: exit = %d", p.ExitCode)
	}
}

func TestExecve(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, path
    mov ecx, 0
    mov edx, 0
    mov eax, 11         ; SYS_execve
    int 0x80
    ; should be unreachable on success
    mov ebx, 55
    mov eax, 1
    int 0x80
.data
path: .asciz "/bin/other"
`)
	os.FS.Install("/bin/other", asm.MustAssemble("/bin/other", `
.text
_start:
    mov ebx, 33
    mov eax, 1
    int 0x80
`))
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != 33 {
		t.Errorf("exit = %d, want 33 (the exec'd program)", p.ExitCode)
	}
	if p.Path != "/bin/other" {
		t.Errorf("path = %q", p.Path)
	}
}

func TestExecveMissingReturnsENOENT(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, path
    mov ecx, 0
    mov edx, 0
    mov eax, 11
    int 0x80
    neg eax
    mov ebx, eax
    mov eax, 1
    int 0x80
.data
path: .asciz "/missing"
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != ENOENT {
		t.Errorf("exit = %d", p.ExitCode)
	}
}

func TestExecveNonExecutableENOEXEC(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, path
    mov ecx, 0
    mov edx, 0
    mov eax, 11
    int 0x80
    neg eax
    mov ebx, eax
    mov eax, 1
    int 0x80
.data
path: .asciz "/tmp/data"
`)
	os.FS.Create("/tmp/data", []byte("just bytes"))
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != ENOEXEC {
		t.Errorf("exit = %d, want ENOEXEC", p.ExitCode)
	}
}

const clientSrc = `
.text
_start:
    ; fd = socket()
    mov eax, 102
    mov ebx, 1          ; SYS_socket
    mov ecx, scargs
    int 0x80
    mov [scargs], eax   ; fd
    mov [scargs+4], addr
    ; connect(fd, addr)
    mov eax, 102
    mov ebx, 3          ; SYS_connect
    mov ecx, scargs
    int 0x80
    cmp eax, 0
    jnz fail
    ; send(fd, msg, 4)
    mov [scargs+4], msg
    mov [scargs+8], 4
    mov eax, 102
    mov ebx, 9          ; SYS_send
    mov ecx, scargs
    int 0x80
    ; recv(fd, buf, 16)
    mov [scargs+4], buf
    mov [scargs+8], 16
    mov eax, 102
    mov ebx, 10         ; SYS_recv
    mov ecx, scargs
    int 0x80
    ; write reply to stdout
    mov edx, eax
    mov ecx, buf
    mov ebx, 1
    mov eax, 4
    int 0x80
    hlt
fail:
    mov ebx, 1
    mov eax, 1
    int 0x80
.data
addr:   .asciz "evil.example:6667"
msg:    .asciz "ping"
buf:    .space 16
scargs: .space 12
`

// echoScript replies "pong" to any data.
type echoScript struct{}

func (echoScript) OnConnect(c *RemoteConn)           {}
func (echoScript) OnData(c *RemoteConn, data []byte) { c.Send([]byte("pong")) }

func TestSocketClient(t *testing.T) {
	os := buildOS(t, clientSrc)
	os.Net.AddRemote("evil.example:6667", func() RemoteScript { return echoScript{} })
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode == 1 {
		t.Fatal("connect failed")
	}
	if got := string(os.Console); got != "pong" {
		t.Errorf("console = %q", got)
	}
}

func TestSocketConnectRefused(t *testing.T) {
	os := buildOS(t, clientSrc)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != 1 {
		t.Errorf("exit = %d, want 1 (connect failure)", p.ExitCode)
	}
}

const serverSrc = `
.text
_start:
    ; fd = socket()
    mov eax, 102
    mov ebx, 1
    mov ecx, scargs
    int 0x80
    mov [scargs], eax
    mov [scargs+4], addr
    ; bind(fd, addr)
    mov eax, 102
    mov ebx, 2
    mov ecx, scargs
    int 0x80
    ; listen(fd)
    mov eax, 102
    mov ebx, 4
    mov ecx, scargs
    int 0x80
    ; conn = accept(fd)
    mov eax, 102
    mov ebx, 5
    mov ecx, scargs
    int 0x80
    mov [scargs], eax   ; conn fd
    ; recv(conn, buf, 16)
    mov [scargs+4], buf
    mov [scargs+8], 16
    mov eax, 102
    mov ebx, 10
    mov ecx, scargs
    int 0x80
    ; echo to stdout
    mov edx, eax
    mov ecx, buf
    mov ebx, 1
    mov eax, 4
    int 0x80
    hlt
.data
addr:   .asciz "localhost:1084"
buf:    .space 16
scargs: .space 12
`

type helloScript struct{}

func (helloScript) OnConnect(c *RemoteConn)    { c.Send([]byte("knock")) }
func (helloScript) OnData(*RemoteConn, []byte) {}

func TestSocketServerAccept(t *testing.T) {
	os := buildOS(t, serverSrc)
	os.Net.ScheduleConnect(50, "localhost:1084", "attacker:4444", helloScript{})
	start(t, os, ProcSpec{})
	run(t, os)
	if got := string(os.Console); got != "knock" {
		t.Errorf("console = %q", got)
	}
}

func TestAcceptDeadlockDetected(t *testing.T) {
	os := buildOS(t, serverSrc) // nobody ever connects
	start(t, os, ProcSpec{})
	if err := os.Run(); err != ErrDeadlock {
		t.Errorf("err = %v, want ErrDeadlock", err)
	}
}

func TestNanosleepAndTime(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov eax, 13         ; SYS_time
    int 0x80
    mov esi, eax
    mov ebx, 5000       ; sleep 5000 ticks
    mov eax, 162
    int 0x80
    mov eax, 13
    int 0x80
    sub eax, esi        ; elapsed
    cmp eax, 5000
    jge ok
    mov ebx, 1
    mov eax, 1
    int 0x80
ok:
    mov ebx, 0
    mov eax, 1
    int 0x80
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != 0 {
		t.Error("time did not advance across nanosleep")
	}
}

func TestDupSharesFile(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, path
    mov ecx, 0x41       ; O_CREAT|O_WRONLY
    mov eax, 5
    int 0x80
    mov ebx, eax
    mov eax, 41         ; SYS_dup
    int 0x80
    mov ebx, eax        ; write via the dup
    mov ecx, data
    mov edx, 2
    mov eax, 4
    int 0x80
    hlt
.data
path: .asciz "/tmp/d"
data: .asciz "hi"
`)
	start(t, os, ProcSpec{})
	run(t, os)
	f, ok := os.FS.Lookup("/tmp/d")
	if !ok || string(f.Data) != "hi" {
		t.Errorf("file via dup = %v", f)
	}
}

func TestGetpid(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov eax, 20
    int 0x80
    mov ebx, eax
    mov eax, 1
    int 0x80
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if int(p.ExitCode) != p.PID {
		t.Errorf("getpid = %d, pid = %d", p.ExitCode, p.PID)
	}
}

// recordingMonitor records syscall names.
type recordingMonitor struct {
	NopMonitor
	names   []string
	verdict Verdict
	killOn  string
}

func (m *recordingMonitor) SyscallEnter(p *Process, sc *SyscallCtx) Verdict {
	m.names = append(m.names, sc.Name)
	if m.killOn != "" && sc.Name == m.killOn {
		return Kill
	}
	return m.verdict
}

func TestMonitorSeesSyscalls(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, path
    mov ecx, 0x41
    mov eax, 5
    int 0x80
    mov ebx, eax
    mov eax, 6
    int 0x80
    mov ebx, 0
    mov eax, 1
    int 0x80
.data
path: .asciz "/t"
`)
	mon := &recordingMonitor{}
	start(t, os, ProcSpec{Monitor: mon, Store: newStore()})
	run(t, os)
	want := []string{"SYS_open", "SYS_close", "SYS_exit"}
	if strings.Join(mon.names, ",") != strings.Join(want, ",") {
		t.Errorf("names = %v", mon.names)
	}
}

func TestMonitorBlockingReadNotifiesOnce(t *testing.T) {
	os := buildOS(t, serverSrc)
	os.Net.ScheduleConnect(5000, "localhost:1084", "attacker:4444", helloScript{})
	mon := &recordingMonitor{}
	start(t, os, ProcSpec{Monitor: mon, Store: newStore()})
	run(t, os)
	reads := 0
	for _, n := range mon.names {
		if n == "SYS_read" || n == "SYS_socketcall" {
			reads++
		}
	}
	// socket, bind, accept, recv, = 4 socketcalls + 1 write; the
	// blocked accept and recv must each appear exactly once.
	socketcalls := 0
	for _, n := range mon.names {
		if n == "SYS_socketcall" {
			socketcalls++
		}
	}
	if socketcalls != 4 {
		t.Errorf("socketcall events = %d (%v), want 4", socketcalls, mon.names)
	}
}

func TestMonitorKillVerdict(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, path
    mov ecx, 0
    mov edx, 0
    mov eax, 11         ; execve — monitor kills here
    int 0x80
    mov ebx, 0
    mov eax, 1
    int 0x80
.data
path: .asciz "/bin/prog"
`)
	mon := &recordingMonitor{killOn: "SYS_execve"}
	p := start(t, os, ProcSpec{Monitor: mon, Store: newStore()})
	run(t, os)
	if !p.Killed {
		t.Error("process not marked killed")
	}
	if p.State != Exited {
		t.Error("killed process still alive")
	}
}

func TestMonitorForkPropagates(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov eax, 2
    int 0x80
    cmp eax, 0
    jz child
    mov ebx, eax
    mov ecx, 0
    mov edx, 0
    mov eax, 7          ; waitpid
    int 0x80
    hlt
child:
    mov ebx, 9
    mov eax, 1          ; child's exit must be seen by the monitor
    int 0x80
`)
	mon := &recordingMonitor{}
	start(t, os, ProcSpec{Monitor: mon, Store: newStore()})
	run(t, os)
	exits := 0
	for _, n := range mon.names {
		if n == "SYS_exit" {
			exits++
		}
	}
	if exits != 1 {
		t.Errorf("monitored exits = %d (child inherits monitor, parent hlt): %v", exits, mon.names)
	}
}

func TestRunBudget(t *testing.T) {
	os := New()
	os.SetMaxSteps(1000)
	os.FS.Install("/bin/prog", asm.MustAssemble("/bin/prog", `
.text
_start:
loop: jmp loop
`))
	start(t, os, ProcSpec{})
	if err := os.Run(); err != ErrBudget {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestGuestListingViaDot(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, dot
    mov ecx, 0
    mov eax, 5
    int 0x80
    mov ebx, eax
    mov ecx, buf
    mov edx, 128
    mov eax, 3
    int 0x80
    mov edx, eax
    mov ecx, buf
    mov ebx, 1
    mov eax, 4
    int 0x80
    hlt
.data
dot: .asciz "."
buf: .space 128
`)
	os.FS.Create("/etc/a", nil)
	start(t, os, ProcSpec{})
	run(t, os)
	if !strings.Contains(string(os.Console), "/etc/a") {
		t.Errorf("listing = %q", os.Console)
	}
}

func TestUnlink(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, path
    mov eax, 10         ; SYS_unlink
    int 0x80
    neg eax
    mov ebx, eax
    mov eax, 1
    int 0x80
.data
path: .asciz "/tmp/victim"
`)
	os.FS.Create("/tmp/victim", []byte("x"))
	mon := &recordingMonitor{}
	p := start(t, os, ProcSpec{Monitor: mon, Store: newStore()})
	run(t, os)
	if p.ExitCode != 0 {
		t.Errorf("unlink failed: %d", p.ExitCode)
	}
	if _, ok := os.FS.Lookup("/tmp/victim"); ok {
		t.Error("file still present")
	}
	found := false
	for _, n := range mon.names {
		if n == "SYS_unlink" {
			found = true
		}
	}
	if !found {
		t.Errorf("monitor missed unlink: %v", mon.names)
	}
}

func TestUnlinkMissing(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, path
    mov eax, 10
    int 0x80
    neg eax
    mov ebx, eax
    mov eax, 1
    int 0x80
.data
path: .asciz "/nope"
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != ENOENT {
		t.Errorf("exit = %d, want ENOENT", p.ExitCode)
	}
}

func TestLseek(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, path
    mov ecx, 0
    mov eax, 5          ; open
    int 0x80
    mov esi, eax        ; fd
    ; lseek(fd, 2, SEEK_SET)
    mov ebx, esi
    mov ecx, 2
    mov edx, 0
    mov eax, 19
    int 0x80
    ; read 2 bytes from offset 2
    mov ebx, esi
    mov ecx, buf
    mov edx, 2
    mov eax, 3
    int 0x80
    ; lseek(fd, -1, SEEK_END), read last byte
    mov ebx, esi
    mov ecx, -1
    mov edx, 2
    mov eax, 19
    int 0x80
    mov ebx, esi
    mov ecx, buf+2
    mov edx, 1
    mov eax, 3
    int 0x80
    ; print the 3 gathered bytes
    mov ebx, 1
    mov ecx, buf
    mov edx, 3
    mov eax, 4
    int 0x80
    hlt
.data
path: .asciz "/data/f"
buf:  .space 4
`)
	os.FS.Create("/data/f", []byte("abcdef"))
	start(t, os, ProcSpec{})
	run(t, os)
	if got := string(os.Console); got != "cdf" {
		t.Errorf("console = %q, want cdf", got)
	}
}

func TestLseekErrors(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    ; lseek on stdin -> EBADF
    mov ebx, 0
    mov ecx, 0
    mov edx, 0
    mov eax, 19
    int 0x80
    neg eax
    mov ebx, eax
    mov eax, 1
    int 0x80
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != EBADF {
		t.Errorf("exit = %d, want EBADF", p.ExitCode)
	}
}

func TestSchedulerStressManyProcesses(t *testing.T) {
	// A 2^7 = 128-process tree with interleaved sleeps: the scheduler
	// must run it to completion with all children reaped.
	os := buildOS(t, `
.text
_start:
    mov esi, 7
loop:
    cmp esi, 0
    jz work
    mov eax, 2          ; fork
    int 0x80
    dec esi
    jmp loop
work:
    mov ebx, 500
    mov eax, 162        ; nanosleep
    int 0x80
    mov edi, 200
spin:
    dec edi
    cmp edi, 0
    jnz spin
    mov ebx, 0
    mov eax, 1
    int 0x80
`)
	start(t, os, ProcSpec{})
	run(t, os)
	procs := os.Processes()
	if len(procs) != 128 {
		t.Fatalf("processes = %d, want 128", len(procs))
	}
	for _, p := range procs {
		if p.Alive() {
			t.Fatalf("pid %d still alive", p.PID)
		}
		if p.ExitCode != 0 {
			t.Fatalf("pid %d exit = %d", p.PID, p.ExitCode)
		}
	}
}

func TestBadFDErrors(t *testing.T) {
	// read/write/close/dup on a bogus fd all return EBADF.
	os := buildOS(t, `
.text
_start:
    mov ebx, 99
    mov ecx, buf
    mov edx, 4
    mov eax, 3          ; read(99)
    int 0x80
    mov esi, eax
    mov ebx, 99
    mov eax, 4          ; write(99)
    int 0x80
    add esi, eax
    mov ebx, 99
    mov eax, 6          ; close(99)
    int 0x80
    add esi, eax
    mov ebx, 99
    mov eax, 41         ; dup(99)
    int 0x80
    add esi, eax
    neg esi
    mov ebx, esi
    shr ebx, 2          ; 4*EBADF/4 = EBADF
    mov eax, 1
    int 0x80
.data
buf: .space 4
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != EBADF {
		t.Errorf("combined errno = %d, want EBADF", p.ExitCode)
	}
}

func TestSocketcallBadSubcall(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov eax, 102
    mov ebx, 77         ; bogus sub-call
    mov ecx, args
    int 0x80
    neg eax
    mov ebx, eax
    mov eax, 1
    int 0x80
.data
args: .space 12
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != EINVAL {
		t.Errorf("exit = %d, want EINVAL", p.ExitCode)
	}
}

func TestUnknownSyscallENOSYS(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov eax, 9999
    int 0x80
    neg eax
    mov ebx, eax
    mov eax, 1
    int 0x80
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != 38 {
		t.Errorf("exit = %d, want ENOSYS", p.ExitCode)
	}
}

func TestWaitpidNoChildren(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, -1
    mov ecx, 0
    mov edx, 0
    mov eax, 7          ; waitpid with no children
    int 0x80
    neg eax
    mov ebx, eax
    mov eax, 1
    int 0x80
`)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != ECHILD {
		t.Errorf("exit = %d, want ECHILD", p.ExitCode)
	}
}

func TestOpenTruncateAndAppend(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    ; append to the existing file
    mov ebx, path
    mov ecx, 0x401      ; O_WRONLY|O_APPEND
    mov eax, 5
    int 0x80
    mov ebx, eax
    mov ecx, add1
    mov edx, 3
    mov eax, 4
    int 0x80
    mov eax, 6
    int 0x80
    hlt
.data
path: .asciz "/f"
add1: .asciz "NEW"
`)
	os.FS.Create("/f", []byte("OLD"))
	start(t, os, ProcSpec{})
	run(t, os)
	f, _ := os.FS.Lookup("/f")
	if string(f.Data) != "OLDNEW" {
		t.Errorf("append result = %q", f.Data)
	}
}

func TestWriteToClosedSocketEPIPE(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov eax, 102
    mov ebx, 1
    mov ecx, args
    int 0x80
    mov [args], eax
    mov [args+4], addr
    mov eax, 102
    mov ebx, 3          ; connect
    mov ecx, args
    int 0x80
    ; the peer closes immediately (closer script); give it the write
    mov [args+4], buf
    mov [args+8], 4
    mov eax, 102
    mov ebx, 9          ; send -> EPIPE
    mov ecx, args
    int 0x80
    neg eax
    mov ebx, eax
    mov eax, 1
    int 0x80
.data
addr: .asciz "gone:1"
buf:  .space 4
args: .space 12
`)
	os.Net.AddRemote("gone:1", func() RemoteScript { return closerScript{} })
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != 32 {
		t.Errorf("exit = %d, want EPIPE", p.ExitCode)
	}
}

// fileWriteProg opens /data/f with flags, optionally lseeks to seek
// (SEEK_SET), writes msg unless it is empty, then reopens the file
// read-only and echoes its contents to stdout.
func fileWriteProg(flags, seek int, msg string) string {
	var b strings.Builder
	b.WriteString(`
.text
_start:
    mov ebx, path
    mov ecx, ` + strconv.Itoa(flags) + `
    mov eax, 5          ; open
    int 0x80
    mov esi, eax
`)
	if seek >= 0 {
		b.WriteString(`
    mov ebx, esi
    mov ecx, ` + strconv.Itoa(seek) + `
    mov edx, 0
    mov eax, 19         ; lseek(fd, seek, SEEK_SET)
    int 0x80
`)
	}
	if msg != "" {
		b.WriteString(`
    mov ebx, esi
    mov ecx, msg
    mov edx, ` + strconv.Itoa(len(msg)) + `
    mov eax, 4          ; write
    int 0x80
`)
	}
	b.WriteString(`
    mov ebx, esi
    mov eax, 6          ; close
    int 0x80
    mov ebx, path
    mov ecx, 0
    mov eax, 5          ; reopen read-only
    int 0x80
    mov ebx, eax
    mov ecx, buf
    mov edx, 32
    mov eax, 3          ; read the whole file
    int 0x80
    mov edx, eax
    mov ebx, 1
    mov ecx, buf
    mov eax, 4          ; echo it
    int 0x80
    hlt
.data
path: .asciz "/data/f"
msg:  .asciz "` + msg + `"
buf:  .space 32
`)
	return b.String()
}

// TestFileCopyOnWrite pins the sharing contract of FS.Create: a file
// shares the caller's bytes until the guest first writes it, and every
// kind of write copies first. The caller's slice carries spare
// capacity, so an append through the file into it would show too.
func TestFileCopyOnWrite(t *testing.T) {
	for _, tc := range []struct {
		name        string
		flags, seek int
		want        string // the file after writing "XY"
	}{
		{"in place", ORdWr, -1, "XYcdef"},
		{"past EOF after lseek", ORdWr, 8, "abcdef\x00\x00XY"},
		{"truncate", OWrOnly | OTrunc, -1, "XY"},
		{"append", OWrOnly | OAppend, -1, "abcdefXY"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := make([]byte, 6, 16)
			copy(src, "abcdef")
			orig := append([]byte(nil), src[:cap(src)]...)
			// Two worlds built from one slice, each writing its own
			// bytes: neither may see the other's write.
			for _, msg := range []string{"XY", "PQ"} {
				os := buildOS(t, fileWriteProg(tc.flags, tc.seek, msg))
				os.FS.Create("/data/f", src)
				start(t, os, ProcSpec{})
				run(t, os)
				want := strings.Replace(tc.want, "XY", msg, 1)
				if got := string(os.Console); got != want {
					t.Errorf("%s: guest read back %q, want %q", msg, got, want)
				}
				if f, _ := os.FS.Lookup("/data/f"); string(f.Data) != want {
					t.Errorf("%s: file holds %q, want %q", msg, f.Data, want)
				}
			}
			if got := src[:cap(src)]; string(got) != string(orig) {
				t.Errorf("caller's bytes changed: %q, want %q", got, orig)
			}
		})
	}
	t.Run("never written", func(t *testing.T) {
		src := []byte("abcdef")
		os := buildOS(t, fileWriteProg(ORdOnly, -1, ""))
		os.FS.Create("/data/f", src)
		start(t, os, ProcSpec{})
		run(t, os)
		if got := string(os.Console); got != "abcdef" {
			t.Errorf("guest read back %q", got)
		}
		if f, _ := os.FS.Lookup("/data/f"); &f.Data[0] != &src[0] {
			t.Error("a file the guest never wrote no longer aliases the caller's array")
		}
	})
}
