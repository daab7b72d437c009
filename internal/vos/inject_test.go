package vos

import (
	"testing"
	"time"
)

// stubInjector is a hand-driven FaultInjector for vos-level tests (the
// real injector lives in internal/chaos, which imports this package).
type stubInjector struct {
	failNum   uint32 // fail syscalls with this number...
	failErrno uint32 // ...with this errno
	clamp     uint32 // clamp completing reads to this many bytes, 0 = off
	dropConns bool   // drop every scheduled inbound connection
	delay     uint64 // delay scheduled inbound connections once
	dropData  bool   // drop every remote response
	points    []FaultPoint
}

func (s *stubInjector) SyscallFault(fp FaultPoint) (uint32, bool) {
	s.points = append(s.points, fp)
	if s.failNum != 0 && fp.Num == s.failNum {
		return s.failErrno, true
	}
	return 0, false
}

func (s *stubInjector) ShortRead(fp FaultPoint, want uint32) uint32 {
	if s.clamp > 0 && s.clamp < want {
		return s.clamp
	}
	return want
}

func (s *stubInjector) ScheduledConnect(clock uint64, addr string) (uint64, bool) {
	if s.dropConns {
		return 0, true
	}
	d := s.delay
	s.delay = 0
	return d, false
}

func (s *stubInjector) DropRemote(addr string, n int) bool { return s.dropData }

const readFileSrc = `
.text
_start:
    mov ebx, path
    mov ecx, 0          ; O_RDONLY
    mov eax, 5          ; SYS_open
    int 0x80
    cmp eax, 0
    jl fail
    mov ebx, eax
    mov ecx, buf
    mov edx, 16
    mov eax, 3          ; SYS_read
    int 0x80
    cmp eax, 0
    jl fail
    mov ebx, eax        ; exit code = bytes read
    mov eax, 1
    int 0x80
fail:
    mov ebx, 77         ; exit code 77 = syscall failed
    mov eax, 1
    int 0x80
.data
path: .asciz "/t"
buf:  .space 16
`

func TestInjectedReadError(t *testing.T) {
	os := buildOS(t, readFileSrc)
	os.FS.Create("/t", []byte("abcdefgh"))
	inj := &stubInjector{failNum: SysRead, failErrno: EIO}
	os.SetInjector(inj)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != 77 {
		t.Errorf("exit = %d, want 77 (read failed with EIO)", p.ExitCode)
	}
	// The injector saw the open and the read as distinct points with
	// the right identifying fields.
	var sawOpen, sawRead bool
	for _, fp := range inj.points {
		switch fp.Num {
		case SysOpen:
			sawOpen = fp.Path == "/t"
		case SysRead:
			sawRead = fp.FD >= 0
		}
	}
	if !sawOpen || !sawRead {
		t.Errorf("fault points = %+v", inj.points)
	}
}

func TestInjectedShortRead(t *testing.T) {
	os := buildOS(t, readFileSrc)
	os.FS.Create("/t", []byte("abcdefgh"))
	os.SetInjector(&stubInjector{clamp: 3})
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != 3 {
		t.Errorf("exit = %d, want 3 (clamped read)", p.ExitCode)
	}
}

func TestNilInjectorUnchanged(t *testing.T) {
	os := buildOS(t, readFileSrc)
	os.FS.Create("/t", []byte("abcdefgh"))
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != 8 {
		t.Errorf("exit = %d, want 8 (full read)", p.ExitCode)
	}
}

func TestOpenFDBudgetEMFILE(t *testing.T) {
	// Opens the same file six times, counting successes in esi; the
	// first failure breaks out. Exit code = successful opens.
	os := buildOS(t, `
.text
_start:
    mov esi, 0
loop:
    mov ebx, path
    mov ecx, 0
    mov eax, 5          ; SYS_open
    int 0x80
    cmp eax, 0
    jl done
    inc esi
    cmp esi, 6
    jl loop
done:
    mov ebx, esi
    mov eax, 1
    int 0x80
.data
path: .asciz "/t"
`)
	os.FS.Create("/t", []byte("x"))
	// stdin/stdout/stderr occupy three slots; budget 5 leaves two.
	os.SetMaxOpenFDs(5)
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != 2 {
		t.Errorf("exit = %d, want 2 opens before EMFILE", p.ExitCode)
	}
}

func TestFDBudgetDefaultGenerous(t *testing.T) {
	os := buildOS(t, readFileSrc)
	os.FS.Create("/t", []byte("hi"))
	if os.maxFDs != DefaultMaxOpenFDs {
		t.Fatalf("default budget = %d", os.maxFDs)
	}
	os.SetMaxOpenFDs(-1) // explicit opt-out
	if os.maxFDs != -1 {
		t.Fatal("opt-out ignored")
	}
	p := start(t, os, ProcSpec{})
	run(t, os)
	if p.ExitCode != 2 {
		t.Errorf("exit = %d", p.ExitCode)
	}
}

func TestWallClockDeadline(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    jmp _start
`)
	os.SetMaxSteps(1 << 62) // only the deadline can stop this guest
	os.SetDeadline(20 * time.Millisecond)
	start(t, os, ProcSpec{})
	if err := os.Run(); err != ErrDeadline {
		t.Errorf("err = %v, want ErrDeadline", err)
	}
}

func TestDroppedInboundConnection(t *testing.T) {
	os := buildOS(t, serverSrc)
	os.Net.ScheduleConnect(50, "localhost:1084", "attacker:4444", helloScript{})
	os.SetInjector(&stubInjector{dropConns: true})
	start(t, os, ProcSpec{})
	// The only peer never arrives: the blocked accept is a deadlock,
	// reported as a structured outcome rather than a hang.
	if err := os.Run(); err != ErrDeadlock {
		t.Errorf("err = %v, want ErrDeadlock", err)
	}
}

func TestDelayedInboundConnection(t *testing.T) {
	os := buildOS(t, serverSrc)
	os.Net.ScheduleConnect(50, "localhost:1084", "attacker:4444", helloScript{})
	os.SetInjector(&stubInjector{delay: 3000})
	start(t, os, ProcSpec{})
	run(t, os)
	if got := string(os.Console); got != "knock" {
		t.Errorf("console = %q (delayed connection lost?)", got)
	}
	if os.Clock < 3000 {
		t.Errorf("clock = %d, want >= 3000 (delay not applied)", os.Clock)
	}
}

func TestDroppedRemoteResponse(t *testing.T) {
	os := buildOS(t, clientSrc)
	os.Net.AddRemote("evil.example:6667", func() RemoteScript { return echoScript{} })
	os.SetInjector(&stubInjector{dropData: true})
	start(t, os, ProcSpec{})
	// The echo reply is lost in flight; the guest blocks in recv on a
	// connection that stays open, which the scheduler reports as a
	// deadlock instead of spinning forever.
	if err := os.Run(); err != ErrDeadlock {
		t.Errorf("err = %v, want ErrDeadlock", err)
	}
}

// TestHugeWriteBounded reproduces the errno-as-length accident: a
// guest whose read failed (e.g. under fault injection) passes the
// negative result straight to write as the byte count, requesting a
// ~4 GiB transfer. The kernel must clamp the request (MaxRWCount) and
// the console budget must bound what is retained, so one injected
// fault cannot balloon host memory.
func TestHugeWriteBounded(t *testing.T) {
	os := buildOS(t, `
.text
_start:
    mov ebx, 1
    mov ecx, buf
    mov edx, 0xfffffff0 ; a negative errno reused as a length
    mov eax, 4          ; SYS_write
    int 0x80
    mov ebx, 0
    mov eax, 1
    int 0x80
.data
buf: .space 4
`)
	os.maxConsole = 4096
	start(t, os, ProcSpec{})
	run(t, os)
	if len(os.Console) != 4096 {
		t.Errorf("console holds %d bytes, want the 4096 budget", len(os.Console))
	}
	if want := uint64(MaxRWCount - 4096); os.ConsoleDropped != want {
		t.Errorf("dropped = %d, want %d (clamped write minus budget)", os.ConsoleDropped, want)
	}
}

// killOnSock kills the guest at the first socketcall event whose
// sub-operation matches.
type killOnSock struct {
	NopMonitor
	call  uint32
	names []string
}

func (m *killOnSock) SyscallEnter(p *Process, sc *SyscallCtx) Verdict {
	m.names = append(m.names, sc.Name)
	if sc.Sock != nil && sc.Sock.Call == m.call {
		return Kill
	}
	return Continue
}

// TestKillWhileBlockedInRecv kills at the recv event. The remote's
// bytes are already buffered when recv runs, so this covers the
// immediate-attempt path inside block(): the kill lands while the
// syscall completes inline and the quantum must stop on the spot.
func TestKillWhileBlockedInRecv(t *testing.T) {
	os := buildOS(t, serverSrc)
	os.Net.ScheduleConnect(5000, "localhost:1084", "attacker:4444", helloScript{})
	mon := &killOnSock{call: SockRecv}
	p := start(t, os, ProcSpec{Monitor: mon, Store: newStore()})
	run(t, os)
	if p.State != Exited || !p.Killed {
		t.Fatalf("state=%v killed=%v, want killed exit", p.State, p.Killed)
	}
	if got := string(os.Console); got != "" {
		t.Errorf("console = %q, want nothing after kill", got)
	}
	// All descriptors of the killed process are closed.
	if len(p.FDs) != 0 {
		t.Errorf("%d descriptors leaked past termination", len(p.FDs))
	}
}

// TestKillWhileBlockedInAccept exercises the unblock-into-exited
// path: the guest blocks in accept until the scheduled peer dials at
// virtual time 5000, the monitor's verdict on the completing event is
// Kill, and the exited state must survive the scheduler's unblock
// handling (this test caught the quantum re-terminating the process
// as a clean exit and overwriting the kill).
func TestKillWhileBlockedInAccept(t *testing.T) {
	os := buildOS(t, serverSrc)
	os.Net.ScheduleConnect(5000, "localhost:1084", "attacker:4444", helloScript{})
	mon := &killOnSock{call: SockAccept}
	p := start(t, os, ProcSpec{Monitor: mon, Store: newStore()})
	run(t, os)
	if p.State != Exited || !p.Killed {
		t.Fatalf("state=%v killed=%v, want killed exit", p.State, p.Killed)
	}
}
