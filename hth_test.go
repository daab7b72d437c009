package hth_test

import (
	"strings"
	"testing"

	hth "repro"
	"repro/internal/asm"
	"repro/internal/secpert"
	"repro/internal/vos"
)

const trojanSrc = `
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
`

const lsSrc = `
.text
_start:
    mov ebx, 0
    mov eax, 1
    int 0x80
`

func TestRunMonitored(t *testing.T) {
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/ls", lsSrc)
	sys.MustInstallSource("/bin/trojan", trojanSrc)
	res, err := sys.Run(hth.DefaultConfig(), hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 1 {
		t.Fatalf("warnings = %v", res.Warnings)
	}
	if sev, any := res.MaxSeverity(); !any || sev != hth.Low {
		t.Errorf("MaxSeverity = %v, %v", sev, any)
	}
	if !res.HasWarning("check_execve") || res.HasWarning("check_write") {
		t.Error("HasWarning wrong")
	}
	if res.CountAt(hth.Low) != 1 || res.CountAt(hth.High) != 0 {
		t.Error("CountAt wrong")
	}
	if !strings.Contains(res.Report(), "Warning [LOW]") {
		t.Errorf("Report = %q", res.Report())
	}
	if res.Stats.Instructions == 0 {
		t.Error("no instrumentation stats")
	}
	if tr := res.Secpert.Trace(); len(tr) != 1 {
		t.Errorf("trace = %v", tr)
	}
}

func TestRunUnmonitored(t *testing.T) {
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/ls", lsSrc)
	sys.MustInstallSource("/bin/trojan", trojanSrc)
	cfg := hth.DefaultConfig()
	cfg.Unmonitored = true
	res, err := sys.Run(cfg, hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 || res.Secpert != nil {
		t.Error("unmonitored run produced monitoring output")
	}
	if _, any := res.MaxSeverity(); any {
		t.Error("unmonitored MaxSeverity reports warnings")
	}
	if res.Report() != "No warnings.\n" {
		t.Errorf("Report = %q", res.Report())
	}
}

func TestRunMissingProgram(t *testing.T) {
	sys := hth.NewSystem()
	if _, err := sys.Run(hth.DefaultConfig(), hth.RunSpec{Path: "/nope"}); err == nil {
		t.Error("missing program accepted")
	}
}

// TestNewSystemSharesGuestLibraries pins the per-job world build: every
// System installs the same process-wide libc.so and ld-linux.so images,
// so NewSystem assembles nothing. Assembling libc alone costs ~95
// allocations; NewSystem measures 16.
func TestNewSystemSharesGuestLibraries(t *testing.T) {
	a, b := hth.NewSystem(), hth.NewSystem()
	for _, name := range []string{"libc.so", "ld-linux.so"} {
		fa, okA := a.OS.FS.Lookup(name)
		fb, okB := b.OS.FS.Lookup(name)
		if !okA || !okB || fa.Image == nil {
			t.Fatalf("%s not installed", name)
		}
		if fa.Image != fb.Image {
			t.Errorf("%s: two Systems hold distinct images; the library is rebuilt per job", name)
		}
	}
	if n := testing.AllocsPerRun(100, func() { hth.NewSystem() }); n > 20 {
		t.Errorf("NewSystem allocates %.0f times, want <= 20", n)
	}
}

func TestInstallSourceError(t *testing.T) {
	sys := hth.NewSystem()
	if err := sys.InstallSource("/bin/x", "bogus mnemonic"); err == nil {
		t.Error("bad assembly accepted")
	}
}

// TestInstallSourceDiagnosticsEquivalence pins the error surface: a
// program that fails to assemble reports exactly the assembler's
// diagnostic through the format registry, with nothing wrapped around
// it (a bad program is not a malformed container).
func TestInstallSourceDiagnosticsEquivalence(t *testing.T) {
	sys := hth.NewSystem()
	const bad = ".text\n_start:\n    bogus eax, 1\n"
	err := sys.InstallSource("/bin/bad", bad)
	if err == nil {
		t.Fatal("bad program accepted")
	}
	if _, want := asm.Assemble("/bin/bad", bad); want == nil || err.Error() != want.Error() {
		t.Errorf("diagnostic = %q, assembler says %v", err, want)
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("diagnostic does not name the offending mnemonic: %s", err)
	}
}

func TestAdvisorKillStopsGuest(t *testing.T) {
	// The guest drops a payload (High) and would then run it; a
	// kill-on-High advisor terminates it before the execve happens.
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/dropper", `
.text
_start:
    mov ebx, f
    mov eax, 8          ; creat
    int 0x80
    mov ebx, eax
    mov ecx, payload
    mov edx, 8
    mov eax, 4          ; write -> High -> killed here
    int 0x80
    mov ebx, f
    mov ecx, 0
    mov edx, 0
    mov eax, 11         ; never reached
    int 0x80
    hlt
.data
f:       .asciz "/tmp/evil"
payload: .asciz "PAYLOAD"
`)
	cfg := hth.DefaultConfig()
	cfg.Advisor = secpert.KillAtOrAbove(hth.High)
	res, err := sys.Run(cfg, hth.RunSpec{Path: "/bin/dropper"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Process.Killed {
		t.Fatal("guest not killed")
	}
	if res.HasWarning("check_execve") {
		t.Error("execve ran after the kill")
	}
	// The file was created (before the warning) but the payload
	// write itself was suppressed.
	f, ok := sys.OS.FS.Lookup("/tmp/evil")
	if !ok {
		t.Fatal("file missing")
	}
	if len(f.Data) != 0 {
		t.Errorf("suppressed write still landed: %q", f.Data)
	}
}

func TestSystemHelpers(t *testing.T) {
	sys := hth.NewSystem()
	sys.CreateFile("/etc/x", []byte("data"))
	if _, ok := sys.OS.FS.Lookup("/etc/x"); !ok {
		t.Error("CreateFile failed")
	}
	sys.AddHost("h.example", "1.2.3.4")
	if addr, ok := sys.OS.Net.ResolveHost("h.example"); !ok || addr != "1.2.3.4" {
		t.Error("AddHost failed")
	}
	var fired bool
	sys.AddRemote("r:1", func() vos.RemoteScript {
		fired = true
		return quietScript{}
	})
	if _, err := sys.OS.Net.Connect("r:1"); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("AddRemote factory not invoked")
	}
}

type quietScript struct{}

func (quietScript) OnConnect(*vos.RemoteConn)      {}
func (quietScript) OnData(*vos.RemoteConn, []byte) {}

func TestMustInstallSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	hth.NewSystem().MustInstallSource("/bin/x", "garbage")
}

func TestRunBudgetReported(t *testing.T) {
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/spin", ".text\n_start:\nl: jmp l\n")
	cfg := hth.DefaultConfig()
	cfg.MaxSteps = 5000
	res, err := sys.Run(cfg, hth.RunSpec{Path: "/bin/spin"})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != vos.ErrBudget {
		t.Errorf("RunErr = %v", res.RunErr)
	}
}
