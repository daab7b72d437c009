package secpert

import (
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/expert"
	"repro/internal/taint"
)

func newSecpert() *Secpert { return New(DefaultConfig(), nil) }

func src(t taint.SourceType, name string) taint.Source {
	return taint.Source{Type: t, Name: name}
}

func execveEvent(origin ...taint.Source) *events.Access {
	return &events.Access{
		Call: "SYS_execve",
		PID:  1,
		Resource: events.Ref{
			Name: "/bin/ls", Type: taint.File, Origin: origin,
		},
		Time: 100, Freq: 5, Addr: "8048403",
	}
}

func TestExecveHardcodedLow(t *testing.T) {
	s := newSecpert()
	s.HandleAccess(execveEvent(src(taint.Binary, "/bin/evil")))
	ws := s.Warnings()
	if len(ws) != 1 {
		t.Fatalf("warnings = %d", len(ws))
	}
	if ws[0].Severity != Low || ws[0].Rule != "check_execve" {
		t.Errorf("warning = %+v", ws[0])
	}
	if !strings.Contains(ws[0].Message, `Found SYS_execve call ("/bin/ls")`) ||
		!strings.Contains(ws[0].Message, `originated from ("/bin/evil")`) {
		t.Errorf("message = %q", ws[0].Message)
	}
}

func TestExecveUserInputNoWarning(t *testing.T) {
	s := newSecpert()
	s.HandleAccess(execveEvent(src(taint.UserInput, "argv")))
	if len(s.Warnings()) != 0 {
		t.Errorf("warnings = %v", s.Warnings())
	}
}

func TestExecveTrustedBinaryFiltered(t *testing.T) {
	// The ElmExploit case: system() passes "/bin/sh" whose string
	// lives in libc.so, which is trusted — no warning (§8.3.1).
	s := newSecpert()
	s.HandleAccess(execveEvent(src(taint.Binary, "libc.so")))
	if len(s.Warnings()) != 0 {
		t.Errorf("trusted binary warned: %v", s.Warnings())
	}
}

func TestExecveSocketHigh(t *testing.T) {
	s := newSecpert()
	s.HandleAccess(execveEvent(src(taint.Socket, "evil.example:6667")))
	ws := s.Warnings()
	if len(ws) != 1 || ws[0].Severity != High {
		t.Fatalf("warnings = %v", ws)
	}
	if !strings.Contains(ws[0].Message, `originated from ("evil.example:6667")`) {
		t.Errorf("message = %q", ws[0].Message)
	}
}

func TestExecveRareMedium(t *testing.T) {
	s := newSecpert()
	ev := execveEvent(src(taint.Binary, "/bin/evil"))
	ev.Freq = 1
	ev.Time = 50_000 // past LongTime
	s.HandleAccess(ev)
	ws := s.Warnings()
	if len(ws) != 1 || ws[0].Severity != Medium {
		t.Fatalf("warnings = %v", ws)
	}
	if !strings.Contains(ws[0].Message, "rarely executed") {
		t.Errorf("message = %q", ws[0].Message)
	}
}

func TestExecveFrequentNotRare(t *testing.T) {
	s := newSecpert()
	ev := execveEvent(src(taint.Binary, "/bin/evil"))
	ev.Freq = 100
	ev.Time = 50_000
	s.HandleAccess(ev)
	if ws := s.Warnings(); len(ws) != 1 || ws[0].Severity != Low {
		t.Fatalf("warnings = %v", ws)
	}
}

func TestExecveEarlyRareStillLow(t *testing.T) {
	// Rare code at program start is normal (initialization); the
	// LongTime condition keeps it Low.
	s := newSecpert()
	ev := execveEvent(src(taint.Binary, "/bin/evil"))
	ev.Freq = 1
	ev.Time = 10
	s.HandleAccess(ev)
	if ws := s.Warnings(); len(ws) != 1 || ws[0].Severity != Low {
		t.Fatalf("warnings = %v", ws)
	}
}

func cloneEvent(count, rate int64) *events.Access {
	return &events.Access{
		Call: "SYS_clone", PID: 1, Time: 100,
		CloneCount: count, CloneRate: rate,
	}
}

func TestCloneCountLow(t *testing.T) {
	s := newSecpert()
	s.HandleAccess(cloneEvent(3, 1))
	if len(s.Warnings()) != 0 {
		t.Fatal("warned below threshold")
	}
	s.HandleAccess(cloneEvent(8, 1))
	ws := s.Warnings()
	if len(ws) != 1 || ws[0].Severity != Low || ws[0].Category != ResourceAbuse {
		t.Fatalf("warnings = %v", ws)
	}
	// Dedupe: further clones do not repeat the warning.
	s.HandleAccess(cloneEvent(9, 1))
	if len(s.Warnings()) != 1 {
		t.Error("clone count warning repeated")
	}
}

func TestCloneRateMedium(t *testing.T) {
	s := newSecpert()
	s.HandleAccess(cloneEvent(9, 9))
	sevs := map[Severity]int{}
	for _, w := range s.Warnings() {
		sevs[w.Severity]++
	}
	if sevs[Low] != 1 || sevs[Medium] != 1 {
		t.Fatalf("warnings = %v", s.Warnings())
	}
	if !strings.Contains(s.Warnings()[1].Message, "very frequent in a short period") &&
		!strings.Contains(s.Warnings()[0].Message, "very frequent in a short period") {
		t.Error("rate message missing")
	}
}

// openFile records a file's name provenance via an open event.
func openFile(s *Secpert, name string, origin ...taint.Source) {
	s.HandleAccess(&events.Access{
		Call: "SYS_open", PID: 1,
		Resource: events.Ref{Name: name, Type: taint.File, Origin: origin},
		Time:     50,
	})
}

func writeEvent(target string, targetType taint.SourceType, targetOrigin []taint.Source, data ...taint.Source) *events.IO {
	return &events.IO{
		Call: "SYS_write", PID: 1, Dir: events.Write,
		Data: data,
		Resource: events.Ref{
			Name: target, Type: targetType, Origin: targetOrigin,
		},
		Time: 200, Freq: 5,
	}
}

func TestBinaryToHardcodedFileHigh(t *testing.T) {
	// grabem / vixie / superforker shape (§8.3).
	s := newSecpert()
	s.HandleIO(writeEvent(".exrc%", taint.File,
		[]taint.Source{src(taint.Binary, "/bin/grabem")},
		src(taint.Binary, "/bin/grabem")))
	ws := s.Warnings()
	if len(ws) != 1 || ws[0].Severity != High {
		t.Fatalf("warnings = %v", ws)
	}
	m := ws[0].Message
	if !strings.Contains(m, "Found Write call to .exrc%") ||
		!strings.Contains(m, `The Data written to this file is originated from the BINARY:("/bin/grabem")`) ||
		!strings.Contains(m, "Moreover, it seems that the name of the file: .exrc%") {
		t.Errorf("message = %q", m)
	}
}

func TestBinaryToUserFileNoWarning(t *testing.T) {
	s := newSecpert()
	s.HandleIO(writeEvent("out.txt", taint.File,
		[]taint.Source{src(taint.UserInput, "argv")},
		src(taint.Binary, "/bin/app")))
	if len(s.Warnings()) != 0 {
		t.Errorf("warnings = %v", s.Warnings())
	}
}

func TestBinaryToHardcodedSocketLow(t *testing.T) {
	// pwsafe's modified build: library data to a hardcoded server
	// (§8.4.1) — Low.
	s := newSecpert()
	s.HandleIO(writeEvent("duero:40400", taint.Socket,
		[]taint.Source{src(taint.Binary, "/bin/pwsafe")},
		src(taint.Binary, "/lib/libcrypto.so.4")))
	ws := s.Warnings()
	if len(ws) != 1 || ws[0].Severity != Low {
		t.Fatalf("warnings = %v", ws)
	}
	m := ws[0].Message
	if !strings.Contains(m, "Data Flowing From: /lib/libcrypto.so.4 To: duero:40400 (AF_INET)") ||
		!strings.Contains(m, "target (client) socket-name was hardcoded in:") {
		t.Errorf("message = %q", m)
	}
}

func TestFileToSocketMatrix(t *testing.T) {
	cases := []struct {
		name                   string
		fileOrigin, sockOrigin taint.Source
		wantSev                Severity
		wantWarn               bool
	}{
		{"user-user", src(taint.UserInput, "argv"), src(taint.UserInput, "argv"), Low, false},
		{"user-hard", src(taint.UserInput, "argv"), src(taint.Binary, "/bin/x"), Low, true},
		{"hard-user", src(taint.Binary, "/bin/x"), src(taint.UserInput, "argv"), Low, true},
		{"hard-hard", src(taint.Binary, "/bin/x"), src(taint.Binary, "/bin/x"), High, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSecpert()
			openFile(s, "/data/f", tc.fileOrigin)
			s.HandleIO(writeEvent("host:99", taint.Socket,
				[]taint.Source{tc.sockOrigin},
				src(taint.File, "/data/f")))
			ws := s.Warnings()
			if tc.wantWarn {
				if len(ws) != 1 || ws[0].Severity != tc.wantSev {
					t.Fatalf("warnings = %v", ws)
				}
				if !strings.Contains(ws[0].Message, "Data Flowing From: /data/f To: host:99") {
					t.Errorf("message = %q", ws[0].Message)
				}
			} else if len(ws) != 0 {
				t.Fatalf("unexpected warnings = %v", ws)
			}
		})
	}
}

func TestFileToFileMatrix(t *testing.T) {
	s := newSecpert()
	openFile(s, "/data/f", src(taint.Binary, "/bin/x"))
	s.HandleIO(writeEvent("/tmp/copy", taint.File,
		[]taint.Source{src(taint.Binary, "/bin/x")},
		src(taint.File, "/data/f")))
	ws := s.Warnings()
	if len(ws) != 1 || ws[0].Severity != High {
		t.Fatalf("hard-hard file copy: %v", ws)
	}
}

func TestSocketToHardcodedFileHigh(t *testing.T) {
	// Trojan.Lodeight shape: downloaded data dropped to a hardcoded
	// path (§2.1).
	s := newSecpert()
	s.HandleAccess(&events.Access{
		Call: "SYS_socketcall:connect", PID: 1,
		Resource: events.Ref{Name: "evil:80", Type: taint.Socket,
			Origin: []taint.Source{src(taint.Binary, "/bin/dl")}},
	})
	s.HandleIO(writeEvent("/tmp/payload", taint.File,
		[]taint.Source{src(taint.Binary, "/bin/dl")},
		src(taint.Socket, "evil:80")))
	ws := s.Warnings()
	if len(ws) != 1 || ws[0].Severity != High {
		t.Fatalf("warnings = %v", ws)
	}
	if !strings.Contains(ws[0].Message, "source socket-address was hardcoded in:") {
		t.Errorf("message = %q", ws[0].Message)
	}
}

func TestHardwareToHardcodedFileHigh(t *testing.T) {
	s := newSecpert()
	s.HandleIO(writeEvent("/tmp/hwinfo", taint.File,
		[]taint.Source{src(taint.Binary, "/bin/x")},
		src(taint.Hardware, "cpuid")))
	ws := s.Warnings()
	if len(ws) != 1 || ws[0].Severity != High {
		t.Fatalf("warnings = %v", ws)
	}
	if !strings.Contains(ws[0].Message, "HARDWARE") {
		t.Errorf("message = %q", ws[0].Message)
	}
}

func TestHardwareToUserFileNoWarning(t *testing.T) {
	s := newSecpert()
	s.HandleIO(writeEvent("out", taint.File,
		[]taint.Source{src(taint.UserInput, "argv")},
		src(taint.Hardware, "cpuid")))
	if len(s.Warnings()) != 0 {
		t.Errorf("warnings = %v", s.Warnings())
	}
}

func TestUserInputToHardcodedSocketHigh(t *testing.T) {
	// PWSteal pattern: keystrokes to a predefined address (§2.1).
	s := newSecpert()
	s.HandleIO(writeEvent("attacker:80", taint.Socket,
		[]taint.Source{src(taint.Binary, "/bin/steal")},
		src(taint.UserInput, "stdin")))
	ws := s.Warnings()
	if len(ws) != 1 || ws[0].Severity != High {
		t.Fatalf("warnings = %v", ws)
	}
}

func TestUserInputToHardcodedFileMedium(t *testing.T) {
	s := newSecpert()
	s.HandleIO(writeEvent(".exrc%", taint.File,
		[]taint.Source{src(taint.Binary, "/bin/grab")},
		src(taint.UserInput, "stdin")))
	ws := s.Warnings()
	if len(ws) != 1 || ws[0].Severity != Medium {
		t.Fatalf("warnings = %v", ws)
	}
}

func TestStdoutWritesNeverWarn(t *testing.T) {
	s := newSecpert()
	openFile(s, "/data/f", src(taint.Binary, "/bin/x"))
	s.HandleIO(writeEvent("stdout", taint.File, nil,
		src(taint.File, "/data/f"), src(taint.Binary, "/bin/x")))
	if len(s.Warnings()) != 0 {
		t.Errorf("stdout warned: %v", s.Warnings())
	}
}

func TestServerContextLines(t *testing.T) {
	// pma shape: hardcoded-named file data flowing to an accepted
	// connection (§8.3.6) — High, with the server context lines.
	s := newSecpert()
	openFile(s, "outpipe32425", src(taint.Binary, "/bin/pmad"))
	ev := writeEvent("gateway:36982", taint.Socket, nil,
		src(taint.File, "outpipe32425"))
	ev.Server = true
	ev.ServerAddr = "LocalHost:11116"
	ev.ServerOrigin = []taint.Source{src(taint.Binary, "/bin/pmad")}
	s.HandleIO(ev)
	ws := s.Warnings()
	if len(ws) != 1 || ws[0].Severity != High {
		t.Fatalf("warnings = %v", ws)
	}
	m := ws[0].Message
	if !strings.Contains(m, "Data Flowing From: outpipe32425 To: gateway:36982 (AF_INET)") ||
		!strings.Contains(m, "it is a server with the address: LocalHost:11116 (AF_INET)") ||
		!strings.Contains(m, `the server address was hardcoded in: ("/bin/pmad")`) {
		t.Errorf("message = %q", m)
	}
}

func TestReadsDoNotWarn(t *testing.T) {
	s := newSecpert()
	ev := writeEvent("/f", taint.File,
		[]taint.Source{src(taint.Binary, "/bin/x")},
		src(taint.Binary, "/bin/x"))
	ev.Dir = events.Read
	s.HandleIO(ev)
	if len(s.Warnings()) != 0 {
		t.Errorf("read warned: %v", s.Warnings())
	}
}

func TestAdvisorKill(t *testing.T) {
	s := New(DefaultConfig(), KillAtOrAbove(High))
	d := s.HandleAccess(execveEvent(src(taint.Socket, "evil:1")))
	if d != Terminate {
		t.Error("High warning did not terminate with KillAtOrAbove(High)")
	}
	d = s.HandleAccess(execveEvent(src(taint.Binary, "/bin/e")))
	if d != Proceed {
		t.Error("Low warning terminated")
	}
}

func TestDisableInfoFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableInfoFlow = true
	s := New(cfg, nil)
	s.HandleIO(writeEvent("/x", taint.File,
		[]taint.Source{src(taint.Binary, "/bin/x")},
		src(taint.Binary, "/bin/x")))
	if len(s.Warnings()) != 0 {
		t.Error("info flow rules ran while disabled")
	}
}

func TestDisableFrequency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableFrequency = true
	s := New(cfg, nil)
	ev := execveEvent(src(taint.Binary, "/bin/evil"))
	ev.Freq = 1
	ev.Time = 50_000
	s.HandleAccess(ev)
	if ws := s.Warnings(); len(ws) != 1 || ws[0].Severity != Low {
		t.Fatalf("warnings = %v (frequency should be ignored)", ws)
	}
}

func TestTraceRecordsFires(t *testing.T) {
	s := newSecpert()
	var tr []expert.FireRecord
	s.Engine().OnFire = func(rec expert.FireRecord) { tr = append(tr, rec) }
	s.HandleAccess(execveEvent(src(taint.Binary, "/bin/evil")))
	if len(tr) != 1 || tr[0].Rule != "check_execve" {
		t.Errorf("trace = %v", tr)
	}
	if !strings.HasPrefix(tr[0].String(), "FIRE 1 check_execve: f-") {
		t.Errorf("trace string = %q", tr[0])
	}
}

func TestMaxSeverity(t *testing.T) {
	s := newSecpert()
	if _, any := s.MaxSeverity(); any {
		t.Error("empty secpert reports warnings")
	}
	s.HandleAccess(execveEvent(src(taint.Binary, "/bin/e")))
	s.HandleAccess(execveEvent(src(taint.Socket, "evil:1")))
	sev, any := s.MaxSeverity()
	if !any || sev != High {
		t.Errorf("max = %v, %v", sev, any)
	}
	bySev := map[Severity]int{}
	for _, w := range s.Warnings() {
		bySev[w.Severity]++
	}
	if bySev[Low] != 1 || bySev[High] != 1 {
		t.Errorf("warnings by severity = %v", bySev)
	}
}

func TestSeverityAndCategoryStrings(t *testing.T) {
	if Low.String() != "LOW" || Medium.String() != "MEDIUM" || High.String() != "HIGH" {
		t.Error("severity strings")
	}
	if ExecutionFlow.String() != "execution-flow" ||
		ResourceAbuse.String() != "resource-abuse" ||
		InformationFlow.String() != "information-flow" {
		t.Error("category strings")
	}
	w := Warning{Severity: High, Message: "x"}
	if w.String() != "Warning [HIGH] x" {
		t.Errorf("warning string = %q", w.String())
	}
}
