package secpert

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/taint"
)

// --- History (§10 items 6 & 8) unit tests ---

func TestHistoryRecordsSessionWrites(t *testing.T) {
	hist := NewHistory()
	cfg := DefaultConfig()
	cfg.History = hist
	s := New(cfg, nil)
	s.HandleIO(writeEvent("/tmp/a", taint.File, nil, src(taint.Binary, "/bin/x")))
	s.HandleIO(writeEvent("stdout", taint.File, nil, src(taint.Binary, "/bin/x")))
	if _, ok := hist.WrittenIn("/tmp/a"); ok {
		t.Error("write visible before FinishSession")
	}
	s.FinishSession()
	if sess, ok := hist.WrittenIn("/tmp/a"); !ok || sess != 1 {
		t.Errorf("WrittenIn = %d, %v", sess, ok)
	}
	if _, ok := hist.WrittenIn("stdout"); ok {
		t.Error("stdout recorded as a written file")
	}
}

func TestHistoryFirstWriterWins(t *testing.T) {
	hist := NewHistory()
	for i := 0; i < 2; i++ {
		cfg := DefaultConfig()
		cfg.History = hist
		s := New(cfg, nil)
		s.HandleIO(writeEvent("/tmp/a", taint.File, nil, src(taint.Binary, "/bin/x")))
		s.FinishSession()
	}
	if sess, _ := hist.WrittenIn("/tmp/a"); sess != 1 {
		t.Errorf("first-writer session = %d", sess)
	}
}

func TestHistoryEscalatesExecve(t *testing.T) {
	hist := NewHistory()
	hist.commit([]string{"/tmp/dropped"})
	cfg := DefaultConfig()
	cfg.History = hist
	s := New(cfg, nil)
	// A user-named execve of the recorded file must warn High even
	// though nothing is hardcoded.
	s.HandleAccess(&events.Access{
		Call: "SYS_execve", PID: 1,
		Resource: events.Ref{
			Name: "/tmp/dropped", Type: taint.File,
			Origin: []taint.Source{src(taint.UserInput, "argv")},
		},
	})
	ws := s.Warnings()
	if len(ws) != 1 || ws[0].Severity != High {
		t.Fatalf("warnings = %v", ws)
	}
	if !strings.Contains(ws[0].Message, "previous session (session 1)") {
		t.Errorf("message = %q", ws[0].Message)
	}
}

func TestHistoryApprovalSuppression(t *testing.T) {
	hist := NewHistory()
	cfg := DefaultConfig()
	cfg.History = hist
	s := New(cfg, nil)
	s.HandleAccess(execveEvent(src(taint.Binary, "/bin/e")))
	ws := s.Warnings()
	if len(ws) != 1 {
		t.Fatal("no warning to approve")
	}
	hist.Approve(&ws[0])
	if !hist.Approved(&ws[0]) {
		t.Fatal("approval not recorded")
	}

	s2 := New(cfg, nil)
	s2.HandleAccess(execveEvent(src(taint.Binary, "/bin/e")))
	if len(s2.Warnings()) != 0 || s2.Suppressed() != 1 {
		t.Errorf("warnings = %v, suppressed = %d", s2.Warnings(), s2.Suppressed())
	}
	// A *different* warning still fires.
	s2.HandleAccess(&events.Access{
		Call: "SYS_execve", PID: 1,
		Resource: events.Ref{Name: "/bin/other", Type: taint.File,
			Origin: []taint.Source{src(taint.Binary, "/bin/e")}},
	})
	if len(s2.Warnings()) != 1 {
		t.Error("different warning also suppressed")
	}
}

func TestFinishSessionWithoutHistory(t *testing.T) {
	s := newSecpert()
	s.HandleIO(writeEvent("/f", taint.File, nil, src(taint.Binary, "/b")))
	s.FinishSession() // must not panic
}

// --- Memory abuse (§10 item 4) ---

func brkEvent(mem int64) *events.Access {
	return &events.Access{Call: "SYS_brk", PID: 1, Time: 10, MemBytes: mem}
}

func TestMemoryAbuseThresholds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableMemoryAbuse = true
	s := New(cfg, nil)
	s.HandleAccess(brkEvent(cfg.MemHighBytes - 1))
	if len(s.Warnings()) != 0 {
		t.Fatal("warned below threshold")
	}
	s.HandleAccess(brkEvent(cfg.MemHighBytes))
	if ws := s.Warnings(); len(ws) != 1 || ws[0].Severity != Low {
		t.Fatalf("warnings = %v", ws)
	}
	// Dedupe at the Low tier.
	s.HandleAccess(brkEvent(cfg.MemHighBytes + 5))
	if len(s.Warnings()) != 1 {
		t.Fatal("Low memory warning repeated")
	}
	// The Medium tier fires once more.
	s.HandleAccess(brkEvent(cfg.MemVeryHighBytes))
	ws := s.Warnings()
	if len(ws) != 2 || ws[1].Severity != Medium {
		t.Fatalf("warnings = %v", ws)
	}
}

func TestMemoryAbuseDisabled(t *testing.T) {
	s := newSecpert()
	s.HandleAccess(brkEvent(1 << 30))
	if len(s.Warnings()) != 0 {
		t.Error("memory rule ran while disabled")
	}
}

// --- Content analysis (§10 item 5) ---

func TestClassifyContent(t *testing.T) {
	cases := []struct {
		head string
		kind string
		exec bool
	}{
		{"\x7fELF\x02\x01", "ELF binary", true},
		{"#!/bin/sh", "script with interpreter line", true},
		{"MZ\x90", "PE binary", true},
		{"hello", "", false},
		{"", "", false},
	}
	for _, tc := range cases {
		kind, exec := classifyContent(tc.head)
		if kind != tc.kind || exec != tc.exec {
			t.Errorf("classifyContent(%q) = %q, %v", tc.head, kind, exec)
		}
	}
}

func TestContentAnalysisUnitLevel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableContentAnalysis = true
	s := New(cfg, nil)
	// Register the socket with a user origin so the base severity is
	// Low, then drop executable content to a user-named file.
	s.HandleAccess(&events.Access{
		Call: "SYS_socketcall:connect", PID: 1,
		Resource: events.Ref{Name: "dl:80", Type: taint.Socket,
			Origin: []taint.Source{src(taint.UserInput, "argv")}},
	})
	ev := writeEvent("out.bin", taint.File,
		[]taint.Source{src(taint.Binary, "/bin/dl")},
		src(taint.Socket, "dl:80"))
	ev.Head = []byte("\x7fELF\x01\x01")
	s.HandleIO(ev)
	ws := s.Warnings()
	if len(ws) != 1 || ws[0].Severity != High {
		t.Fatalf("warnings = %v", ws)
	}
	if !strings.Contains(ws[0].Message, "appears to be executable (ELF binary)") {
		t.Errorf("message = %q", ws[0].Message)
	}
}

// --- Misc helpers ---

func TestMergeSources(t *testing.T) {
	a := []taint.Source{src(taint.Binary, "/a")}
	b := []taint.Source{src(taint.Binary, "/a"), src(taint.UserInput, "argv")}
	got := mergeSources(a, b)
	if len(got) != 2 {
		t.Errorf("merge = %v", got)
	}
	if got2 := mergeSources(nil, b); len(got2) != 2 {
		t.Errorf("merge from nil = %v", got2)
	}
	// The merge does not mutate its first argument's backing array
	// visible range.
	if len(a) != 1 {
		t.Error("merge mutated input")
	}
}

func TestOriginsAccumulate(t *testing.T) {
	s := newSecpert()
	openFile(s, "/shared", src(taint.Binary, "/bin/a"))
	openFile(s, "/shared", src(taint.UserInput, "argv"))
	got := s.origins["/shared"]
	if len(got) != 2 {
		t.Errorf("origins = %v", got)
	}
}

func TestWarningJSON(t *testing.T) {
	w := Warning{Severity: High, Category: InformationFlow, Rule: "check_write",
		Message: "m", PID: 3, Time: 9}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"severity":"HIGH"`, `"category":"information-flow"`, `"rule":"check_write"`} {
		if !strings.Contains(s, want) {
			t.Errorf("json = %s missing %s", s, want)
		}
	}
}

func TestServerContextUserAddress(t *testing.T) {
	s := newSecpert()
	openFile(s, "data.txt", src(taint.Binary, "/bin/d"))
	ev := writeEvent("peer:9", taint.Socket, nil, src(taint.File, "data.txt"))
	ev.Server = true
	ev.ServerAddr = "0.0.0.0:80"
	ev.ServerOrigin = []taint.Source{src(taint.UserInput, "argv")}
	s.HandleIO(ev)
	ws := s.Warnings()
	if len(ws) != 1 {
		t.Fatalf("warnings = %v", ws)
	}
	if !strings.Contains(ws[0].Message, "the server address was given by the user") {
		t.Errorf("message = %q", ws[0].Message)
	}
}

func TestConfigFromJSON(t *testing.T) {
	cfg, err := ConfigFromJSON([]byte(`{
		"TrustedBinaries": ["libc.so"],
		"RareFrequency": 10,
		"EnableMemoryAbuse": true
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.TrustedBinaries) != 1 || cfg.RareFrequency != 10 || !cfg.EnableMemoryAbuse {
		t.Errorf("cfg = %+v", cfg)
	}
	// Unset fields keep their defaults.
	if cfg.CloneCountHigh != DefaultConfig().CloneCountHigh {
		t.Error("defaults lost")
	}
	if _, err := ConfigFromJSON([]byte("{bad")); err == nil {
		t.Error("bad JSON accepted")
	}
}
