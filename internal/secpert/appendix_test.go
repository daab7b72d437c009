package secpert

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/expert"
	"repro/internal/taint"
)

// TestAppendixA1FactShape reproduces the fact of paper Appendix A.1:
// the execve.exe micro benchmark's system_call_access fact, with the
// CLIPS rendering.
func TestAppendixA1FactShape(t *testing.T) {
	s := newSecpert()
	ev := &events.Access{
		Call: "SYS_execve",
		PID:  1,
		Resource: events.Ref{
			Name: "/bin/ls",
			Type: taint.File,
			Origin: []taint.Source{{
				Type: taint.Binary,
				Name: "/proj/arch4/mmoffie/PIN/MicroBenchmarks/execve/execve.exe",
			}},
		},
		Time: 33, Freq: 1, Addr: "8048403",
	}
	// Capture the asserted fact before it is retracted.
	var rendered string
	err := s.Engine().DefRule(&expert.Rule{
		Name:     "capture",
		Salience: 100,
		Patterns: []expert.Pattern{{Binder: "f", Template: "system_call_access"}},
		Action: func(ctx *expert.Context, b *expert.Bindings) {
			rendered = b.Fact("f").String()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.HandleAccess(ev)
	for _, want := range []string{
		"(system_call_access",
		"(system_call_name SYS_execve)",
		`(resource_name "/bin/ls")`,
		"(resource_type FILE)",
		`(resource_origin_name ("/proj/arch4/mmoffie/PIN/MicroBenchmarks/execve/execve.exe"))`,
		"(resource_origin_type (BINARY))",
		"(time 33)",
		"(frequency 1)",
		`(address "8048403")`,
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("fact rendering missing %q:\n%s", want, rendered)
		}
	}
}

// TestAppendixA3FireTrace reproduces the firing transcript of Appendix
// A.3: the check_execve rule fires on the fact, prints the FIRE line
// and the [LOW] warning with the originating binary.
func TestAppendixA3FireTrace(t *testing.T) {
	s := newSecpert()
	var out bytes.Buffer
	s.SetOutput(&out)
	s.HandleAccess(&events.Access{
		Call: "SYS_execve",
		PID:  1,
		Resource: events.Ref{
			Name: "/bin/ls",
			Type: taint.File,
			Origin: []taint.Source{{
				Type: taint.Binary,
				Name: "/proj/arch4/mmoffie/PIN/MicroBenchmarks/execve/execve.exe",
			}},
		},
		Time: 33, Freq: 1, Addr: "8048403",
	})
	got := out.String()
	for _, want := range []string{
		"FIRE 1 check_execve: f-",
		`Warning [LOW] Found SYS_execve call ("/bin/ls")`,
		`("/bin/ls") originated from ("/proj/arch4/mmoffie/PIN/MicroBenchmarks/execve/execve.exe")`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("transcript missing %q:\n%s", want, got)
		}
	}
}

// TestAppendixA2RuleConditions verifies the two condition legs of the
// A.2 rule: the severity moves Low -> Medium with rarity and -> High
// with a socket origin, exactly as the rule's bind logic reads.
func TestAppendixA2RuleConditions(t *testing.T) {
	mk := func(freq, time int64, origin taint.Source) Severity {
		s := newSecpert()
		s.HandleAccess(&events.Access{
			Call:     "SYS_execve",
			Resource: events.Ref{Name: "/bin/ls", Type: taint.File, Origin: []taint.Source{origin}},
			Time:     uint64(time), Freq: freq,
		})
		ws := s.Warnings()
		if len(ws) != 1 {
			t.Fatalf("warnings = %v", ws)
		}
		return ws[0].Severity
	}
	bin := taint.Source{Type: taint.Binary, Name: "execve.exe"}
	sock := taint.Source{Type: taint.Socket, Name: "remote:1"}
	if got := mk(10, 100_000, bin); got != Low {
		t.Errorf("frequent hardcoded = %v, want Low", got)
	}
	if got := mk(1, 100_000, bin); got != Medium {
		t.Errorf("rare hardcoded = %v, want Medium", got)
	}
	if got := mk(10, 100_000, sock); got != High {
		t.Errorf("socket origin = %v, want High", got)
	}
}
