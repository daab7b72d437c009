// Tests for the observability API: the event bus wired through every
// layer, sink composition, the CLIPS text sinks, and the metrics
// registry a run feeds.
package hth_test

import (
	"bytes"
	"strings"
	"testing"

	hth "repro"
	"repro/internal/chaos"
	"repro/internal/obs"
)

func trojanSystem() *hth.System {
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/ls", lsSrc)
	sys.MustInstallSource("/bin/trojan", trojanSrc)
	return sys
}

// observed is DefaultConfig with the given observers attached.
func observed(sinks ...hth.Observer) hth.Config {
	cfg := hth.DefaultConfig()
	cfg.Observers = sinks
	return cfg
}

// TestEventStreamShape runs the canonical trojan guest with a
// collecting observer and checks the stream's structural guarantees:
// bracketing run.start/run.end, strictly increasing Seq, monotone
// virtual time per pid, and the expected per-layer events.
func TestEventStreamShape(t *testing.T) {
	var c obs.Collector
	res, err := trojanSystem().Run(
		observed(&c),
		hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) == 0 {
		t.Fatal("no events published")
	}
	first, last := c.Events[0], c.Events[len(c.Events)-1]
	if first.Kind != obs.KindRunStart || first.Str != "/bin/trojan" {
		t.Errorf("first event = %+v, want run.start", first)
	}
	if last.Kind != obs.KindRunEnd || last.Str != "clean" || last.Num != res.TotalSteps {
		t.Errorf("last event = %+v, want clean run.end with %d instrs", last, res.TotalSteps)
	}

	lastTime := map[int32]uint64{}
	counts := map[obs.Kind]int{}
	for i, e := range c.Events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d: Seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.Time < lastTime[e.PID] {
			t.Errorf("event %d: virtual time went backwards for pid %d (%d < %d)",
				i, e.PID, e.Time, lastTime[e.PID])
		}
		lastTime[e.PID] = e.Time
		counts[e.Kind]++
	}
	// The trojan execs /bin/ls in place (one process, one exit); the
	// execve is traced by vos and fired on by secpert. Non-returning
	// calls (execve, exit) publish an enter but no exit.
	if counts[obs.KindProcSpawn] != 1 || counts[obs.KindProcExit] != 1 {
		t.Errorf("spawn/exit = %d/%d, want 1/1", counts[obs.KindProcSpawn], counts[obs.KindProcExit])
	}
	if counts[obs.KindSyscallEnter] == 0 ||
		counts[obs.KindSyscallExit] > counts[obs.KindSyscallEnter] {
		t.Errorf("syscall enter/exit = %d/%d",
			counts[obs.KindSyscallEnter], counts[obs.KindSyscallExit])
	}
	if counts[obs.KindRuleFire] != 1 || counts[obs.KindWarning] != 1 {
		t.Errorf("rule.fire/warning = %d/%d, want 1/1",
			counts[obs.KindRuleFire], counts[obs.KindWarning])
	}
	if counts[obs.KindSchedEnd] != 1 {
		t.Errorf("sched.end = %d, want 1", counts[obs.KindSchedEnd])
	}
}

// TestCLIPSTextByteIdentical checks the CLIPSText and CLIPSTranscript
// sinks render Secpert's printout: the rule-fire trace and warning
// text, and with the transcript the Appendix-A.1 assert echo. The
// transcript is the fire trace with assert lines interleaved, so
// dropping those lines must give back CLIPSText's bytes exactly.
func TestCLIPSTextByteIdentical(t *testing.T) {
	run := func(sink hth.Observer) {
		_, err := trojanSystem().Run(observed(sink), hth.RunSpec{Path: "/bin/trojan"})
		if err != nil {
			t.Fatal(err)
		}
	}

	var text, transcript bytes.Buffer
	run(hth.CLIPSText(&text))
	run(hth.CLIPSTranscript(&transcript))
	s := text.String()
	if !strings.Contains(s, "FIRE 1 check_execve") || !strings.Contains(s, "Warning [LOW]") {
		t.Errorf("no fire trace or warning in output: %q", s)
	}
	if strings.Contains(s, "CLIPS> (assert") {
		t.Errorf("CLIPSText echoed asserts: %q", s)
	}
	if !strings.Contains(transcript.String(), "CLIPS> (assert") {
		t.Errorf("no assert echo in transcript: %q", transcript.String())
	}
	var rest strings.Builder
	for _, line := range strings.SplitAfter(transcript.String(), "\n") {
		if !strings.HasPrefix(line, "CLIPS> (assert ") {
			rest.WriteString(line)
		}
	}
	if rest.String() != s {
		t.Errorf("transcript minus asserts diverges from CLIPSText:\n--- transcript ---\n%s--- CLIPSText ---\n%s",
			rest.String(), s)
	}
}

// TestSessionCLIPSTranscript is the regression test for the bug where
// NewSession dropped the assert echo: Run and Session share runCore, so
// a CLIPSTranscript attached to a session must see it too.
func TestSessionCLIPSTranscript(t *testing.T) {
	var out bytes.Buffer
	sn := trojanSystem().NewSession(observed(hth.CLIPSTranscript(&out)))
	if _, err := sn.Start(hth.RunSpec{Path: "/bin/trojan"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sn.Wait(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CLIPS> (assert") {
		t.Errorf("session dropped the assert echo; transcript = %q", out.String())
	}
}

// TestChaosFaultsOnBus asserts every fault in Result.Chaos also
// appears as a chaos.fault bus event, payload matching.
func TestChaosFaultsOnBus(t *testing.T) {
	var c obs.Collector
	sys := readerSystem()
	cfg := observed(&c)
	cfg.Chaos = &chaos.Plan{Seed: 7, Rate: 1, Only: []chaos.Kind{chaos.ReadErr}}
	res, err := sys.Run(cfg, hth.RunSpec{Path: "/bin/reader"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chaos) == 0 {
		t.Fatal("no faults injected")
	}
	var events []obs.Event
	for _, e := range c.Events {
		if e.Kind == obs.KindChaosFault {
			events = append(events, e)
		}
	}
	if len(events) != len(res.Chaos) {
		t.Fatalf("chaos.fault events = %d, Result.Chaos = %d", len(events), len(res.Chaos))
	}
	for i, f := range res.Chaos {
		e := events[i]
		if e.Str != f.Kind.String() || e.Num != uint64(f.Errno) ||
			int(e.PID) != f.PID || e.Time != f.Clock {
			t.Errorf("fault %d: event %+v does not match fault %+v", i, e, f)
		}
	}
}

// TestMetricsObserver checks a run feeds an attached registry: syscall
// and warning counters, and the end-of-run gauges.
func TestMetricsObserver(t *testing.T) {
	m := hth.NewMetrics()
	_, err := trojanSystem().Run(
		observed(m),
		hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.Counters["syscall.SYS_execve"] != 1 {
		t.Errorf("syscall.SYS_execve = %d, want 1", snap.Counters["syscall.SYS_execve"])
	}
	if snap.Counters["warning.check_execve"] != 1 {
		t.Errorf("warning.check_execve = %d, want 1", snap.Counters["warning.check_execve"])
	}
	if snap.Gauges["harrier.instructions"] == 0 {
		t.Error("harrier.instructions gauge missing")
	}
	if snap.Gauges["guest_instrs_per_sec"] == 0 {
		t.Error("guest_instrs_per_sec gauge missing")
	}
}

// TestJSONLTraceReplayable records a run as JSONL and replays it with
// obs.ReadJSONL — the same path `hth-trace -replay` uses.
func TestJSONLTraceReplayable(t *testing.T) {
	var buf bytes.Buffer
	_, err := trojanSystem().Run(
		observed(hth.JSONL(&buf)),
		hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var sawWarning bool
	err = obs.ReadJSONL(&buf, func(e obs.Event) error {
		n++
		if e.Kind == obs.KindWarning && e.Str == "check_execve" {
			sawWarning = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || !sawWarning {
		t.Errorf("replayed %d events, warning seen = %v", n, sawWarning)
	}
}
