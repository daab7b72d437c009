package hth_test

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	hth "repro"
	"repro/internal/obs"
)

// openSpans counts the recorder's spans not yet closed.
func openSpans(rec *obs.SpanRecorder) int {
	n := 0
	for _, sp := range rec.Spans() {
		if sp.End == 0 {
			n++
		}
	}
	return n
}

// spansByName indexes a recorder's spans by name.
func spansByName(rec *obs.SpanRecorder) map[string][]obs.Span {
	out := map[string][]obs.Span{}
	for _, sp := range rec.Spans() {
		out[sp.Name] = append(out[sp.Name], sp)
	}
	return out
}

// TestServiceJobSpanTree pins the tentpole: a normal job's trace is a
// fully closed tree — job → admit/queue/exec/verdict, with runCore's
// phase spans (load/instrument/execute/report) grafted under the exec
// span and the per-tier children under execute summing to (at most)
// the execute span — and it exports as Chrome trace JSON over HTTP.
func TestServiceJobSpanTree(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{Workers: 1})
	h, err := s.Submit(trojanSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, h)
	if res.Status != "done" {
		t.Fatalf("status %q: %+v", res.Status, res.Error)
	}
	rec := h.Spans()
	if rec == nil {
		t.Fatal("admitted job has no span recorder")
	}
	if rec.TraceID() != h.ID() {
		t.Errorf("trace id %q, want job id %q", rec.TraceID(), h.ID())
	}
	if n := openSpans(rec); n != 0 {
		t.Errorf("%d spans still open after Done()", n)
	}
	byName := spansByName(rec)
	root := rec.Root()
	if root == nil || root.Name != "job" || root.Parent != 0 || root.Status != "done" {
		t.Fatalf("root span = %+v", root)
	}
	for _, name := range []string{"admit", "queue", "exec", "verdict", "load", "instrument", "execute", "report"} {
		sps := byName[name]
		if len(sps) != 1 {
			t.Fatalf("span %q: %d instances, want 1 (have %v)", name, len(sps), names(rec))
		}
		if sps[0].End == 0 {
			t.Errorf("span %q never closed", name)
		}
	}
	exec := byName["exec"][0]
	if exec.Parent != root.ID {
		t.Errorf("exec span parent %d, want root %d", exec.Parent, root.ID)
	}
	if exec.Status != "clean" {
		t.Errorf("exec span status %q, want the scheduler outcome", exec.Status)
	}
	// runCore phases hang off the exec span.
	for _, name := range []string{"load", "instrument", "execute", "report"} {
		if p := byName[name][0].Parent; p != exec.ID {
			t.Errorf("%s span parent %d, want exec %d", name, p, exec.ID)
		}
	}
	// Tier children: laid end-to-end under execute, summing to roughly
	// the execute span. The TierTimer samples its own clock at tier
	// transitions while the span is synthesized from the scheduler wall
	// measured outside it, so the sum can overshoot by the few hundred
	// nanoseconds between those reads — allow 5% + a microsecond of
	// skew, never more.
	execute := byName["execute"][0]
	var tierNS int64
	for _, sp := range rec.Spans() {
		if len(sp.Name) > 5 && sp.Name[:5] == "tier." {
			if sp.Parent != execute.ID {
				t.Errorf("%s parent %d, want execute %d", sp.Name, sp.Parent, execute.ID)
			}
			tierNS += sp.Duration()
		}
	}
	if tierNS == 0 {
		t.Error("no tier children under the execute span")
	}
	if execDur := execute.Duration(); tierNS > execDur+execDur/20+int64(time.Microsecond) {
		t.Errorf("tier children sum %dns exceeds execute span %dns beyond clock skew", tierNS, execDur)
	}
	// Spans nest: every child lies within its parent's interval (1ms
	// slack for clock-source rounding between recorders).
	const slack = int64(time.Millisecond)
	all := map[uint64]obs.Span{}
	for _, sp := range rec.Spans() {
		all[sp.ID] = sp
	}
	for _, sp := range all {
		if sp.Parent == 0 {
			continue
		}
		p, ok := all[sp.Parent]
		if !ok {
			t.Errorf("span %s has unknown parent %d", sp.Name, sp.Parent)
			continue
		}
		if sp.Start < p.Start-slack || sp.End > p.End+slack {
			t.Errorf("span %s [%d,%d] outside parent %s [%d,%d]",
				sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End)
		}
	}

	// The HTTP export: GET /jobs/{id}/trace is valid Chrome trace JSON
	// with one event per span; unknown ids are 404.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/jobs/" + h.ID() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /trace: %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace endpoint: invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(rec.Spans()) {
		t.Errorf("trace endpoint: %d events, want %d", len(doc.TraceEvents), len(rec.Spans()))
	}
	if r404, err := srv.Client().Get(srv.URL + "/jobs/zzz/trace"); err != nil {
		t.Fatal(err)
	} else {
		r404.Body.Close()
		if r404.StatusCode != 404 {
			t.Errorf("unknown job trace: %d, want 404", r404.StatusCode)
		}
	}
	drainService(t, s)
}

func names(rec *obs.SpanRecorder) []string {
	var out []string
	for _, sp := range rec.Spans() {
		out = append(out, sp.Name)
	}
	return out
}

// TestServiceCrashEndsJobOnce pins the crash shape: a worker panic
// ends its job at once in one typed worker-crash error naming the
// panic value. The monitor is deterministic, so a Setup hook that
// panics panics the same way on a re-run: two submissions of one spec
// fail identically, each with one queue and one exec span (closed as
// "crash"). The crashes recycle two workers and leave the pool fit
// to run the next job.
func TestServiceCrashEndsJobOnce(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{Workers: 1, QueueDepth: 8})
	spec := trojanSpec("acme")
	spec.Setup = func(*hth.System) { panic("setup: no such device") }
	var msgs []string
	for i := 0; i < 2; i++ {
		h, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res := waitJob(t, h)
		if res.Status != "failed" || res.Error == nil || res.Error.Code != hth.JobWorkerCrash {
			t.Fatalf("run %d: status %q error %+v, want the typed worker crash", i, res.Status, res.Error)
		}
		if !strings.Contains(res.Error.Msg, "setup: no such device") {
			t.Errorf("run %d: crash message %q does not name the panic value", i, res.Error.Msg)
		}
		msgs = append(msgs, res.Error.Msg)
		rec := h.Spans()
		if n := openSpans(rec); n != 0 {
			t.Errorf("run %d: %d spans open after the crash", i, n)
		}
		byName := spansByName(rec)
		if n := len(byName["queue"]); n != 1 {
			t.Errorf("run %d: %d queue spans, want 1: %v", i, n, names(rec))
		}
		if ex := byName["exec"]; len(ex) != 1 || ex[0].Status != "crash" {
			t.Errorf("run %d: exec spans %+v, want one closed as crash", i, ex)
		}
		if root := rec.Root(); root.Status != hth.JobWorkerCrash {
			t.Errorf("run %d: root status %q, want %q", i, root.Status, hth.JobWorkerCrash)
		}
	}
	if msgs[0] != msgs[1] {
		t.Errorf("a re-run crashed differently: %q vs %q", msgs[0], msgs[1])
	}
	if got := s.Health().Recycled; got != 2 {
		t.Errorf("recycled = %d, want 2 (one per crashed job)", got)
	}
	h, err := s.Submit(trojanSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, h)
	if res.Status != "done" {
		t.Errorf("healthy job after two crashes: status %q, want done", res.Status)
	}
	drainService(t, s)
}

// TestServiceDeadlineSpanStatus pins deadline attribution: a job that
// blows its wall-clock budget terminates with its exec span closed as
// "deadline", never left open.
func TestServiceDeadlineSpanStatus(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{Workers: 1})
	spec := hth.JobSpec{
		Tenant: "acme",
		Programs: map[string]string{"/bin/spin": `
.text
_start:
loop: jmp loop
`},
		Path:       "/bin/spin",
		DeadlineMS: 1,
	}
	h, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, h)
	if res.Status != "done" || res.Outcome != "deadline" {
		t.Fatalf("status %q outcome %q, want a deadline termination", res.Status, res.Outcome)
	}
	rec := h.Spans()
	if n := openSpans(rec); n != 0 {
		t.Errorf("%d spans open after deadline abort", n)
	}
	byName := spansByName(rec)
	if ex := byName["exec"]; len(ex) != 1 || ex[0].Status != "deadline" {
		t.Fatalf("exec spans %+v, want one closed as deadline", ex)
	}
	if root := rec.Root(); root.End == 0 {
		t.Error("root span left open by deadline path")
	}
	drainService(t, s)
}

// TestServiceHealthLatencyRollups pins the /healthz SLO plane: after a
// completed job, the health snapshot carries queue/exec/e2e quantile
// rollups and a deadline-burn p95, all positive and ordered.
func TestServiceHealthLatencyRollups(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{Workers: 1})
	h, err := s.Submit(trojanSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	if res := waitJob(t, h); res.Status != "done" {
		t.Fatalf("status %q", res.Status)
	}
	hs := s.Health()
	for _, stage := range []string{"queue", "exec", "e2e"} {
		r, ok := hs.Latency[stage]
		if !ok {
			t.Fatalf("healthz missing %q rollup (have %v)", stage, hs.Latency)
		}
		if r.Count != 1 || r.P50MS <= 0 || r.P50MS > r.P95MS || r.P95MS > r.P99MS {
			t.Errorf("%s rollup malformed: %+v", stage, r)
		}
	}
	if hs.Latency["e2e"].P50MS < hs.Latency["exec"].P50MS {
		t.Errorf("e2e p50 %.3f < exec p50 %.3f", hs.Latency["e2e"].P50MS, hs.Latency["exec"].P50MS)
	}
	if hs.DeadlineBurnP95 <= 0 || hs.DeadlineBurnP95 > 1 {
		t.Errorf("deadline burn p95 = %v, want (0, 1] for a well-behaved job", hs.DeadlineBurnP95)
	}
	drainService(t, s)
}
