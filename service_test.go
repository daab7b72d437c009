package hth_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	hth "repro"
	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/internal/harrier"
	"repro/internal/vos"
)

// trojanSpec is the canonical warning-producing job: the T4 trojan
// that execs /bin/ls.
func trojanSpec(tenant string) hth.JobSpec {
	return hth.JobSpec{
		Tenant: tenant,
		Programs: map[string]string{
			"/bin/ls":     lsSrc,
			"/bin/trojan": trojanSrc,
		},
		Path: "/bin/trojan",
	}
}

func waitJob(t *testing.T, h *hth.JobHandle) *hth.JobResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s did not terminate: %v", h.ID(), err)
	}
	return res
}

func drainService(t *testing.T, s *hth.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// monitorOf returns the Harrier a result's run was monitored by, nil
// when it ran unmonitored.
func monitorOf(res *hth.Result) *harrier.Harrier {
	h, _ := res.Process.Monitor.(*harrier.Harrier)
	return h
}

// heldTraceSlots counts the trace slots still filled in the code of
// every process of res.
func heldTraceSlots(res *hth.Result) int {
	n := 0
	for _, p := range res.Process.OS.Processes() {
		for _, sp := range p.CPU.Code.Spans() {
			for i := range sp.Instrs {
				if sp.TraceSlot(i) != nil {
					n++
				}
			}
		}
	}
	return n
}

// hotLoopSrc reads stdin into buf, then moves the tainted word 200
// times: the loop passes the promotion threshold and runs at the trace
// tier.
const hotLoopSrc = `
.text
_start:
    mov ebx, 0
    mov ecx, buf
    mov edx, 16
    mov eax, 3          ; read(stdin): taints buf
    int 0x80
    mov esi, 200
hot:
    mov eax, [buf]
    add eax, esi
    mov [dst], eax
    dec esi
    cmp esi, 0
    jnz hot
    mov ebx, 0
    mov eax, 1
    int 0x80
.data
buf: .space 16
dst: .space 16
`

// blockFreqs reads mon's nonzero block counts at every instruction
// address in the code of ref's processes, keyed "image:addr".
func blockFreqs(mon *harrier.Harrier, ref []*vos.Process) map[string]int64 {
	out := map[string]int64{}
	for _, p := range ref {
		for _, sp := range p.CPU.Code.Spans() {
			for i := range sp.Instrs {
				if n := mon.BBFrequency(sp.Image, sp.Addr(i)); n != 0 {
					out[fmt.Sprintf("%s:%#x", sp.Image, sp.Addr(i))] = n
				}
			}
		}
	}
	return out
}

// TestServiceReleasesMonitorState: a settled job's kept result has no
// route to its taint store or its block-counter cache, which the
// service hands to later jobs, and holds no compiled trace. The corpus runs one job at a time on
// one worker, so every job after the first runs on the store and block
// cache the job before it released; each must still match the batch
// reference's sweep signature, stats and block frequencies. A stale
// union-cache slot or block counter would move one of them.
func TestServiceReleasesMonitorState(t *testing.T) {
	scs := corpus.All()
	batch := corpus.RunAll(scs, 0)
	want := corpus.SweepSignature(batch)
	s := hth.NewService(hth.ServiceConfig{Workers: 1})
	defer drainService(t, s)
	counted := 0
	for i, sc := range scs {
		h, err := s.Submit(hth.JobSpec{
			Tenant: sc.Table, Setup: sc.Setup, Tweak: sc.Tweak, Path: sc.Spec.Path,
			Argv: sc.Spec.Argv, Env: sc.Spec.Env, Stdin: sc.Spec.Stdin,
		})
		if err != nil {
			t.Fatalf("submit %s: %v", sc.Name, err)
		}
		res := waitJob(t, h)
		if res.Status != "done" {
			t.Fatalf("%s: status %q (%+v)", sc.Name, res.Status, res.Error)
		}
		raw := res.Raw
		got := corpus.SweepSignature([]corpus.RunOutcome{{Scenario: sc, Result: raw, Problems: sc.Check(raw)}})[0]
		if got != want[i] {
			t.Errorf("signature drift:\n  batch:   %s\n  service: %s", want[i], got)
		}
		if !reflect.DeepEqual(raw.Stats, batch[i].Result.Stats) {
			t.Errorf("%s: stats: service %+v, batch %+v", sc.Name, raw.Stats, batch[i].Result.Stats)
		}
		for _, p := range raw.Process.OS.Processes() {
			if p.CPU.Shadow != nil && p.CPU.Shadow.Store() != nil {
				t.Errorf("%s: settled pid %d's shadow still holds its store", sc.Name, p.PID)
			}
		}
		if n := heldTraceSlots(raw); n != 0 {
			t.Errorf("%s: settled job's code still holds %d trace slots", sc.Name, n)
		}
		mon, ref := monitorOf(raw), monitorOf(batch[i].Result)
		if mon == nil || ref == nil {
			if mon != ref {
				t.Errorf("%s: monitored in one run only", sc.Name)
			}
			continue
		}
		if mon.Store != nil {
			t.Errorf("%s: settled job's monitor still holds its store", sc.Name)
		}
		procs := batch[i].Result.Process.OS.Processes()
		g, w := blockFreqs(mon, procs), blockFreqs(ref, procs)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: block frequencies: service %v, batch %v", sc.Name, g, w)
		}
		if len(w) > 0 {
			counted++
		}
	}
	if counted < len(scs)/2 {
		t.Fatalf("only %d of %d scenarios counted blocks; the frequency check is near vacuous", counted, len(scs))
	}
	// The corpus runs almost wholly in the interpreter; a job whose hot
	// loop takes the trace tier keeps the trace-slot check honest.
	h, err := s.Submit(hth.JobSpec{Tenant: "hot",
		Programs: map[string]string{"/bin/hot": hotLoopSrc}, Path: "/bin/hot",
		Stdin: []byte("0123456789abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, h)
	if res.Status != "done" || res.TierMix == nil || res.TierMix.Trace == 0 {
		t.Fatalf("hot loop: status %q tier mix %+v, want trace-tier entries", res.Status, res.TierMix)
	}
	if n := heldTraceSlots(res.Raw); n != 0 {
		t.Errorf("hot loop: settled job's code still holds %d trace slots", n)
	}
}

// TestServiceMatchesBatchRun is the zero-chaos identity contract: a
// job through the service produces the same verdict, warnings, and
// step count as a direct System.Run of the same inputs.
func TestServiceMatchesBatchRun(t *testing.T) {
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/ls", lsSrc)
	sys.MustInstallSource("/bin/trojan", trojanSrc)
	batch, err := sys.Run(hth.DefaultConfig(), hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Process.CPU.Shadow.Pages() == 0 || batch.Process.CPU.Mem.Pages() == 0 {
		t.Fatal("batch run left no shadow or memory pages; the release check below would be vacuous")
	}

	s := hth.NewService(hth.ServiceConfig{})
	defer drainService(t, s)
	h, err := s.Submit(trojanSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, h)
	if res.Status != "done" {
		t.Fatalf("status = %q (%+v)", res.Status, res.Error)
	}
	if res.Raw == nil {
		t.Fatal("done job lost its raw result")
	}
	// The service releases a settled job's taint shadows and guest
	// memory; everything the verdict rests on must still equal the
	// batch run.
	for _, p := range res.Raw.Process.OS.Processes() { // the root included
		if n := p.CPU.Shadow.Pages(); n != 0 {
			t.Errorf("settled job's pid %d shadow holds %d pages", p.PID, n)
		}
		if n := p.CPU.Mem.Pages(); n != 0 {
			t.Errorf("settled job's pid %d memory holds %d pages", p.PID, n)
		}
	}
	h64 := fnv.New64a()
	for _, w := range batch.Warnings {
		io.WriteString(h64, w.String())
		io.WriteString(h64, "\x00")
	}
	if want := fmt.Sprintf("%016x", h64.Sum64()); res.WarnHash != want {
		t.Errorf("warn hash %s, batch %s", res.WarnHash, want)
	}
	if len(res.Raw.Events) == 0 || len(res.Raw.Events) != len(batch.Events) {
		t.Fatalf("events: service %d, batch %d", len(res.Raw.Events), len(batch.Events))
	}
	for i := range batch.Events {
		if got, want := res.Raw.Events[i].String(), batch.Events[i].String(); got != want {
			t.Errorf("event %d: %q != %q", i, got, want)
		}
	}
	if !reflect.DeepEqual(res.Raw.Stats, batch.Stats) {
		t.Errorf("stats: service %+v, batch %+v", res.Raw.Stats, batch.Stats)
	}
	if len(res.Warnings) != len(batch.Warnings) {
		t.Fatalf("service warnings = %d, batch = %d", len(res.Warnings), len(batch.Warnings))
	}
	for i := range res.Warnings {
		if res.Warnings[i].Message != batch.Warnings[i].Message {
			t.Errorf("warning %d: %q != %q", i, res.Warnings[i].Message, batch.Warnings[i].Message)
		}
	}
	if res.TotalSteps != batch.TotalSteps {
		t.Errorf("steps: service %d, batch %d", res.TotalSteps, batch.TotalSteps)
	}
	if res.Outcome != "clean" || res.Verdict != "LOW" {
		t.Errorf("outcome/verdict = %q/%q", res.Outcome, res.Verdict)
	}
	// The per-job tier mix must partition the batch run's block count,
	// and the fleet health view must aggregate it.
	if res.TierMix == nil {
		t.Fatal("done job carries no tier mix")
	}
	m := *res.TierMix
	if m.Blocks != batch.Stats.Blocks || m.Summary != 0 ||
		m.Interp+m.Trace+m.Clean != m.Blocks {
		t.Errorf("tier mix %+v does not partition %d blocks", m, batch.Stats.Blocks)
	}
	if hm := s.Health().TierMix; hm != m {
		t.Errorf("health tier mix %+v, want the single job's %+v", hm, m)
	}
}

// gateSpec returns a spec whose Setup blocks on release, pinning a
// worker deterministically (no sleeps), plus the release function.
func gateSpec(tenant string) (hth.JobSpec, func()) {
	release := make(chan struct{})
	spec := trojanSpec(tenant)
	setup := spec.Programs
	spec.Setup = func(sys *hth.System) {
		<-release
		for p, src := range setup {
			sys.MustInstallSource(p, src)
		}
	}
	spec.Programs = nil
	var once func()
	once = func() { close(release); once = func() {} }
	return spec, func() { once() }
}

func waitRunning(t *testing.T, h *hth.JobHandle) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.Status() != "running" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started (status %q)", h.ID(), h.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServiceWorkConserving pins dispatch to the first free worker:
// with the default config, two jobs submitted back to back must run at
// the same time, whatever their tenants. Each job's Setup signals its
// arrival and waits up to 5s for the other's. Tenants k00 and k04 hash
// (FNV-32a mod 4) to one bucket, so a service that pinned tenants to
// single-worker shards would queue the second job behind the first and
// both waits would time out.
func TestServiceWorkConserving(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{})
	defer drainService(t, s)
	arrived := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var met [2]bool
	var handles []*hth.JobHandle
	for i, tenant := range []string{"k00", "k04"} {
		spec := trojanSpec(tenant)
		progs := spec.Programs
		spec.Programs = nil
		spec.Setup = func(sys *hth.System) {
			close(arrived[i])
			select {
			case <-arrived[1-i]:
				met[i] = true
			case <-time.After(5 * time.Second):
			}
			for p, src := range progs {
				sys.MustInstallSource(p, src)
			}
		}
		h, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		res := waitJob(t, h)
		if res.Status != "done" {
			t.Errorf("job %s: status %q (%+v)", res.ID, res.Status, res.Error)
		}
		if !met[i] {
			t.Errorf("job %s (tenant %s) never ran alongside the other: it queued while a worker idled",
				res.ID, res.Tenant)
		}
	}
}

// TestServiceBackpressure pins the bounded-queue contract: with the
// single worker blocked and the queue full, Submit rejects with a
// typed *OverloadError carrying the Retry-After hint — it never
// blocks and never buffers unboundedly.
func TestServiceBackpressure(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{
		Workers: 1, QueueDepth: 2,
		RetryAfter: 250 * time.Millisecond,
	})
	spec, release := gateSpec("acme")
	h1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, h1)
	for i := 0; i < 2; i++ { // fill the queue behind the blocked worker
		if _, err := s.Submit(trojanSpec("acme")); err != nil {
			t.Fatalf("queue slot %d rejected: %v", i, err)
		}
	}
	_, err = s.Submit(trojanSpec("acme"))
	var over *hth.OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("full queue returned %v, want *OverloadError", err)
	}
	if over.RetryAfter != 250*time.Millisecond {
		t.Errorf("overload = %+v", over)
	}
	release()
	drainService(t, s)
}

// TestServiceFullPoolKeepsFeatures fills the pool to capacity (one
// busy worker, a full 16-deep queue) with jobs that ask for provenance
// and a live stream, and checks every one of them returns exactly what
// it asked for: load decides whether a job is admitted, never what it
// returns.
func TestServiceFullPoolKeepsFeatures(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{
		Workers: 1, QueueDepth: 16,
	})
	gate, release := gateSpec("acme")
	gate.Provenance, gate.Stream = true, true
	h1, err := s.Submit(gate)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, h1)
	handles := []*hth.JobHandle{h1}
	for i := 2; i <= 17; i++ {
		spec := trojanSpec("acme")
		spec.Provenance, spec.Stream = true, true
		h, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	var over *hth.OverloadError
	if _, err := s.Submit(trojanSpec("acme")); !errors.As(err, &over) {
		t.Fatalf("submit past a full pool: %v, want *OverloadError", err)
	}
	release()
	for i, h := range handles {
		res := waitJob(t, h)
		if res.Status != "done" {
			t.Fatalf("job %d: status %q (%+v)", i+1, res.Status, res.Error)
		}
		if res.Verdict != "LOW" || len(res.Warnings) != 1 {
			t.Errorf("job %d: verdict %q, %d warnings, want LOW with 1",
				i+1, res.Verdict, len(res.Warnings))
		}
		if res.Raw == nil || len(res.Raw.Events) == 0 {
			t.Errorf("job %d: no event log", i+1)
		}
		if len(res.Warnings) == 1 && len(res.Warnings[0].Chain) == 0 {
			t.Errorf("job %d: warning has no provenance chain", i+1)
		}
		updates := h.Updates()
		if updates == nil {
			t.Errorf("job %d: no stream", i+1)
			continue
		}
		streamed := 0
		for range updates {
			streamed++
		}
		if streamed != 1 {
			t.Errorf("job %d: %d streamed warnings, want 1", i+1, streamed)
		}
	}
	drainService(t, s)
}

// TestServiceDrainAbortsQueued pins the no-lost-jobs drain contract:
// the in-flight job finishes with its verdict; queued jobs come back
// as structured aborts; new submissions are rejected with ErrDraining.
func TestServiceDrainAbortsQueued(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{Workers: 1, QueueDepth: 4})
	spec, release := gateSpec("acme")
	h1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, h1)
	var queued []*hth.JobHandle
	for i := 0; i < 3; i++ {
		h, err := s.Submit(trojanSpec("acme"))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, h)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Draining becomes visible to submitters before the pool empties.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := s.Submit(trojanSpec("acme"))
		if errors.Is(err, hth.ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit during drain returned %v, want ErrDraining", err)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	if res := waitJob(t, h1); res.Status != "done" || len(res.Warnings) != 1 {
		t.Errorf("in-flight job at drain: %+v", res)
	}
	for _, h := range queued {
		res := waitJob(t, h)
		if res.Status != "aborted" || res.Error == nil || res.Error.Code != hth.JobAborted {
			t.Errorf("queued job %s at drain: status %q error %+v, want structured abort",
				res.ID, res.Status, res.Error)
		}
	}
}

// TestServiceWorkerCrashTypedError pins the crash path: with a chaos
// plan that crashes every worker, the job's one execution ends in the
// typed worker-crash error naming the injected panic, and the fault
// log holds exactly that one crash.
func TestServiceWorkerCrashTypedError(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{
		Workers: 1, QueueDepth: 8,
		Chaos: &chaos.Plan{Seed: 7, Rate: 1, Only: []chaos.Kind{chaos.WorkerCrash}},
	})
	h, err := s.Submit(trojanSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, h)
	if res.Status != "failed" || res.Error == nil || res.Error.Code != hth.JobWorkerCrash {
		t.Fatalf("crash-storm job: status %q error %+v", res.Status, res.Error)
	}
	if !strings.Contains(res.Error.Msg, "chaos: worker crash (pre-run)") {
		t.Errorf("crash message %q does not name the panic value", res.Error.Msg)
	}
	if len(res.ServiceFaults) != 1 || !strings.Contains(res.ServiceFaults[0], "workercrash") {
		t.Errorf("service faults = %q, want the one worker crash", res.ServiceFaults)
	}
	if got := s.Health().Recycled; got != 1 {
		t.Errorf("recycled = %d, want 1", got)
	}
	drainService(t, s)
}

// TestServiceBadSpec pins the typed rejection of malformed specs,
// including the chaos-injected corruption flavor.
func TestServiceBadSpec(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{})
	defer drainService(t, s)
	var jerr *hth.JobError
	if _, err := s.Submit(hth.JobSpec{}); !errors.As(err, &jerr) || jerr.Code != hth.JobBadSpec {
		t.Errorf("empty spec: %v", err)
	}
	if _, err := s.Submit(hth.JobSpec{Path: "/bin/x"}); !errors.As(err, &jerr) || jerr.Code != hth.JobBadSpec {
		t.Errorf("no-program spec: %v", err)
	}
	spec := trojanSpec("acme")
	spec.DeadlineMS = -1
	if _, err := s.Submit(spec); !errors.As(err, &jerr) || jerr.Code != hth.JobBadSpec {
		t.Errorf("negative deadline: %v", err)
	}
	// A bad program path is a distinct typed error: the spec was
	// well-formed, the program just does not assemble.
	bad := hth.JobSpec{Programs: map[string]string{"/bin/x": "bogus mnemonic"}, Path: "/bin/x"}
	h, err := s.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	if res := waitJob(t, h); res.Status != "failed" || res.Error.Code != hth.JobBadProgram {
		t.Errorf("unassemblable program: %+v", res)
	}
}

// TestServiceFlightDumpPerJob pins the satellite: concurrent jobs
// sharing one FlightPath each land their own "<path>.<jobid>" dump
// instead of clobbering a shared file.
func TestServiceFlightDumpPerJob(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.jsonl.gz")
	s := hth.NewService(hth.ServiceConfig{Workers: 2, QueueDepth: 8})
	var handles []*hth.JobHandle
	for i := 0; i < 2; i++ {
		spec := trojanSpec("acme")
		spec.FlightPath = path
		h, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	ids := make([]string, len(handles))
	for i, h := range handles {
		res := waitJob(t, h)
		if res.Status != "done" {
			t.Fatalf("job %s: %+v", res.ID, res.Error)
		}
		ids[i] = res.ID
	}
	drainService(t, s)
	for _, id := range ids {
		want := filepath.Join(dir, "flight."+id+".jsonl.gz")
		if _, err := os.Stat(want); err != nil {
			t.Errorf("per-job flight dump missing: %v", err)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("untagged shared dump path exists; jobs should not share %s", path)
	}
}

// TestServiceHTTPRejectsFlightPath: the flight-dump path names a file
// on the server, so it is not part of the wire format. A POST that
// carries one is a bad spec (unknown field), and no file appears where
// it pointed, even for a job whose warnings would trigger a dump.
func TestServiceHTTPRejectsFlightPath(t *testing.T) {
	outside := filepath.Join(t.TempDir(), "outside")
	if err := os.Mkdir(outside, 0o755); err != nil {
		t.Fatal(err)
	}
	s := hth.NewService(hth.ServiceConfig{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	spec := trojanSpec("acme")
	body, _ := json.Marshal(map[string]any{
		"tenant": spec.Tenant, "programs": spec.Programs, "path": spec.Path,
		"flight_path": filepath.Join(outside, "pwned"),
	})
	resp, err := http.Post(srv.URL+"/jobs?wait=1", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := readAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(raw, hth.JobBadSpec) {
		t.Errorf("POST with flight_path: code %d body %s, want 400 %s", resp.StatusCode, raw, hth.JobBadSpec)
	}
	drainService(t, s)
	if files, _ := os.ReadDir(outside); len(files) != 0 {
		t.Errorf("POST with flight_path wrote %s/%s", outside, files[0].Name())
	}
}

// TestServiceStreamUpdates pins live streaming: a Stream job delivers
// its warnings on the handle's update channel before the terminal
// result, and the channel closes at termination.
func TestServiceStreamUpdates(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{})
	spec := trojanSpec("acme")
	spec.Stream = true
	h, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if h.Updates() == nil {
		t.Fatal("stream job has no update channel")
	}
	var got []hth.JobUpdate
	for u := range h.Updates() {
		got = append(got, u)
	}
	res := h.Result()
	if res == nil || res.Status != "done" {
		t.Fatalf("closed updates before terminal result: %+v", res)
	}
	if len(got) != 1 || got[0].Event != "warning" || got[0].Rule != "check_execve" {
		t.Errorf("updates = %+v, want the check_execve warning", got)
	}
	if got[0].Severity != "LOW" {
		t.Errorf("update severity = %q", got[0].Severity)
	}
	drainService(t, s)
}

// TestServiceHTTP drives the full HTTP surface: submit-and-wait,
// polling, streaming, malformed JSON, health, and per-tenant metrics.
func TestServiceHTTP(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(trojanSpec("acme"))

	// Submit-and-wait returns the terminal JobResult.
	resp, err := http.Post(srv.URL+"/jobs?wait=1", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var res hth.JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || res.Status != "done" || res.Verdict != "LOW" {
		t.Fatalf("wait=1: code %d result %+v", resp.StatusCode, res)
	}

	// Async submit returns 202 and the job becomes pollable.
	resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || acc.ID == "" {
		t.Fatalf("async submit: code %d id %q", resp.StatusCode, acc.ID)
	}
	if h := s.Lookup(acc.ID); h != nil {
		waitJob(t, h)
	}
	resp, err = http.Get(srv.URL + "/jobs/" + acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	var poll struct {
		Status string         `json:"status"`
		Result *hth.JobResult `json:"result"`
	}
	json.NewDecoder(resp.Body).Decode(&poll)
	resp.Body.Close()
	if poll.Status != "done" || poll.Result == nil || poll.Result.Verdict != "LOW" {
		t.Fatalf("poll: %+v", poll)
	}

	// Streaming returns JSONL: accepted, updates, result.
	resp, err = http.Post(srv.URL+"/jobs?stream=1", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := readAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(raw), "\n")
	if len(lines) < 3 {
		t.Fatalf("stream lines = %q", raw)
	}
	if !strings.Contains(lines[0], `"event": "accepted"`) && !strings.Contains(lines[0], `"event":"accepted"`) {
		t.Errorf("first stream line %q", lines[0])
	}
	if !strings.Contains(raw, "check_execve") || !strings.Contains(raw, `"result"`) {
		t.Errorf("stream missing warning or result: %q", raw)
	}

	// Malformed JSON is a typed 400.
	resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: code %d", resp.StatusCode)
	}

	// Unknown job is 404.
	resp, _ = http.Get(srv.URL + "/jobs/j999999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: code %d", resp.StatusCode)
	}

	// Health reports the pool and the done jobs' tier mix.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hs hth.ServiceHealth
	json.NewDecoder(resp.Body).Decode(&hs)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hs.TierMix.Blocks == 0 || hs.Draining {
		t.Errorf("healthz: code %d %+v", resp.StatusCode, hs)
	}

	// Metrics expose tenant-labelled job counters.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := readAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`hth_jobs_submitted_total{tenant="acme"}`,
		`hth_jobs_done_total{tenant="acme"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	drainService(t, s)
}

// TestServiceHTTPBackpressure pins the 429 + Retry-After rendering of
// a full queue.
func TestServiceHTTPBackpressure(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{
		Workers: 1, QueueDepth: 1,
		RetryAfter: 1500 * time.Millisecond,
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	spec, release := gateSpec("acme")
	h1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, h1)
	if _, err := s.Submit(trojanSpec("acme")); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(trojanSpec("acme"))
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue over HTTP: code %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" { // 1.5s rounds up
		t.Errorf("Retry-After = %q, want 2", ra)
	}
	release()
	drainService(t, s)
}

func readAll(r interface{ Read([]byte) (int, error) }) (string, error) {
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			if err.Error() == "EOF" {
				return sb.String(), nil
			}
			return sb.String(), err
		}
	}
}

// TestServiceObserverErrNotSticky is the satellite regression: a
// long-lived JSONL sink shared across pooled runs latched its first
// write error forever, so one tenant's dead pipe poisoned every
// later Result.ObserverErr. The run core now resets sink health at
// setup.
func TestServiceObserverErrNotSticky(t *testing.T) {
	fw := &flakyWriter{failFirst: true}
	sink := hth.JSONL(fw)

	run := func() error {
		sys := hth.NewSystem()
		sys.MustInstallSource("/bin/ls", lsSrc)
		sys.MustInstallSource("/bin/trojan", trojanSrc)
		cfg := hth.DefaultConfig()
		cfg.Observers = []hth.Observer{sink}
		res, err := sys.Run(cfg, hth.RunSpec{Path: "/bin/trojan"})
		if err != nil {
			t.Fatal(err)
		}
		return res.ObserverErr
	}
	if err := run(); err == nil {
		t.Fatal("first run on a failing writer reported no ObserverErr")
	}
	if err := run(); err != nil {
		t.Fatalf("ObserverErr stuck across pooled runs: %v", err)
	}
}

type flakyWriter struct {
	failFirst bool
	wrote     bool
}

func (w *flakyWriter) Write(p []byte) (int, error) {
	if w.failFirst && !w.wrote {
		w.wrote = true
		return 0, fmt.Errorf("pipe burst")
	}
	w.failFirst = false
	return len(p), nil
}
