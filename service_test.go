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
	if res.Attempts != 1 || res.Shed != hth.ShedNone {
		t.Errorf("attempts/shed = %d/%d", res.Attempts, res.Shed)
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

// TestServiceBackpressure pins the bounded-queue contract: with the
// single worker blocked and the queue full, Submit rejects with a
// typed *OverloadError carrying the Retry-After hint — it never
// blocks and never buffers unboundedly.
func TestServiceBackpressure(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{
		Shards: 1, WorkersPerShard: 1, QueueDepth: 2,
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
	if over.RetryAfter != 250*time.Millisecond || over.Shard != 0 {
		t.Errorf("overload = %+v", over)
	}
	release()
	drainService(t, s)
}

// TestServiceShedLadder drives queue fill through the shed thresholds
// and checks (a) later admissions run at progressively degraded tiers
// and (b) degradation never changes the verdict.
func TestServiceShedLadder(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{
		Shards: 1, WorkersPerShard: 1, QueueDepth: 16,
	})
	// Capacity is 17 (queue + worker); fill crosses 50/75/90 percent
	// at loads 9, 13, and 16.
	spec, release := gateSpec("acme")
	h1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, h1)
	handles := []*hth.JobHandle{h1}
	for i := 2; i <= 17; i++ {
		h, err := s.Submit(trojanSpec("acme"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	release()
	sheds := make([]int, 0, len(handles))
	for _, h := range handles {
		res := waitJob(t, h)
		if res.Status != "done" {
			t.Fatalf("job %s: status %q (%+v)", res.ID, res.Status, res.Error)
		}
		if res.Verdict != "LOW" || len(res.Warnings) != 1 {
			t.Errorf("job %s (shed %d): verdict %q, %d warnings — shedding changed detection",
				res.ID, res.Shed, res.Verdict, len(res.Warnings))
		}
		sheds = append(sheds, res.Shed)
	}
	// Job k was admitted while k-1 jobs occupied the shard.
	for i, want := range map[int]int{
		1: hth.ShedNone, 9: hth.ShedNone,
		10: hth.ShedProvenance, 13: hth.ShedProvenance,
		14: hth.ShedFlight, 16: hth.ShedFlight,
		17: hth.ShedTrace,
	} {
		if got := sheds[i-1]; got != want {
			t.Errorf("job %d admitted at shed %d, want %d", i, got, want)
		}
	}
	drainService(t, s)
}

// TestServiceDrainAbortsQueued pins the no-lost-jobs drain contract:
// the in-flight job finishes with its verdict; queued jobs come back
// as structured aborts; new submissions are rejected with ErrDraining.
func TestServiceDrainAbortsQueued(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{Shards: 1, WorkersPerShard: 1, QueueDepth: 4})
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
// plan that crashes every worker attempt, the job retries MaxRetries
// times and then terminates in the typed worker-crash error — and the
// recycle streak pushes later admissions to the cheapest tier.
func TestServiceWorkerCrashTypedError(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{
		Shards: 1, WorkersPerShard: 1, QueueDepth: 8,
		MaxRetries: 2, RetryBackoff: time.Millisecond,
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
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + MaxRetries)", res.Attempts)
	}
	if len(res.ServiceFaults) == 0 {
		t.Error("no service faults recorded on a rate-1 plan")
	}
	hs := s.Health()
	if hs.Shards[0].Recycled < 3 {
		t.Errorf("recycled = %d, want >= 3", hs.Shards[0].Recycled)
	}
	if hs.Shards[0].Streak < 2 {
		t.Errorf("recycle streak = %d, want >= 2", hs.Shards[0].Streak)
	}
	// A sick shard (streak >= 2) admits new work at the cheapest tier.
	h2, err := s.Submit(trojanSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	res2 := waitJob(t, h2)
	if res2.Shed != hth.ShedTrace {
		t.Errorf("admission to a sick shard: shed %d, want %d", res2.Shed, hth.ShedTrace)
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
	s := hth.NewService(hth.ServiceConfig{Shards: 1, WorkersPerShard: 2, QueueDepth: 8})
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

	// Health reports the shards.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hs hth.ServiceHealth
	json.NewDecoder(resp.Body).Decode(&hs)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(hs.Shards) != 4 || hs.Draining {
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
// a full shard queue.
func TestServiceHTTPBackpressure(t *testing.T) {
	s := hth.NewService(hth.ServiceConfig{
		Shards: 1, WorkersPerShard: 1, QueueDepth: 1,
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
