package hth_test

import (
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	hth "repro"
	"repro/internal/chaos"
	"repro/internal/obs"
)

// soakStats is what one service chaos soak proved.
type soakStats struct {
	submitted int // jobs tenants tried to submit
	admitted  int // jobs that got a handle
	badSpec   int // typed bad-spec rejections (chaos-corrupted specs)
	done      int
	failed    int // jobs ended by an injected worker crash
	streamed  int
}

// runServiceSoak is the shared soak harness: tenants × jobsPerTenant
// concurrent submitters against a small service under the
// given fault plan. It enforces the chaos gate's universal
// guarantees — every job terminates in a verdict or a typed error, a
// job fails with the worker-crash error exactly when one worker crash
// was injected into it, every other job carries the batch verdict —
// and returns the tally for rate-specific assertions.
func runServiceSoak(t *testing.T, plan *chaos.Plan, tenants, jobsPerTenant int) soakStats {
	t.Helper()
	s := hth.NewService(hth.ServiceConfig{
		Workers: 8, QueueDepth: 4,
		RetryAfter: 2 * time.Millisecond,
		Chaos:      plan,
	})

	type ending struct {
		res       *hth.JobResult
		spans     *obs.SpanRecorder
		wantClean bool // ls (clean) vs trojan (one LOW warning)
		wasStream bool
	}
	var (
		mu      sync.Mutex
		endings []ending
		stats   soakStats
	)
	var wg sync.WaitGroup
	names := []string{"acme", "blue", "crux", "dyne", "echo", "flux", "gyre", "hive"}
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(tenant string, ti int) {
			defer wg.Done()
			// Tenant-side chaos: a derived injector decides which of
			// this tenant's reads are slow, deterministically.
			var tinj *chaos.Injector
			if plan != nil {
				derived := plan.Derive("tenant:" + tenant)
				tinj = chaos.New(derived)
			}
			for jn := 0; jn < jobsPerTenant; jn++ {
				clean := (ti+jn)%2 == 0
				var spec hth.JobSpec
				if clean {
					spec = hth.JobSpec{Tenant: tenant,
						Programs: map[string]string{"/bin/ls": lsSrc}, Path: "/bin/ls"}
				} else {
					spec = trojanSpec(tenant)
				}
				stream := jn%3 == 0
				spec.Stream = stream

				mu.Lock()
				stats.submitted++
				mu.Unlock()
				var h *hth.JobHandle
				var err error
				for tries := 0; tries < 1000; tries++ {
					h, err = s.Submit(spec)
					var over *hth.OverloadError
					if errors.As(err, &over) {
						time.Sleep(over.RetryAfter) // honor backpressure
						continue
					}
					break
				}
				var jerr *hth.JobError
				if errors.As(err, &jerr) {
					if jerr.Code != hth.JobBadSpec {
						t.Errorf("tenant %s job %d: unexpected rejection %v", tenant, jn, err)
					}
					mu.Lock()
					stats.badSpec++
					mu.Unlock()
					continue
				}
				if err != nil {
					t.Errorf("tenant %s job %d: submit failed: %v", tenant, jn, err)
					continue
				}
				if stream && h.Updates() != nil {
					for range h.Updates() {
						if tinj != nil {
							if ms, ok := tinj.SlowReader(h.ID()); ok {
								time.Sleep(time.Duration(ms) * time.Millisecond)
							}
						}
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				res, werr := h.Wait(ctx)
				cancel()
				if werr != nil {
					t.Errorf("tenant %s job %s: lost (never terminated): %v", tenant, h.ID(), werr)
					continue
				}
				mu.Lock()
				stats.admitted++
				endings = append(endings, ending{res: res, spans: h.Spans(),
					wantClean: clean, wasStream: stream})
				mu.Unlock()
			}
		}(names[ti%len(names)], ti)
	}
	wg.Wait()

	// Universal guarantees, any fault rate: every admitted job
	// terminated in a verdict or a typed error; a job failed with the
	// worker-crash error exactly when one worker crash was injected
	// into it; and every other job carries exactly the batch verdict —
	// service chaos shakes the machinery around a run, never the run
	// itself.
	for _, e := range endings {
		res := e.res
		crashes := 0
		for _, f := range res.ServiceFaults {
			if strings.Contains(f, " "+chaos.WorkerCrash.String()+" ") {
				crashes++
			}
		}
		switch res.Status {
		case "done":
			stats.done++
			if crashes != 0 {
				t.Errorf("job %s: done despite %d injected worker crashes", res.ID, crashes)
			}
			if e.wantClean && (res.Verdict != "clean" || len(res.Warnings) != 0) {
				t.Errorf("job %s: clean program got verdict %q (%d warnings)",
					res.ID, res.Verdict, len(res.Warnings))
			}
			if !e.wantClean && (res.Verdict != "LOW" || len(res.Warnings) != 1) {
				t.Errorf("job %s: trojan got verdict %q (%d warnings)",
					res.ID, res.Verdict, len(res.Warnings))
			}
		case "failed":
			stats.failed++
			if res.Error == nil || res.Error.Code != hth.JobWorkerCrash {
				t.Errorf("job %s: failed without the typed crash error: %+v", res.ID, res.Error)
			}
			if crashes != 1 {
				t.Errorf("job %s: crash-failed with %d injected worker crashes, want 1: %q",
					res.ID, crashes, res.ServiceFaults)
			}
		default:
			t.Errorf("job %s: terminal status %q before drain", res.ID, res.Status)
		}
		if e.wasStream {
			stats.streamed++
		}
		// Span hygiene under fire: every terminated job — done,
		// crash-failed, whatever the storm did to it — has a fully
		// closed trace rooted at its "job" span.
		if e.spans == nil {
			t.Errorf("job %s: no span recorder", res.ID)
			continue
		}
		if root := e.spans.Root(); root == nil || root.Name != "job" || root.End == 0 {
			t.Errorf("job %s: root span not closed: %+v", res.ID, root)
		}
		if n := openSpans(e.spans); n != 0 {
			t.Errorf("job %s: %d spans still open after termination", res.ID, n)
		}
	}
	if stats.admitted+stats.badSpec != stats.submitted {
		t.Errorf("lost jobs: submitted %d, admitted %d + bad-spec %d",
			stats.submitted, stats.admitted, stats.badSpec)
	}

	// Metric conservation: every submission is accounted for in the
	// registry — admitted enqueues, and one job.done per termination
	// (including typed bad-spec rejections).
	counts := s.Metrics().Snapshot().Counters
	if got := counts["events."+obs.KindJobEnqueue.String()]; got != uint64(stats.admitted) {
		t.Errorf("job.enqueue count = %d, admitted = %d", got, stats.admitted)
	}
	if got := counts["events."+obs.KindJobDone.String()]; got != uint64(stats.admitted+stats.badSpec) {
		t.Errorf("job.done count = %d, want %d", got, stats.admitted+stats.badSpec)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	if _, err := s.Submit(trojanSpec("late")); !errors.Is(err, hth.ErrDraining) {
		t.Errorf("post-drain submit: %v, want ErrDraining", err)
	}
	return stats
}

// checkNoGoroutineLeak polls until the goroutine count returns to the
// pre-soak baseline (plus scheduler slack), dumping stacks on failure.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			var sb strings.Builder
			pprof.Lookup("goroutine").WriteTo(&sb, 1)
			t.Fatalf("goroutine leak: %d before soak, %d after drain\n%s",
				before, runtime.NumGoroutine(), sb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceChaosSoak is the chaos gate: 8 concurrent tenants, 72
// jobs, a seeded service-level fault storm (worker crashes, dispatch
// stalls, spec corruption, slow readers). Every job must terminate in
// a verdict or a typed error, verdicts of completed runs must match
// the batch expectation, the books must balance, and a full drain
// must leave no goroutine behind.
func TestServiceChaosSoak(t *testing.T) {
	before := runtime.NumGoroutine()
	plan := &chaos.Plan{
		Seed: 0xC0FFEE, Rate: 0.25,
		Only: []chaos.Kind{chaos.WorkerCrash, chaos.QueueStall, chaos.BadJobSpec, chaos.SlowReader},
	}
	stats := runServiceSoak(t, plan, 8, 9)
	if stats.submitted != 72 {
		t.Fatalf("submitted = %d, want 72", stats.submitted)
	}
	// The storm must actually storm: at rate 0.25 over 72 jobs the
	// seeded streams always produce corrupted specs and crash-failed
	// jobs. These are deterministic in (seed, job ids).
	if stats.badSpec == 0 {
		t.Error("fault storm produced no corrupted specs")
	}
	if stats.failed == 0 {
		t.Error("fault storm produced no worker crashes")
	}
	t.Logf("soak: %+v", stats)
	checkNoGoroutineLeak(t, before)
}

// TestServiceSoakZeroRate is the identity half of the gate: the same
// concurrent soak with the fault plan disarmed must complete every
// job with the exact batch verdicts.
func TestServiceSoakZeroRate(t *testing.T) {
	before := runtime.NumGoroutine()
	plan := &chaos.Plan{
		Seed: 0xC0FFEE, Rate: 0,
		Only: []chaos.Kind{chaos.WorkerCrash, chaos.QueueStall, chaos.BadJobSpec, chaos.SlowReader},
	}
	stats := runServiceSoak(t, plan, 8, 9)
	if stats.done != 72 || stats.failed != 0 || stats.badSpec != 0 {
		t.Errorf("zero-rate soak: %+v, want 72 clean completions", stats)
	}
	checkNoGoroutineLeak(t, before)
}
