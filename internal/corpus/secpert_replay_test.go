package corpus

import (
	"sync"
	"testing"

	hth "repro"
	"repro/internal/harrier"
	"repro/internal/secpert"
)

// replayJob is one scenario's recorded Secpert input: the policy its
// run used and every event Harrier sent, in order.
type replayJob struct {
	name string
	cfg  hth.Config
	log  []harrier.LogEntry
}

var replayJobs = sync.OnceValues(func() ([]replayJob, error) {
	scs := All()
	outs := RunAll(scs, 2)
	jobs := make([]replayJob, 0, len(outs))
	for _, o := range outs {
		if o.Err != nil {
			return nil, o.Err
		}
		cfg := hth.DefaultConfig()
		if o.Scenario.Tweak != nil {
			o.Scenario.Tweak(&cfg)
		}
		jobs = append(jobs, replayJob{name: o.Scenario.Name, cfg: cfg, log: o.Result.Events})
	}
	return jobs, nil
})

// replayAll runs every recorded event log through a fresh Secpert per
// scenario, the way a service worker judges one job's events.
func replayAll(jobs []replayJob) {
	for i := range jobs {
		j := &jobs[i]
		s := secpert.New(j.cfg.Policy, j.cfg.Advisor)
		for _, e := range j.log {
			if e.Access != nil {
				s.HandleAccess(e.Access)
			} else {
				s.HandleIO(e.IO)
			}
		}
	}
}

func loadReplay(tb testing.TB) ([]replayJob, int) {
	tb.Helper()
	jobs, err := replayJobs()
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for _, j := range jobs {
		n += len(j.log)
	}
	if len(jobs) != len(All()) || n == 0 {
		tb.Fatalf("recorded %d jobs with %d events", len(jobs), n)
	}
	return jobs, n
}

// TestSecpertAllocs pins Secpert's per-job and per-event allocation
// counts over the recorded event logs of every corpus scenario:
// building a Secpert compiles its rules against process-shared
// templates, and judging an event asserts it by slot position and
// matches it without maps, binding clones or string keys.
func TestSecpertAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("records a full corpus sweep")
	}
	jobs, events := loadReplay(t)
	// Each job builds its Secpert from its scenario's policy, which
	// decides how many rules New defines, so the per-job share is
	// measured job by job.
	var news, maxNew float64
	for i := range jobs {
		j := &jobs[i]
		n := testing.AllocsPerRun(5, func() { secpert.New(j.cfg.Policy, j.cfg.Advisor) })
		news += n
		maxNew = max(maxNew, n)
		if n > 20 {
			t.Errorf("%s: secpert.New makes %.1f allocations, want <= 20", j.name, n)
		}
	}
	total := testing.AllocsPerRun(5, func() { replayAll(jobs) })
	perEvent := (total - news) / float64(events)
	t.Logf("secpert.New: %.1f allocs per job (at most %.1f); replay: %.1f allocs over %d jobs, %d events (%.2f per event)",
		news/float64(len(jobs)), maxNew, total, len(jobs), events, perEvent)
	if perEvent > 12 {
		t.Errorf("Secpert makes %.2f allocations per event, want <= 12", perEvent)
	}
}

// BenchmarkSecpertReplay replays the recorded event logs of all corpus
// scenarios through fresh Secperts; one op is the whole corpus.
func BenchmarkSecpertReplay(b *testing.B) {
	jobs, events := loadReplay(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayAll(jobs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}
