package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openSpans counts the recorder's spans not yet closed.
func openSpans(r *SpanRecorder) int {
	n := 0
	for _, sp := range r.Spans() {
		if sp.End == 0 {
			n++
		}
	}
	return n
}

// TestSpanRecorderLifecycle covers the single-goroutine contract:
// parentage, explicit-time spans, idempotent close, NamedDuration.
func TestSpanRecorderLifecycle(t *testing.T) {
	r := NewSpanRecorder("j000042")
	if r.TraceID() != "j000042" {
		t.Fatalf("trace id %q", r.TraceID())
	}
	root := r.StartSpanAt(0, "job", r.Now()-1e6)
	q := r.StartSpan(root, "queue")
	if n := openSpans(r); n != 2 {
		t.Fatalf("open %d, want 2", n)
	}
	r.EndSpan(q, "ok")
	r.EndSpan(q, "late")  // idempotent: first close wins
	r.EndSpan(0, "noop")  // id 0 tolerated
	r.EndSpan(99999, "x") // unknown id tolerated
	r.AddSpan(root, "exec", r.Now()-5e5, r.Now(), "done")
	r.EndSpan(root, "done")
	if n := openSpans(r); n != 0 {
		t.Fatalf("open %d after closing all, want 0", n)
	}
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if got := r.Root(); got == nil || got.Name != "job" || got.Status != "done" {
		t.Fatalf("root = %+v", got)
	}
	for _, sp := range spans {
		if sp.End == 0 || sp.End < sp.Start {
			t.Errorf("span %s: bad interval [%d, %d]", sp.Name, sp.Start, sp.End)
		}
	}
	if q := spans[1]; q.Status != "ok" {
		t.Errorf("queue span status %q, want first close to win", q.Status)
	}
	if d, n := r.NamedDuration("exec"); n != 1 || d <= 0 {
		t.Errorf("NamedDuration(exec) = (%d, %d)", d, n)
	}

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("chrome trace has %d events, want 3", len(doc.TraceEvents))
	}
}

// TestSpanRecorderPublishMirror checks every span mutation is mirrored
// as balanced span.start/span.end events carrying the trace ID and
// wall-clock (non-virtual) timestamps.
func TestSpanRecorderPublishMirror(t *testing.T) {
	r := NewSpanRecorder("trace-x")
	var events []Event
	r.SetPublish(func(e Event) { events = append(events, e) })
	root := r.StartSpan(0, "job")
	r.AddSpan(root, "exec", r.Now()-1000, r.Now(), "done")
	r.EndSpan(root, "done")
	starts, ends := 0, 0
	for _, e := range events {
		switch e.Kind {
		case KindSpanStart:
			starts++
			if e.Str2 != "trace-x" {
				t.Errorf("start event trace %q", e.Str2)
			}
		case KindSpanEnd:
			ends++
		}
		if e.Time == 0 {
			t.Error("span event with zero time would be restamped by the bus clock")
		}
	}
	if starts != 2 || ends != 2 {
		t.Fatalf("starts=%d ends=%d, want 2/2", starts, ends)
	}
}

// TestSpanRecorderStress hammers one recorder from many goroutines —
// the service touches a job's recorder from the submitter, the
// worker, and Drain. Run with -race this is the span plane's
// concurrency gate.
func TestSpanRecorderStress(t *testing.T) {
	r := NewSpanRecorder("stress")
	var published atomic.Int64
	r.SetPublish(func(Event) { published.Add(1) })
	root := r.StartSpan(0, "job")
	var wg sync.WaitGroup
	const workers = 8
	ids := make(chan uint64, workers*64)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				id := r.StartSpan(root, "work")
				ids <- id
				r.AddSpan(root, "blip", r.Now(), r.Now(), "ok")
			}
		}()
	}
	// Closers race each other AND the openers, double-closing on purpose.
	var cwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for id := range ids {
				r.EndSpan(id, "ok")
				r.EndSpan(id, "dup")
			}
		}()
	}
	wg.Wait()
	close(ids)
	cwg.Wait()
	r.EndSpan(root, "done")
	if got := openSpans(r); got != 0 {
		t.Fatalf("open %d after close storm, want 0", got)
	}
	// Every span is one start + one end: workers*64 "work" spans,
	// workers*64 "blip" spans, plus the root.
	if got, wantEv := int(published.Load()), (workers*64*2+1)*2; got != wantEv {
		t.Fatalf("published %d span events, want %d", got, wantEv)
	}
}

// TestTierTimer checks transition-sampled attribution: all elapsed
// time lands in exactly the touched tiers and Flush closes the tail.
func TestTierTimer(t *testing.T) {
	tt := NewTierTimer()
	tt.Touch(TierInterp)
	time.Sleep(2 * time.Millisecond)
	tt.Touch(TierSummary)
	tt.Touch(TierSummary) // same-tier: no transition
	time.Sleep(2 * time.Millisecond)
	tt.Touch(TierTrace)
	ns := tt.Flush()
	if ns[TierInterp] <= 0 || ns[TierSummary] <= 0 {
		t.Fatalf("touched tiers uncredited: %v", ns)
	}
	if ns[TierClean] != 0 {
		t.Fatalf("untouched tier credited: %v", ns)
	}
	var total int64
	for _, v := range ns {
		total += v
	}
	if total < 4*int64(time.Millisecond) {
		t.Fatalf("total %dns under slept time", total)
	}
}

// TestLatencyHist pins the bucket shape: log2-µs bounds, conservative
// quantiles, mergeability.
func TestLatencyHist(t *testing.T) {
	var h LatencyHist
	h.Observe(500)       // sub-µs → first bucket (≤1µs)
	h.Observe(1_500_000) // 1.5ms
	h.Observe(1_500_000)
	h.Observe(200_000_000_000) // 200s → overflow bucket
	if h.Count() != 4 {
		t.Fatalf("count %d", h.Count())
	}
	if q := h.Quantile(0.5); q != latBound(11) { // 1.5ms → (1ms,2ms] bucket
		t.Fatalf("p50 = %d, want %d", q, latBound(11))
	}
	if q := h.Quantile(1.0); q != latBound(latBuckets-1) {
		t.Fatalf("p100 = %d, want overflow bound", q)
	}
	var h2 LatencyHist
	h2.Observe(500)
	h2.Merge(&h)
	if h2.Count() != 5 || h2.Sum() != h.Sum()+500 {
		t.Fatalf("merge: count %d sum %d", h2.Count(), h2.Sum())
	}
	bs := h.Buckets()
	for i := 1; i < len(bs); i++ {
		if bs[i].Value <= bs[i-1].Value {
			t.Fatalf("buckets unordered: %v", bs)
		}
	}
}

// TestTenantCardinalityCap: beyond the cap, new tenants fold into
// "other" across both the job counters and the latency series, and the
// folds are themselves counted.
func TestTenantCardinalityCap(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < tenantCap-2; i++ {
		m.Event(Event{Kind: KindJobDone, Str: fmt.Sprintf("pre%d", i)})
	}
	for _, tenant := range []string{"a", "b", "c", "d", "c"} {
		m.Event(Event{Kind: KindJobDone, Str: tenant})
		m.Event(Event{Kind: KindJobLatency, Str: tenant, Str2: "e2e", Num: 1_000_000})
	}
	s := m.Snapshot()
	if got := s.Counters["job_done.a"]; got != 1 {
		t.Errorf("tenant a count %d", got)
	}
	if got := s.Counters["job_done.other"]; got != 3 {
		t.Errorf("other bucket count %d, want 3 (c, d, c)", got)
	}
	if got, ok := s.Counters["job_done.c"]; ok {
		t.Errorf("capped tenant c leaked its own series: %d", got)
	}
	if got := s.Counters["tenant_labels_dropped"]; got != 6 {
		t.Errorf("dropped %d label observations, want 6 (3 jobs + 3 latency)", got)
	}
	tenants := map[string]bool{}
	for _, ls := range s.Latency {
		tenants[ls.Tenant] = true
	}
	if !tenants["other"] || tenants["c"] || tenants["d"] {
		t.Errorf("latency series tenants = %v, want a/b/other only", tenants)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("hth_tenant_labels_dropped_total 6")) {
		t.Errorf("exposition missing dropped-labels family:\n%s", buf.Bytes())
	}
}

// latencySnapshot builds a deterministic snapshot with two tenants and
// three stages plus the deadline-burn ratio series.
func latencySnapshot() *Snapshot {
	m := NewMetrics()
	obs := func(tenant, stage string, v uint64) {
		m.Event(Event{Kind: KindJobLatency, Str: tenant, Str2: stage, Num: v})
	}
	obs("acme", "queue", 800_000)   // 0.8ms
	obs("acme", "queue", 3_000_000) // 3ms
	obs("acme", "exec", 40_000_000) // 40ms
	obs("acme", "e2e", 45_000_000)
	obs("acme", "deadline_burn", 120_000) // 12% of deadline ×1e6
	obs("beta", "queue", 900_000)
	obs("beta", "exec", 6_000_000_000) // 6s
	obs("beta", "e2e", 6_100_000_000)
	obs("beta", "deadline_burn", 2_100_000) // 210%: blew its deadline
	return m.Snapshot()
}

// TestPrometheusLatencyGolden pins the histogram exposition: cumulative
// le buckets in seconds (ratio for deadline_burn), _sum/_count per
// tenant, families in snapshot (stage, tenant) order.
func TestPrometheusLatencyGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, latencySnapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus_latency.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("latency exposition diverged:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestLatencyRollup checks the /healthz aggregation path: cross-tenant
// merge, millisecond conversion, empty-stage miss.
func TestLatencyRollup(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 90; i++ {
		m.Event(Event{Kind: KindJobLatency, Str: "a", Str2: "exec", Num: 1_000_000}) // 1ms
	}
	for i := 0; i < 10; i++ {
		m.Event(Event{Kind: KindJobLatency, Str: "b", Str2: "exec", Num: 1_000_000_000}) // 1s tail
	}
	r, ok := m.LatencyRollup("exec")
	if !ok || r.Count != 100 {
		t.Fatalf("rollup = %+v ok=%v", r, ok)
	}
	if r.P50MS > 2 { // 1ms observations land in the ≤1.024ms bucket
		t.Errorf("p50 %.3fms, want ~1ms", r.P50MS)
	}
	if r.P99MS < 500 {
		t.Errorf("p99 %.3fms should catch the 1s tail", r.P99MS)
	}
	if _, ok := m.LatencyRollup("nope"); ok {
		t.Error("rollup of empty stage reported ok")
	}
	if v, ok := m.LatencyQuantile("exec", 0.5); !ok || v == 0 {
		t.Errorf("LatencyQuantile = %d, %v", v, ok)
	}
}
