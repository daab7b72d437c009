package obs

import (
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the span plane of the observability layer: a per-job
// trace made of wall-clock spans (SpanRecorder), a transition-sampled
// per-tier time attributor for the execution engine (TierTimer), and
// an alloc-free fixed-bucket latency histogram for the per-tenant SLO
// rollups (LatencyHist).
//
// Spans are deliberately minimal — a name, a parent, two nanosecond
// timestamps, and a status string — because everything richer (the
// Perfetto view, the latency histograms, the /healthz rollups) is
// derived from them after the fact. Span IDs are process-unique so a
// multi-job JSONL stream can be re-threaded into per-trace timelines
// from span.start/span.end events alone.

// spanIDs hands out process-unique span IDs across all recorders, so
// an end event (which carries only the ID) is unambiguous even when
// many jobs interleave on one bus.
var spanIDs atomic.Uint64

// Span is one timed interval in a trace. Times are wall-clock
// nanoseconds since the Unix epoch (derived from a monotonic reading,
// so durations are immune to clock steps). End is 0 while the span is
// open.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns,omitempty"`
	Status string `json:"status,omitempty"`
}

// Duration is End-Start, 0 while the span is open.
func (s *Span) Duration() int64 {
	if s.End == 0 {
		return 0
	}
	return s.End - s.Start
}

// SpanRecorder records the spans of one trace (one service job, or
// one batch run). It is safe for concurrent use: the service touches
// a job's recorder from the submitter goroutine, the worker,
// and Drain.
//
// Every span mutation can optionally be mirrored onto an event bus
// (SetPublish) as span.start/span.end events, which is how the flight
// recorder and JSONL traces capture timelines for free. The publish
// hook runs outside the recorder lock.
type SpanRecorder struct {
	mu     sync.Mutex
	trace  string
	epochW int64     // wall ns at construction
	epochM time.Time // monotonic anchor taken at the same instant
	spans  []Span
	pub    func(Event)
}

// NewSpanRecorder builds a recorder for the given trace ID (the
// service uses the job ID).
func NewSpanRecorder(trace string) *SpanRecorder {
	now := time.Now()
	return &SpanRecorder{
		trace:  trace,
		epochW: now.UnixNano(),
		epochM: now,
	}
}

// SetPublish installs the event mirror. The hook receives span.start
// and span.end events with Layer unset; the installer stamps the
// layer (LayerService for job traces, LayerRun for batch runs) and
// routes to its bus.
func (r *SpanRecorder) SetPublish(fn func(Event)) {
	r.mu.Lock()
	r.pub = fn
	r.mu.Unlock()
}

// TraceID returns the trace identifier.
func (r *SpanRecorder) TraceID() string { return r.trace }

// Now is the recorder's clock: wall nanoseconds derived from the
// monotonic reading, comparable across recorders in one process.
func (r *SpanRecorder) Now() int64 {
	return r.epochW + time.Since(r.epochM).Nanoseconds()
}

// StartSpan opens a span under parent (0 = root) and returns its ID.
func (r *SpanRecorder) StartSpan(parent uint64, name string) uint64 {
	return r.StartSpanAt(parent, name, r.Now())
}

// StartSpanAt opens a span with an explicit start time, for intervals
// that began before the recorder existed (the service stamps the job
// root at the moment Submit was entered, before admission decided the
// job deserved a trace at all).
func (r *SpanRecorder) StartSpanAt(parent uint64, name string, startNS int64) uint64 {
	id := spanIDs.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Start: startNS})
	pub := r.pub
	r.mu.Unlock()
	if pub != nil {
		pub(Event{Kind: KindSpanStart, Time: uint64(startNS), Num: id, Num2: parent, Str: name, Str2: r.trace})
	}
	return id
}

// EndSpan closes a span with a status. It is idempotent — the first
// close wins — and tolerates id 0 and unknown IDs, so failure paths
// can close defensively without bookkeeping which path got there
// first.
func (r *SpanRecorder) EndSpan(id uint64, status string) {
	if id == 0 {
		return
	}
	end := r.Now()
	r.mu.Lock()
	var closed *Span
	for i := range r.spans {
		if r.spans[i].ID == id {
			if r.spans[i].End == 0 {
				r.spans[i].End = end
				r.spans[i].Status = status
				closed = &r.spans[i]
			}
			break
		}
	}
	var pub func(Event)
	var e Event
	if closed != nil {
		pub = r.pub
		e = Event{Kind: KindSpanEnd, Time: uint64(end), Num: id,
			Num2: uint64(end - closed.Start), Str: closed.Name, Str2: status}
	}
	r.mu.Unlock()
	if pub != nil {
		pub(e)
	}
}

// AddSpan records an already-finished interval with explicit times
// (runCore synthesizes the execute span and its tier children this
// way, from durations it measured itself). Both start and end events
// are mirrored.
func (r *SpanRecorder) AddSpan(parent uint64, name string, startNS, endNS int64, status string) uint64 {
	id := spanIDs.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name,
		Start: startNS, End: endNS, Status: status})
	pub := r.pub
	r.mu.Unlock()
	if pub != nil {
		pub(Event{Kind: KindSpanStart, Time: uint64(startNS), Num: id, Num2: parent, Str: name, Str2: r.trace})
		pub(Event{Kind: KindSpanEnd, Time: uint64(endNS), Num: id,
			Num2: uint64(endNS - startNS), Str: name, Str2: status})
	}
	return id
}

// Spans returns a copy of the recorded spans in recording order.
func (r *SpanRecorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := make([]Span, len(r.spans))
	copy(cp, r.spans)
	return cp
}

// Root returns the first recorded span (the trace root), or nil.
func (r *SpanRecorder) Root() *Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == 0 {
		return nil
	}
	sp := r.spans[0]
	return &sp
}

// NamedDuration sums the duration of every closed span with the given
// name, returning the total and the span count. The service derives
// its queue/exec latency observations from this.
func (r *SpanRecorder) NamedDuration(name string) (total int64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if r.spans[i].Name == name && r.spans[i].End != 0 {
			total += r.spans[i].End - r.spans[i].Start
			n++
		}
	}
	return total, n
}

// WriteChromeTrace renders the trace in Chrome trace_event JSON
// (loadable in Perfetto / chrome://tracing). Open spans are rendered
// up to "now" with an open=true arg.
func (r *SpanRecorder) WriteChromeTrace(w io.Writer) error {
	return WriteChromeSpans(w, map[string][]Span{r.trace: r.Spans()}, r.Now())
}

// Execution tiers, in promotion order. These index TierTimer buckets
// and name the per-tier child spans ("tier.interp", ...). No engine
// tier touches TierSummary, so its bucket stays 0; it is kept only
// because the cmd/hth-load benchmark pairs its tier mix with
// TierNames' four entries in this order.
const (
	TierInterp = iota
	TierSummary
	TierTrace
	TierClean
	numTiers
)

// TierNames names the tiers in TierTimer bucket order.
var TierNames = [numTiers]string{"interp", "summary", "trace", "clean"}

// TierTimer attributes execution wall time to the four engine tiers.
// It samples the clock only at tier *transitions*, not per block: the
// engine calls Touch(tier) on every block dispatch, and a dispatch
// that stays on the current tier costs one integer compare. Runs that
// settle onto one tier (the common case after warmup) therefore pay
// almost nothing for attribution.
//
// It is single-goroutine, like the engine hot path that drives it.
type TierTimer struct {
	cur  int32
	base time.Time
	last int64
	ns   [numTiers]int64
}

// NewTierTimer builds an idle timer; the first Touch starts it.
func NewTierTimer() *TierTimer { return &TierTimer{cur: -1} }

// Touch credits elapsed time to the current tier and switches to the
// given one. Same-tier calls return after one compare.
func (t *TierTimer) Touch(tier int32) {
	if t.cur == tier {
		return
	}
	t.switchTier(tier)
}

//go:noinline
func (t *TierTimer) switchTier(tier int32) {
	if t.cur < 0 {
		t.base = time.Now()
		t.cur, t.last = tier, 0
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.ns[t.cur] += now - t.last
	t.cur, t.last = tier, now
}

// Flush closes out the running tier and returns the per-tier totals.
func (t *TierTimer) Flush() [numTiers]int64 {
	if t.cur >= 0 {
		now := time.Since(t.base).Nanoseconds()
		t.ns[t.cur] += now - t.last
		t.last = now
	}
	return t.ns
}

// LatencyHist is an alloc-free fixed-shape latency histogram:
// log2-spaced microsecond buckets (1µs, 2µs, 4µs, ... ~134s, +Inf)
// over raw uint64 observations. Observe is lock-free-caller friendly
// (the registry serializes); the struct is plain value state so a
// registry map of them never reallocates per observation.
type LatencyHist struct {
	counts [latBuckets]uint64
	sum    uint64
	n      uint64
}

// latBuckets is 27 finite log2-µs buckets plus one overflow bucket.
const latBuckets = 28

// Observe records one raw observation (nanoseconds for the latency
// stages; the deadline-burn stage feeds scaled ratios through the
// same shape).
func (h *LatencyHist) Observe(v uint64) {
	i := bits.Len64(v / 1000)
	if i > latBuckets-1 {
		i = latBuckets - 1
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count and Sum expose the totals.
func (h *LatencyHist) Count() uint64 { return h.n }
func (h *LatencyHist) Sum() uint64   { return h.sum }

// latBound is bucket i's inclusive upper bound in raw units; the last
// bucket is unbounded and reports its lower bound's double.
func latBound(i int) uint64 { return 1000 << uint(i) }

// Quantile returns the q-quantile as the upper bound of the bucket
// containing that rank (a conservative estimate, never below the true
// value except in the overflow bucket). Returns 0 when empty.
func (h *LatencyHist) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < latBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			return latBound(i)
		}
	}
	return latBound(latBuckets - 1)
}

// Merge adds another histogram's observations into this one (used to
// aggregate per-tenant series into the fleet rollup).
func (h *LatencyHist) Merge(o *LatencyHist) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.sum += o.sum
	h.n += o.n
}

// Buckets returns the non-empty buckets as (upper bound, count) pairs
// in increasing bound order — the Snapshot wire form.
func (h *LatencyHist) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c != 0 {
			out = append(out, Bucket{Value: latBound(i), Count: c})
		}
	}
	return out
}

// LatencyRollup is a /healthz-ready quantile summary of one latency
// stage, aggregated across tenants. Quantiles are milliseconds.
type LatencyRollup struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}
