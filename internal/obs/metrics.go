package obs

import (
	"sort"
	"sync"
)

// countKey keys a string-dimensioned counter without building the
// flattened "kind.name" string per event (the flat name is produced
// once, at Snapshot time).
type countKey struct {
	kind Kind
	s    string
}

// Metrics is a Sink that folds the event stream into a registry of
// counters, gauges, and histograms: per-syscall counts, rule-fire and
// warning counts by rule, chaos-fault counts by kind, taint-substrate
// rates (union-cache and shadow-TLB hit rates), guest instruction
// throughput, and the taint-set width distribution. It is safe to
// share one registry across sequential or concurrent runs; counts
// accumulate.
type Metrics struct {
	mu     sync.Mutex
	kinds  [numKinds]uint64
	byName map[countKey]uint64
	gauges map[string]float64
	hists  map[string][]Bucket
	extra  map[string]uint64

	// Per-tenant latency histograms by (stage, tenant), fed from
	// KindJobLatency events. The histograms are fixed-shape values so
	// an observation never allocates once the series exists.
	lat map[latKey]*LatencyHist

	// Tenant-label cardinality bound: once tenantCap distinct tenant
	// labels exist, further tenants fold into "other" and
	// tenantDropped counts the folds — a tenant-ID-spraying client
	// can't grow /metrics without bound.
	tenants       map[string]struct{}
	tenantCap     int
	tenantDropped uint64

	// Cumulative substrate counters arrive as running totals in
	// periodic samples; the last sample wins per run and run totals
	// accumulate at KindRunEnd via the metric events that follow it,
	// so here we only keep the latest observation.
	unions, unionHits    uint64
	tlbProbes, tlbMisses uint64
	instrs, wallNS       uint64
}

// latKey keys one latency series: a stage ("queue", "exec", "e2e",
// "deadline_burn") crossed with a (capped) tenant label.
type latKey struct {
	stage, tenant string
}

// DefaultTenantCap bounds distinct tenant label values per registry.
const DefaultTenantCap = 64

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		byName:    make(map[countKey]uint64),
		gauges:    make(map[string]float64),
		hists:     make(map[string][]Bucket),
		extra:     make(map[string]uint64),
		lat:       make(map[latKey]*LatencyHist),
		tenants:   make(map[string]struct{}),
		tenantCap: DefaultTenantCap,
	}
}

// SetTenantCap overrides the tenant-label cardinality bound (values
// < 1 keep the default). Labels already admitted stay.
func (m *Metrics) SetTenantCap(n int) {
	if n < 1 {
		return
	}
	m.mu.Lock()
	m.tenantCap = n
	m.mu.Unlock()
}

// tenantLabel admits or folds a tenant label under the cardinality
// cap. Caller holds m.mu.
func (m *Metrics) tenantLabel(t string) string {
	if t == "" || t == "other" {
		return t
	}
	if _, ok := m.tenants[t]; ok {
		return t
	}
	if len(m.tenants) >= m.tenantCap {
		m.tenantDropped++
		return "other"
	}
	m.tenants[t] = struct{}{}
	return t
}

// Event folds one event into the registry.
func (m *Metrics) Event(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.Kind < numKinds {
		m.kinds[e.Kind]++
	}
	switch e.Kind {
	case KindSyscallEnter, KindRuleFire, KindWarning, KindChaosFault:
		m.byName[countKey{e.Kind, e.Str}]++
	case KindJobEnqueue, KindJobDone, KindJobShed, KindJobAbort:
		// The job kinds carry the tenant in Str, so service counters
		// are tenant-labelled for free — behind the cardinality cap.
		m.byName[countKey{e.Kind, m.tenantLabel(e.Str)}]++
	case KindJobLatency:
		k := latKey{stage: e.Str2, tenant: m.tenantLabel(e.Str)}
		h := m.lat[k]
		if h == nil {
			h = &LatencyHist{}
			m.lat[k] = h
		}
		h.Observe(e.Num)
	case KindMetric:
		m.gauges[e.Str] = float64(e.Num)
	case KindMetricBucket:
		m.bucket(e.Str, e.Num, e.Num2)
	case KindTaintSample:
		m.unions, m.unionHits = e.Num, e.Num2
	case KindTaintTLB:
		m.tlbProbes, m.tlbMisses = e.Num, e.Num2
	case KindRunEnd:
		m.instrs += e.Num
		m.wallNS += e.Num2
	}
}

func (m *Metrics) bucket(name string, value, count uint64) {
	bs := m.hists[name]
	for i := range bs {
		if bs[i].Value == value {
			bs[i].Count += count
			return
		}
	}
	m.hists[name] = append(bs, Bucket{Value: value, Count: count})
}

// Close is a no-op; the registry stays readable after the run.
func (m *Metrics) Close() error { return nil }

// Bucket is one value of a discrete distribution.
type Bucket struct {
	Value uint64 `json:"value"`
	Count uint64 `json:"count"`
}

// Snapshot is a point-in-time, JSON-ready view of a Metrics registry.
type Snapshot struct {
	// Counters: event counts by kind ("events.syscall.enter") and by
	// kind+name dimension ("syscall.SYS_execve", "rule.found-exec",
	// "warning.found-exec", "chaos.read-error").
	Counters map[string]uint64 `json:"counters"`
	// Gauges: derived rates and end-of-run samples —
	// "guest_instrs_per_sec", "taint.union_cache_hit_rate",
	// "taint.tlb_hit_rate", the per-tier block shares
	// "harrier.tier_share.{interp,trace,clean}", plus every
	// KindMetric sample by name.
	Gauges map[string]float64 `json:"gauges"`
	// Hists: discrete distributions, e.g. "taint.width" (taint-set
	// width in sources → number of live sets).
	Hists map[string][]Bucket `json:"hists,omitempty"`
	// Latency: per-(stage, tenant) fixed-bucket latency series. Bucket
	// values are inclusive upper bounds in the stage's raw units.
	Latency []LatencySeries `json:"latency,omitempty"`
}

// LatencySeries is one (stage, tenant) latency histogram in a
// snapshot.
type LatencySeries struct {
	Stage   string   `json:"stage"`
	Tenant  string   `json:"tenant,omitempty"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// counterPrefix maps a string-dimensioned kind to its flat-name
// prefix in Snapshot.Counters. The job prefixes carry the tenant as
// the dimension ("job_done.tenant-a"), which WritePrometheus renders
// as a tenant label.
var counterPrefix = map[Kind]string{
	KindSyscallEnter: "syscall.",
	KindRuleFire:     "rule.",
	KindWarning:      "warning.",
	KindChaosFault:   "chaos.",
	KindJobEnqueue:   "job_submitted.",
	KindJobDone:      "job_done.",
	KindJobShed:      "job_shed.",
	KindJobAbort:     "job_aborted.",
}

// Gauge returns the latest value of the named gauge, 0 when it has
// never been set. The analysis service reads its worker-health gauges
// back out of the registry through this accessor to drive admission
// decisions.
func (m *Metrics) Gauge(name string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gauges[name]
}

// NamedCount returns the count of kind events carrying the given
// string dimension (e.g. KindJobDone per tenant).
func (m *Metrics) NamedCount(k Kind, name string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byName[countKey{k, name}]
}

// Inc bumps a free-form registry counter by name ("sse_slow_dropped").
// These land in Snapshot.Counters verbatim; names with a Prometheus
// family (see exactCounters in prom.go) render under it.
func (m *Metrics) Inc(name string) {
	m.mu.Lock()
	m.extra[name]++
	m.mu.Unlock()
}

// Counter reads a free-form registry counter.
func (m *Metrics) Counter(name string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.extra[name]
}

// TenantDropped is the number of tenant-label observations folded
// into "other" by the cardinality cap.
func (m *Metrics) TenantDropped() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tenantDropped
}

// LatencyRollup aggregates one latency stage across all tenants into
// millisecond quantiles. ok is false when the stage has no
// observations.
func (m *Metrics) LatencyRollup(stage string) (r LatencyRollup, ok bool) {
	agg := m.latAggregate(stage)
	if agg.Count() == 0 {
		return r, false
	}
	r.Count = agg.Count()
	r.P50MS = float64(agg.Quantile(0.50)) / 1e6
	r.P95MS = float64(agg.Quantile(0.95)) / 1e6
	r.P99MS = float64(agg.Quantile(0.99)) / 1e6
	return r, true
}

// LatencyQuantile returns the q-quantile of one stage across all
// tenants in the stage's raw units (nanoseconds, or ratio ×1e6 for
// deadline_burn). ok is false when empty.
func (m *Metrics) LatencyQuantile(stage string, q float64) (v uint64, ok bool) {
	agg := m.latAggregate(stage)
	if agg.Count() == 0 {
		return 0, false
	}
	return agg.Quantile(q), true
}

func (m *Metrics) latAggregate(stage string) LatencyHist {
	m.mu.Lock()
	defer m.mu.Unlock()
	var agg LatencyHist
	for k, h := range m.lat {
		if k.stage == stage {
			agg.Merge(h)
		}
	}
	return agg
}

// KindCount returns the total number of events of the given kind.
func (m *Metrics) KindCount(k Kind) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if k >= numKinds {
		return 0
	}
	return m.kinds[k]
}

// Snapshot flattens the registry. The receiver keeps accumulating;
// the snapshot is an independent copy.
func (m *Metrics) Snapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &Snapshot{
		Counters: make(map[string]uint64),
		Gauges:   make(map[string]float64),
	}
	for k, n := range m.kinds {
		if n != 0 {
			s.Counters["events."+Kind(k).String()] = n
		}
	}
	for k, n := range m.byName {
		s.Counters[counterPrefix[k.kind]+k.s] = n
	}
	for name, n := range m.extra {
		s.Counters[name] = n
	}
	if m.tenantDropped > 0 {
		s.Counters["tenant_labels_dropped"] = m.tenantDropped
	}
	for name, v := range m.gauges {
		s.Gauges[name] = v
	}
	if m.instrs > 0 && m.wallNS > 0 {
		s.Gauges["guest_instrs_per_sec"] = float64(m.instrs) / (float64(m.wallNS) / 1e9)
	}
	if m.unions > 0 {
		s.Gauges["taint.union_cache_hit_rate"] = float64(m.unionHits) / float64(m.unions)
	}
	if m.tlbProbes > 0 {
		s.Gauges["taint.tlb_hit_rate"] = float64(m.tlbProbes-m.tlbMisses) / float64(m.tlbProbes)
	}
	// Per-tier block shares: every retired block was credited to
	// exactly one tier (trace, clean — interpreter gets the
	// remainder), so the three shares always sum to 1.
	if blocks := m.gauges["harrier.blocks"]; blocks > 0 {
		tr := m.gauges["harrier.trace.hits"]
		cl := m.gauges["harrier.clean.hits"]
		s.Gauges["harrier.tier_share.trace"] = tr / blocks
		s.Gauges["harrier.tier_share.clean"] = cl / blocks
		s.Gauges["harrier.tier_share.interp"] = (blocks - tr - cl) / blocks
	}
	if len(m.hists) > 0 {
		s.Hists = make(map[string][]Bucket, len(m.hists))
		for name, bs := range m.hists {
			cp := make([]Bucket, len(bs))
			copy(cp, bs)
			sort.Slice(cp, func(i, j int) bool { return cp[i].Value < cp[j].Value })
			s.Hists[name] = cp
		}
	}
	for k, h := range m.lat {
		s.Latency = append(s.Latency, LatencySeries{
			Stage: k.stage, Tenant: k.tenant,
			Count: h.Count(), Sum: h.Sum(), Buckets: h.Buckets(),
		})
	}
	sort.Slice(s.Latency, func(i, j int) bool {
		a, b := s.Latency[i], s.Latency[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Tenant < b.Tenant
	})
	return s
}
