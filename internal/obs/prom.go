package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4), the wire form the analysis
// service serves on /metrics. The output is byte-stable for a given
// snapshot: families and label values are emitted in sorted order and
// no timestamp is attached, so a deterministic run exposes a
// deterministic page (modulo the wall-clock throughput gauge).
//
// The flat snapshot counters map onto labelled families:
//
//	events.<kind>    → hth_events_total{kind="<kind>"}
//	syscall.<name>   → hth_syscalls_total{name="<name>"}
//	rule.<name>      → hth_rule_fires_total{rule="<name>"}
//	warning.<name>   → hth_warnings_total{rule="<name>"}
//	chaos.<name>     → hth_chaos_faults_total{kind="<name>"}
//
// plus the job_* per-tenant families, and tenant_labels_dropped →
// hth_tenant_labels_dropped_total. Every counter the registry emits
// lands in one of these.
//
// Gauges become hth_<name> with non-alphanumerics folded to '_', and
// discrete distributions ("taint.width") become one labelled series
// per bucket value.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	pw := &promWriter{w: w}

	type family struct {
		name, label, help string
	}
	families := []struct {
		prefix string
		family
	}{
		{"chaos.", family{"hth_chaos_faults_total", "kind", "Injected chaos faults by kind."}},
		{"events.", family{"hth_events_total", "kind", "Observed events by kind."}},
		{"job_aborted.", family{"hth_jobs_aborted_total", "tenant", "Service jobs aborted during drain by tenant."}},
		{"job_done.", family{"hth_jobs_done_total", "tenant", "Service jobs terminated by tenant."}},
		{"job_submitted.", family{"hth_jobs_submitted_total", "tenant", "Service jobs admitted by tenant."}},
		{"rule.", family{"hth_rule_fires_total", "rule", "Expert-system rule firings by rule."}},
		{"syscall.", family{"hth_syscalls_total", "name", "Tracked guest system calls by name."}},
		{"warning.", family{"hth_warnings_total", "rule", "Policy warnings by rule."}},
	}
	grouped := make(map[string]map[string]uint64)
	for k := range s.Counters {
		for _, f := range families {
			if strings.HasPrefix(k, f.prefix) {
				if grouped[f.name] == nil {
					grouped[f.name] = make(map[string]uint64)
				}
				grouped[f.name][k[len(f.prefix):]] = s.Counters[k]
				break
			}
		}
	}
	if n, ok := s.Counters["tenant_labels_dropped"]; ok {
		pw.header("hth_tenant_labels_dropped_total", "counter",
			"Tenant label observations folded into the \"other\" bucket by the cardinality cap.")
		pw.printf("hth_tenant_labels_dropped_total %d\n", n)
	}
	for _, f := range families {
		vals := grouped[f.name]
		if len(vals) == 0 {
			continue
		}
		pw.header(f.name, "counter", f.help)
		for _, lv := range sortedKeys(vals) {
			pw.printf("%s{%s=%q} %d\n", f.name, f.label, lv, vals[lv])
		}
	}

	gnames := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		mn := "hth_" + sanitizeMetricName(name)
		pw.header(mn, "gauge", "")
		pw.printf("%s %s\n", mn, strconv.FormatFloat(s.Gauges[name], 'g', -1, 64))
	}

	hnames := make([]string, 0, len(s.Hists))
	for name := range s.Hists {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		mn := "hth_" + sanitizeMetricName(name)
		pw.header(mn, "gauge", "Discrete distribution: count per value.")
		for _, b := range s.Hists[name] {
			pw.printf("%s{value=\"%d\"} %d\n", mn, b.Value, b.Count)
		}
	}

	writeLatencyFamilies(pw, s.Latency)
	return pw.err
}

// latencyFamilies maps each latency stage the service publishes to its
// Prometheus histogram family and the divisor converting raw units to
// the family's unit.
var latencyFamilies = map[string]struct {
	name, help string
	div        float64
}{
	"queue":         {"hth_job_queue_wait_seconds", "Job queue wait by tenant.", 1e9},
	"exec":          {"hth_job_exec_seconds", "Job execution time by tenant.", 1e9},
	"e2e":           {"hth_job_e2e_seconds", "Job end-to-end latency (submit to verdict) by tenant.", 1e9},
	"deadline_burn": {"hth_job_deadline_burn_ratio", "Fraction of the job deadline consumed by execution, by tenant.", 1e6},
}

// writeLatencyFamilies renders the per-(stage, tenant) latency series
// as genuine Prometheus histograms: cumulative le buckets, _sum and
// _count per tenant. Series arrive sorted by (stage, tenant) from
// Snapshot, so output is byte-stable.
func writeLatencyFamilies(pw *promWriter, series []LatencySeries) {
	lastStage := ""
	for _, ls := range series {
		fam := latencyFamilies[ls.Stage]
		if ls.Stage != lastStage {
			pw.header(fam.name, "histogram", fam.help)
			lastStage = ls.Stage
		}
		var cum uint64
		for _, b := range ls.Buckets {
			cum += b.Count
			pw.printf("%s_bucket{tenant=%q,le=%q} %d\n", fam.name, ls.Tenant,
				strconv.FormatFloat(float64(b.Value)/fam.div, 'g', -1, 64), cum)
		}
		pw.printf("%s_bucket{tenant=%q,le=\"+Inf\"} %d\n", fam.name, ls.Tenant, ls.Count)
		pw.printf("%s_sum{tenant=%q} %s\n", fam.name, ls.Tenant,
			strconv.FormatFloat(float64(ls.Sum)/fam.div, 'g', -1, 64))
		pw.printf("%s_count{tenant=%q} %d\n", fam.name, ls.Tenant, ls.Count)
	}
}

// promWriter accumulates the first write error so WritePrometheus
// stays linear.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func (p *promWriter) header(name, typ, help string) {
	if help != "" {
		p.printf("# HELP %s %s\n", name, help)
	}
	p.printf("# TYPE %s %s\n", name, typ)
}

func sortedKeys(m map[string]uint64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// sanitizeMetricName folds a registry name ("taint.union_cache_hit_rate")
// into the Prometheus metric-name alphabet.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
