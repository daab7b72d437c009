package main

import (
	"container/heap"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	hth "repro"
	"repro/internal/obs"
)

// layerSpans maps each span of a service job's trace to the module
// whose work its self time measures. Self time is the span's duration
// minus the part of it that its child spans cover.
var layerSpans = []struct{ span, layer string }{
	{"job", "service (between stages)"},
	{"admit", "service admission"},
	{"decode", "image, x86 (ELF decode)"},
	{"queue", "service, internal/pool (queue wait)"},
	{"exec", "asm, world build (exec self)"},
	{"instrument", "harrier set-up"},
	{"load", "loader"},
	{"execute", "harrier dispatch (execute self)"},
	{"tier.interp", "harrier interpreter tier"},
	{"tier.summary", "harrier summary tier"},
	{"tier.trace", "harrier trace tier"},
	{"tier.clean", "harrier clean tier"},
	{"report", "result assembly"},
	{"verdict", "service verdict"},
}

// execSubtree are the spans that partition an exec span.
var execSubtree = []string{"exec", "instrument", "load", "execute", "tier.interp", "tier.summary", "tier.trace", "tier.clean", "report"}

// maxSlow bounds the recorders kept for the Chrome dump of the slowest
// 1% of jobs; it covers runs of up to 200k jobs exactly.
const maxSlow = 2000

// tracer folds every correct in-window job of a traced run into
// per-span self times and keeps what the micro rows and the Chrome
// dump need.
type tracer struct {
	mu        sync.Mutex
	self      map[string][]float64 // span name → per-job self time, ns
	dur       map[string][]float64 // span name → per-job duration, ns
	call      []float64            // submit call, ns
	transport []float64            // submit call minus admit span, ns
	phaseQ    map[int][]float64    // open-loop phase → queue span, ns
	e2e       float64              // Σ root span, ns
	subtree   float64              // Σ self time over execSubtree, ns
	slow      slowHeap
	kept      map[string]keptJob // first verdict per input, for the replay row
}

type keptJob struct {
	in  *input
	res *hth.Result
}

func newTracer() *tracer {
	return &tracer{self: map[string][]float64{}, dur: map[string][]float64{},
		phaseQ: map[int][]float64{}, kept: map[string]keptJob{}}
}

func (t *tracer) add(j jobRecord) {
	rec := j.h.Spans()
	self, dur := spanTimes(rec.Spans())
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range layerSpans {
		if _, ok := dur[l.span]; ok {
			s := self[l.span]
			if l.span == "admit" {
				s -= dur["decode"] // the decode span nests inside admission
			}
			t.self[l.span] = append(t.self[l.span], s)
			t.dur[l.span] = append(t.dur[l.span], dur[l.span])
		}
	}
	for _, n := range execSubtree {
		t.subtree += self[n]
	}
	t.e2e += dur["job"]
	t.phaseQ[j.phase] = append(t.phaseQ[j.phase], dur["queue"])
	t.call = append(t.call, float64(j.call.Nanoseconds()))
	t.transport = append(t.transport, float64(j.call.Nanoseconds())-dur["admit"])
	if _, ok := t.kept[j.in.name]; !ok {
		t.kept[j.in.name] = keptJob{j.in, j.res.Raw}
	}
	e := j.end.Sub(j.start)
	if t.slow.Len() < maxSlow {
		heap.Push(&t.slow, slowJob{e, rec})
	} else if e > t.slow[0].e2e {
		t.slow[0] = slowJob{e, rec}
		heap.Fix(&t.slow, 0)
	}
}

// spanTimes sums each span name's self time and duration over one
// trace (a retried job has several queue/exec spans).
func spanTimes(spans []obs.Span) (self, dur map[string]float64) {
	kids := map[uint64][]obs.Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self, dur = map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		d := s.End - s.Start
		dur[s.Name] += float64(d)
		self[s.Name] += float64(d - covered(s, kids[s.ID]))
	}
	return self, dur
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p obs.Span, kids []obs.Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if k.End != 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var n, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			n += v.b - end
			end = v.b
		}
	}
	return n
}

// layerRow is one line of the report's per-layer table.
type layerRow struct {
	Span     string  `json:"span"`
	Layer    string  `json:"layer"`
	Jobs     int     `json:"jobs"`
	SelfP50  float64 `json:"self_us_p50"`
	SelfP99  float64 `json:"self_us_p99"`
	ShareE2E float64 `json:"share_of_e2e"`
}

// layers renders the per-layer table.
func (t *tracer) layers() []layerRow {
	var rows []layerRow
	for _, l := range layerSpans {
		xs := t.self[l.span]
		if len(xs) == 0 {
			continue
		}
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		rows = append(rows, layerRow{
			Span: l.span, Layer: l.layer, Jobs: len(xs),
			SelfP50: quantile(xs, 0.5) / 1e3, SelfP99: quantile(xs, 0.99) / 1e3,
			ShareE2E: ratio(sum, t.e2e),
		})
	}
	return rows
}

// execCoverage is the exec subtree's summed self times over the summed
// exec spans: 1 when the layers account for all of exec.
func (t *tracer) execCoverage() float64 {
	sum := 0.0
	for _, d := range t.dur["exec"] {
		sum += d
	}
	return ratio(t.subtree, sum)
}

// tierShare is one tier's share of all tier time.
func (t *tracer) tierShare(tier string) float64 {
	var all, one float64
	for _, n := range obs.TierNames {
		for _, d := range t.dur["tier."+n] {
			all += d
			if n == tier {
				one += d
			}
		}
	}
	return ratio(one, all)
}

// dumpSlowest writes the slowest 1% of jobs' span trees as one Chrome
// trace_event file (open it in Perfetto) and returns its path.
func (t *tracer) dumpSlowest(dir, name string) (string, error) {
	n := (len(t.call) + 99) / 100
	jobs := append([]slowJob(nil), t.slow...)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].e2e > jobs[j].e2e })
	if n > len(jobs) {
		n = len(jobs)
	}
	traces := map[string][]obs.Span{}
	for _, j := range jobs[:n] {
		traces[j.rec.TraceID()] = j.rec.Spans()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := obs.WriteChromeSpans(f, traces, time.Now().UnixNano()); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}

type slowJob struct {
	e2e time.Duration
	rec *obs.SpanRecorder
}

// slowHeap is a min-heap on e2e: the root is the fastest kept job.
type slowHeap []slowJob

func (h slowHeap) Len() int           { return len(h) }
func (h slowHeap) Less(i, j int) bool { return h[i].e2e < h[j].e2e }
func (h slowHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slowHeap) Push(x any)        { *h = append(*h, x.(slowJob)) }
func (h *slowHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
