package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

// replay pretty-prints (or summarizes) a JSONL trace written by the
// hth.JSONL observer (plain or gzipped — flight dumps are gzipped by
// default). Only the filtered events are rendered, but the summary
// always counts the full stream. The filter syntax is obs.ParseFilter.
//
// For span-bearing traces the summary grows a per-job latency rollup:
// one line per "job" trace with its queue, exec, and end-to-end time
// reconstructed from the span.start/span.end pairs.
func replay(out io.Writer, path string, filter *obs.Filter, summary bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := obs.MaybeGzip(f)
	if err != nil {
		return fmt.Errorf("replay %s: %v", path, err)
	}

	var (
		total    uint64
		byLayer  = map[obs.Layer]uint64{}
		byKind   = map[obs.Kind]uint64{}
		byRule   = map[string]uint64{}
		warnings = map[string]uint64{}
		spans    = newSpanIndex()
	)
	err = obs.ReadJSONL(r, func(e obs.Event) error {
		total++
		byLayer[e.Layer]++
		byKind[e.Kind]++
		switch e.Kind {
		case obs.KindRuleFire:
			byRule[e.Str]++
		case obs.KindWarning:
			warnings[e.Str]++
		case obs.KindSpanStart, obs.KindSpanEnd:
			spans.add(e)
		}
		if !summary && filter.Match(e) {
			fmt.Fprintln(out, renderEvent(e))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay %s: %v", path, err)
	}
	if !summary {
		return nil
	}
	// The summary is deterministic for a deterministic guest: it never
	// includes wall-clock operands, and maps print in sorted order.
	// (The job-latency rollup durations below are wall-clock derived —
	// deterministic only for replayed fixtures, like the golden's.)
	fmt.Fprintf(out, "events: %d\n", total)
	fmt.Fprintln(out, "by layer:")
	ls := make([]obs.Layer, 0, len(byLayer))
	for l := range byLayer {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	for _, l := range ls {
		fmt.Fprintf(out, "  %-10s %d\n", l, byLayer[l])
	}
	fmt.Fprintln(out, "by kind:")
	for _, k := range sortedKinds(byKind) {
		fmt.Fprintf(out, "  %-14s %d\n", k, byKind[k])
	}
	printCounts(out, "rule fires", byRule)
	printCounts(out, "warnings", warnings)
	spans.printRollup(out)
	return nil
}

// spanIndex re-threads interleaved span events into per-trace span
// lists. Span IDs are process-unique at recording time, so the end
// event's ID alone resolves its trace.
type spanIndex struct {
	byID   map[uint64]int // span id → index in spans
	spans  []obs.Span
	traces map[uint64]string // span id → trace id (from the start event)
	maxEnd int64
}

func newSpanIndex() *spanIndex {
	return &spanIndex{byID: map[uint64]int{}, traces: map[uint64]string{}}
}

func (x *spanIndex) add(e obs.Event) {
	switch e.Kind {
	case obs.KindSpanStart:
		x.byID[e.Num] = len(x.spans)
		x.traces[e.Num] = e.Str2
		x.spans = append(x.spans, obs.Span{
			ID: e.Num, Parent: e.Num2, Name: e.Str, Start: int64(e.Time),
		})
	case obs.KindSpanEnd:
		if i, ok := x.byID[e.Num]; ok {
			x.spans[i].End = int64(e.Time)
			x.spans[i].Status = e.Str2
			if int64(e.Time) > x.maxEnd {
				x.maxEnd = int64(e.Time)
			}
		}
	}
}

// byTrace groups the reconstructed spans per trace id.
func (x *spanIndex) byTrace() map[string][]obs.Span {
	out := map[string][]obs.Span{}
	for _, sp := range x.spans {
		id := x.traces[sp.ID]
		out[id] = append(out[id], sp)
	}
	return out
}

// printRollup emits the per-job latency lines for every trace rooted
// at a "job" span (service jobs; batch "run" traces are skipped so
// live-run summaries stay wall-clock-free).
func (x *spanIndex) printRollup(out io.Writer) {
	type roll struct{ queue, exec, total int64 }
	jobs := map[string]*roll{}
	for _, sp := range x.spans {
		id := x.traces[sp.ID]
		if sp.Parent == 0 {
			if sp.Name != "job" {
				continue
			}
			if jobs[id] == nil {
				jobs[id] = &roll{}
			}
			jobs[id].total = sp.Duration()
		}
	}
	if len(jobs) == 0 {
		return
	}
	for _, sp := range x.spans {
		j := jobs[x.traces[sp.ID]]
		if j == nil {
			continue
		}
		switch sp.Name {
		case "queue":
			j.queue += sp.Duration()
		case "exec":
			j.exec += sp.Duration()
		}
	}
	ids := make([]string, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Fprintln(out, "job latency:")
	for _, id := range ids {
		j := jobs[id]
		fmt.Fprintf(out, "  %-10s queue %s  exec %s  total %s\n",
			id, fmtMS(j.queue), fmtMS(j.exec), fmtMS(j.total))
	}
}

// fmtMS renders nanoseconds as fixed-point milliseconds.
func fmtMS(ns int64) string {
	return fmt.Sprintf("%.2fms", float64(ns)/1e6)
}

// replaySpans reconstructs every span in the JSONL trace and writes
// one Chrome trace_event JSON covering all traces (one tid per trace)
// to outPath, or stdout when empty.
func replaySpans(path, outPath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := obs.MaybeGzip(f)
	if err != nil {
		return fmt.Errorf("replay %s: %v", path, err)
	}
	spans := newSpanIndex()
	if err := obs.ReadJSONL(r, func(e obs.Event) error {
		spans.add(e)
		return nil
	}); err != nil {
		return fmt.Errorf("replay %s: %v", path, err)
	}
	out := io.Writer(os.Stdout)
	if outPath != "" {
		g, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer g.Close()
		out = g
	}
	if err := obs.WriteChromeSpans(out, spans.byTrace(), spans.maxEnd); err != nil {
		return fmt.Errorf("spans: %v", err)
	}
	if outPath != "" {
		fmt.Printf("perfetto span trace written to %s\n", outPath)
	}
	return nil
}

func sortedKinds(m map[obs.Kind]uint64) []obs.Kind {
	ks := make([]obs.Kind, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func printCounts(out io.Writer, title string, m map[string]uint64) {
	if len(m) == 0 {
		return
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s:\n", title)
	for _, n := range names {
		fmt.Fprintf(out, "  %-30s %d\n", n, m[n])
	}
}

// renderEvent formats one event as a trace line:
//
//	seq  vtime layer    kind           pid  payload
func renderEvent(e obs.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6d %8d %-8s %-14s", e.Seq, e.Time, e.Layer, e.Kind)
	if e.PID != 0 {
		fmt.Fprintf(&b, " pid=%d", e.PID)
	}
	switch e.Kind {
	case obs.KindSecText, obs.KindSecAssert:
		// CLIPS text chunks carry raw bytes, newlines included; show
		// them quoted on one line.
		fmt.Fprintf(&b, " %q", e.Str)
		return b.String()
	}
	if e.Num != 0 || e.Num2 != 0 {
		fmt.Fprintf(&b, " num=%d num2=%d", e.Num, e.Num2)
	}
	if e.Str != "" {
		fmt.Fprintf(&b, " %s", e.Str)
	}
	if e.Str2 != "" {
		fmt.Fprintf(&b, " %s", e.Str2)
	}
	return b.String()
}
