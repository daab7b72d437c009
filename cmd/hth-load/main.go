// Command hth-load is the seeded load benchmark of the HTH analysis
// service. For each workload it generates the inputs from a seed,
// drives one hth.Service with them from this process (two closed-loop
// clients, or an open-loop generator over two HTTP connections),
// checks every verdict against a reference computed outside the
// service, and reports end-to-end metrics or, with -trace 1, per-layer
// metrics from the jobs' span trees plus micro rows.
//
//	hth-load [-workload all|corpus-closed|taint-dense|taint-sparse|upload-open]
//	         [-seed N] [-seconds S] [-trace 0|1] [-runs N] [-out F.json] [-chrome DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed job, or a micro
// row whose output does not check, makes the exit status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	hth "repro"
	"repro/internal/obs"
)

// defaultSeed is the seed the recorded numbers in README.md use.
const defaultSeed = 1

// serviceWorkers is hth.ServiceConfig{}'s worker count (4 shards × 1
// worker, hth-serve's defaults), the base of service.busy_share.
const serviceWorkers = 4

const (
	// maxWarm caps the discarded warm-up; a window shorter than 20 s
	// warms up for a tenth of its length.
	maxWarm = 2 * time.Second
	// Set-up repeats between minSetups and maxSetups times, and for a
	// twentieth of the window (1 s at 20 s) in between.
	minSetups, maxSetups = 3, 50
)

type runConfig struct {
	workload  string
	seed      uint64
	window    time.Duration
	traced    bool
	chromeDir string
	// instrScale multiplies the kernels' instruction budgets: 1 except
	// in the tests, which shrink whole runs to a few hundred ms.
	instrScale float64
	// tamper, when set, edits the inputs after set-up; the tests use it
	// to plant a wrong reference.
	tamper func(*inputSet)
}

func (rc runConfig) warm() time.Duration { return min(maxWarm, rc.window/10) }

// report is one workload run's outcome.
type report struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Traced       bool               `json:"traced"`
	WindowS      float64            `json:"window_s"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Failures     []string           `json:"failures,omitempty"`
	Metrics      map[string]float64 `json:"metrics"`
	E2ESamples   int                `json:"e2e_samples"`
	FailedRatio  float64            `json:"failed_ratio"`
	Phases       []phaseReport      `json:"phases,omitempty"`
	SLORate      float64            `json:"slo_rate_jobs_per_s,omitempty"`
	GenLagP99    float64            `json:"generator_lag_ms_p99,omitempty"`
	Layers       []layerRow         `json:"layers,omitempty"`
	ExecCoverage float64            `json:"exec_coverage,omitempty"`
	Notes        []string           `json:"notes,omitempty"`
	ChromeTrace  string             `json:"chrome_trace,omitempty"`
}

// phaseReport is one open-loop rate's outcome.
type phaseReport struct {
	Rate         float64 `json:"rate_jobs_per_s"`
	Jobs         int     `json:"jobs"`
	Failed       int     `json:"failed"`
	P50MS        float64 `json:"e2e_p50_ms"`
	P99MS        float64 `json:"e2e_p99_ms"`
	QueueP99MS   float64 `json:"queue_ms_p99,omitempty"` // traced pass only
	BacklogGrows bool    `json:"backlog_grows"`
	MeetsSLO     bool    `json:"meets_slo"`
}

func main() { os.Exit(runCLI(os.Args[1:], os.Stdout, os.Stderr)) }

func runCLI(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hth-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", defaultSeed, "input seed; -runs N uses seed..seed+N-1")
	seconds := fs.Float64("seconds", 20, "measured window per run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	runs := fs.Int("runs", 1, "runs per workload; reports median and quartiles")
	out := fs.String("out", "", "write every report as JSON to this file")
	chrome := fs.String("chrome", filepath.Join(".bench_build", "chrome"),
		"directory for the traced pass's Chrome trace of the slowest 1% of jobs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w {
			names = append(names, w)
		}
	}
	if len(names) == 0 || *seconds <= 0 || *trace < 0 || *trace > 1 || *runs < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "hth-load: bad arguments")
		fs.Usage()
		return 2
	}
	rc := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, chromeDir: *chrome, instrScale: 1}
	return execute(names, *runs, rc, *out, stdout, stderr)
}

// execute runs every named workload runs times, alternating the order
// between runs, prints the reports and the summary line, and returns
// the exit status.
func execute(names []string, runs int, rc runConfig, outPath string, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "hth-load: GOMAXPROCS=%d, %d clients, window %s, warm-up %s, traced=%v\n",
		runtime.GOMAXPROCS(0), clients, rc.window, rc.warm(), rc.traced)
	var reps []*report
	status := 0
	for r := 0; r < runs; r++ {
		order := slices.Clone(names)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			c := rc
			c.workload, c.seed = w, rc.seed+uint64(r)
			rep, err := runOnce(c)
			if err != nil {
				fmt.Fprintf(stderr, "hth-load: %s seed %d: %v\n", w, c.seed, err)
				return 1
			}
			printReport(stdout, rep)
			if rep.Failed > 0 {
				status = 1
			}
			reps = append(reps, rep)
		}
	}
	sum := summarize(reps, rc.traced)
	if runs > 1 {
		printSummary(stdout, sum)
	}
	if outPath != "" {
		doc := map[string]any{"seed": rc.seed, "runs": runs, "window_s": rc.window.Seconds(),
			"traced": rc.traced, "reports": reps, "summary": sum}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "hth-load: -out: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(resultLine(reps, sum))
	if err != nil {
		fmt.Fprintf(stderr, "hth-load: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return status
}

// runOnce is one workload run: repeated timed set-ups, warm-up, the
// measured window, drain, and (traced) the micro rows.
func runOnce(rc runConfig) (*report, error) {
	open := rc.workload == "upload-open"
	var set *inputSet
	var svc *hth.Service
	var setups []float64
	begin := time.Now()
	for len(setups) < minSetups || (time.Since(begin) < rc.window/20 && len(setups) < maxSetups) {
		if svc != nil {
			if err := drain(svc); err != nil {
				return nil, err
			}
		}
		s, v, d, err := setup(rc.workload, rc.seed, rc.instrScale)
		if err != nil {
			return nil, err
		}
		set, svc = s, v
		setups = append(setups, d.Seconds())
	}
	if rc.tamper != nil {
		rc.tamper(set)
	}

	a := newAcc(rc.traced)
	var smp *sampler
	var lag []float64
	var err error
	if open {
		smp, lag, err = driveOpen(svc, set, a, rc.seed, rc.warm(), rc.window)
	} else {
		smp = driveClosed(svc, set, a, rc.warm(), rc.window)
	}
	// The service still holds the results it keeps for Lookup: collect
	// once and weigh what stays live.
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	if derr := drain(svc); err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}

	window := a.t1.Sub(a.t0)
	_, setupMed, _ := quartiles(setups)
	r := &report{
		Workload: rc.workload, Seed: rc.seed, Traced: rc.traced, WindowS: window.Seconds(),
		Attempted: a.attempted, Failed: a.failed, Failures: a.failures,
		FailedRatio: ratio(float64(a.failed), float64(a.attempted)),
		Metrics: map[string]float64{
			"setup_s":      setupMed,
			"jobs_per_s":   float64(a.done) / window.Seconds(),
			"guest_mips":   float64(a.steps) / window.Seconds() / 1e6,
			"heap_live_mb": float64(live[0].Value.Uint64()) / (1 << 20),
		},
	}
	// Latency is the median over the window's three phases (the open
	// loop's three rates, the closed loop's three thirds), so one phase
	// hit by a stall from outside the process does not set the number.
	var p50s, p99s []float64
	ph := window / time.Duration(len(a.lat))
	for i, l := range a.lat {
		r.E2ESamples += len(l)
		p50s, p99s = append(p50s, quantile(l, 0.5)), append(p99s, quantile(l, 0.99))
		if !open {
			continue
		}
		p := phaseReport{Rate: openRates[i], Jobs: a.phaseN[i], Failed: a.phaseFail[i], P50MS: p50s[i], P99MS: p99s[i],
			BacklogGrows: backlogGrows(smp.backlog, a.t0.Add(time.Duration(i)*ph), a.t0.Add(time.Duration(i+1)*ph))}
		if a.tr != nil {
			p.QueueP99MS = quantile(a.tr.phaseQ[i], 0.99) / 1e6
		}
		p.MeetsSLO = p.P99MS <= ms(sloP99) && ratio(float64(p.Failed), float64(p.Jobs)) <= 0.01 && !p.BacklogGrows
		if p.MeetsSLO {
			r.SLORate = p.Rate
		}
		r.Phases = append(r.Phases, p)
	}
	_, r.Metrics["e2e_p50_ms"], _ = quartiles(p50s)
	_, r.Metrics["e2e_p99_ms"], _ = quartiles(p99s)
	if open {
		r.GenLagP99 = quantile(lag, 0.99)
	}
	if rc.traced {
		if err := layerMetrics(r, a, smp, set, rc); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// layerMetrics fills the traced pass's per-layer metrics.
func layerMetrics(r *report, a *acc, smp *sampler, set *inputSet, rc runConfig) error {
	tr, m := a.tr, r.Metrics
	jobs := float64(a.done)
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	m["service.admit_us.p50"] = quantile(tr.self["admit"], 0.5) / 1e3
	m["service.queue_ms.p50"] = quantile(tr.dur["queue"], 0.5) / 1e6
	m["service.queue_ms.p99"] = quantile(tr.dur["queue"], 0.99) / 1e6
	m["service.busy_share"] = sum(tr.dur["exec"]) / (float64((a.t1.Sub(a.t0)).Nanoseconds()) * serviceWorkers)
	m["submit.call_us.p50"] = quantile(tr.call, 0.5) / 1e3
	m["submit.call_us.p99"] = quantile(tr.call, 0.99) / 1e3
	m["submit.transport_us.p50"] = quantile(tr.transport, 0.5) / 1e3
	m["job.world_us.p50"] = quantile(tr.self["exec"], 0.5) / 1e3
	m["loader.load_us.p50"] = quantile(tr.self["load"], 0.5) / 1e3
	m["harrier.instrument_us.p50"] = quantile(tr.self["instrument"], 0.5) / 1e3
	m["run.execute_ms.p50"] = quantile(tr.dur["execute"], 0.5) / 1e6
	m["run.report_us.p50"] = quantile(tr.self["report"], 0.5) / 1e3
	mix := a.mix
	entries := [...]uint64{mix.Interp, mix.Summary, mix.Trace, mix.Clean} // obs.TierNames order
	for i, n := range obs.TierNames {
		m["tier."+n+".time_share"] = tr.tierShare(n)
		m["tier."+n+".block_share"] = ratio(float64(entries[i]), float64(mix.Blocks))
	}
	m["harrier.trace_side_exit_ratio"] = ratio(float64(a.sideExits), float64(mix.Trace))
	m["harrier.gate_skip_ratio"] = ratio(float64(a.gateSkips), float64(mix.Trace))
	m["harrier.reinstrumented_per_job"] = ratio(float64(mix.Reinstrumented), jobs)
	m["vm.guest_instrs_per_job"] = ratio(float64(a.steps), jobs)
	m["taint.union_hit_ratio"] = ratio(float64(a.unionHits), float64(a.unions))
	m["secpert.events_per_job"] = ratio(float64(a.events), jobs)
	m["secpert.warnings_per_job"] = ratio(float64(a.warnings), jobs)
	m["go.alloc_kb_per_job"] = ratio(smp.delta(0)/1024, jobs)
	// Share of the CPU time the runtime had available (GOMAXPROCS × wall).
	m["go.gc_cpu_share"] = ratio(smp.delta(1), smp.delta(2))
	r.Layers, r.ExecCoverage = tr.layers(), tr.execCoverage()

	micro, notes, err := microRows(set, tr, rc)
	if err != nil {
		r.Failed++
		r.Failures = append(r.Failures, "micro row: "+err.Error())
		return nil
	}
	for k, v := range micro {
		m[k] = v
	}
	r.Notes = notes
	if len(tr.call) > 0 {
		path, err := tr.dumpSlowest(rc.chromeDir, fmt.Sprintf("%s-seed%d", rc.workload, rc.seed))
		if err != nil {
			return fmt.Errorf("chrome trace: %w", err)
		}
		r.ChromeTrace = path
	}
	return nil
}

func drain(svc *hth.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// catalogue is the metric list a report of this kind emits.
func catalogue(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "== %s seed %d: window %.2fs, %d jobs attempted, %d failed (failed_ratio %.4f)\n",
		r.Workload, r.Seed, r.WindowS, r.Attempted, r.Failed, r.FailedRatio)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	for _, d := range catalogue(r.Traced) {
		fmt.Fprintf(w, "   %-32s %14.4f %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	fmt.Fprintf(w, "   %-32s %14.4f ms (not gated; n=%d)\n", "e2e_p99_ms", r.Metrics["e2e_p99_ms"], r.E2ESamples)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "   phase %5.0f jobs/s: %5d jobs, %d failed, e2e p50 %.2f ms p99 %.2f ms, queue p99 %.3f ms, backlog grows %v, meets SLO %v\n",
			p.Rate, p.Jobs, p.Failed, p.P50MS, p.P99MS, p.QueueP99MS, p.BacklogGrows, p.MeetsSLO)
	}
	if r.Phases != nil {
		fmt.Fprintf(w, "   %-32s %14.4f jobs/s\n   %-32s %14.4f ms\n",
			"slo_rate_jobs_per_s", r.SLORate, "generator_lag_ms_p99", r.GenLagP99)
	}
	for _, l := range r.Layers {
		fmt.Fprintf(w, "   layer %-13s %-38s self p50 %10.1f us  p99 %10.1f us  %5.1f%% of e2e\n",
			l.Span, l.Layer, l.SelfP50, l.SelfP99, 100*l.ShareE2E)
	}
	if r.Traced {
		fmt.Fprintf(w, "   exec coverage by layer self times: %.4f\n", r.ExecCoverage)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	if r.ChromeTrace != "" {
		fmt.Fprintf(w, "   slowest 1%% of jobs: %s\n", r.ChromeTrace)
	}
}

// stat is one metric's spread over a set of runs.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// summarize gathers each workload's metrics across runs.
func summarize(reps []*report, traced bool) map[string]map[string]*stat {
	out := map[string]map[string]*stat{}
	for _, r := range reps {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]*stat{}
		}
		for _, d := range catalogue(traced) {
			s := out[r.Workload][d.name]
			if s == nil {
				s = &stat{Unit: d.unit}
				out[r.Workload][d.name] = s
			}
			s.Values = append(s.Values, r.Metrics[d.name])
		}
	}
	for _, ms := range out {
		for _, s := range ms {
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		}
	}
	return out
}

func printSummary(w io.Writer, sum map[string]map[string]*stat) {
	fmt.Fprintln(w, "== median [q1, q3] and spread (q3-q1)/median over runs")
	for _, wl := range workloads {
		ms := sum[wl]
		if ms == nil {
			continue
		}
		for _, name := range sortedKeys(ms) {
			s := ms[name]
			fmt.Fprintf(w, "   %-14s %-32s %12.4f [%12.4f, %12.4f] %6.2f%% %s\n",
				wl, name, s.Median, s.Q1, s.Q3, 100*ratio(s.Q3-s.Q1, math.Abs(s.Median)), s.Unit)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of output. One run of one workload
// reports its metrics as measured; several report each metric's
// median under "<workload>/<metric>".
func resultLine(reps []*report, sum map[string]map[string]*stat) map[string]any {
	attempted, failed := 0, 0
	for _, r := range reps {
		attempted += r.Attempted
		failed += r.Failed
	}
	m := map[string]metricValue{}
	if len(reps) == 1 {
		for _, d := range catalogue(reps[0].Traced) {
			m[d.name] = metricValue{reps[0].Metrics[d.name], d.unit}
		}
	} else {
		for w, ms := range sum {
			for name, s := range ms {
				m[w+"/"+name] = metricValue{s.Median, s.Unit}
			}
		}
	}
	return map[string]any{"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": m}
}
