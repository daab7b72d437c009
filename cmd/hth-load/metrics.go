package main

// metricDef names one reported metric. The catalogues below are the
// ones BENCHMARK.json lists; load_test.go checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// endToEnd metrics are what a user of the service sees, measured with
// the traced pass off. Every workload reports every one of them. The
// e2e p99 is printed beside them but not listed: on the reference host
// its run-to-run spread (20-110%) exceeds any bound BENCHMARK.json
// allows (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"guest_mips", "Minstr/s", "higher"},
	{"e2e_p50_ms", "ms", "lower"},
	{"heap_live_mb", "MiB", "lower"},
}

// perLayer metrics come from the traced pass: job span trees, the
// counters on JobResult, and micro rows for layers no span covers.
var perLayer = []metricDef{
	{"service.admit_us.p50", "us", "lower"},
	{"service.queue_ms.p50", "ms", "lower"},
	{"service.queue_ms.p99", "ms", "lower"},
	{"service.busy_share", "ratio", "lower"},
	{"submit.call_us.p50", "us", "lower"},
	{"submit.call_us.p99", "us", "lower"},
	{"submit.transport_us.p50", "us", "lower"},
	{"image.decode_us.elf-trojan", "us", "lower"},
	{"image.decode_us.elf-benign", "us", "lower"},
	{"asm.assemble_us.p50", "us", "lower"},
	{"job.world_us.p50", "us", "lower"},
	{"loader.load_us.p50", "us", "lower"},
	{"harrier.instrument_us.p50", "us", "lower"},
	{"run.execute_ms.p50", "ms", "lower"},
	{"tier.interp.time_share", "ratio", "lower"},
	{"tier.summary.time_share", "ratio", "lower"},
	{"tier.trace.time_share", "ratio", "higher"},
	{"tier.clean.time_share", "ratio", "higher"},
	{"tier.interp.block_share", "ratio", "lower"},
	{"tier.summary.block_share", "ratio", "lower"},
	{"tier.trace.block_share", "ratio", "higher"},
	{"tier.clean.block_share", "ratio", "higher"},
	{"harrier.trace_side_exit_ratio", "ratio", "lower"},
	{"harrier.gate_skip_ratio", "ratio", "higher"},
	{"harrier.reinstrumented_per_job", "count", "lower"},
	{"vm.guest_instrs_per_job", "count", "lower"},
	{"taint.union_hit_ratio", "ratio", "higher"},
	{"vm.unmonitored_mips", "Minstr/s", "higher"},
	{"secpert.replay_us.p50", "us", "lower"},
	{"secpert.events_per_job", "count", "lower"},
	{"secpert.warnings_per_job", "count", "lower"},
	{"run.report_us.p50", "us", "lower"},
	{"go.alloc_kb_per_job", "KiB", "lower"},
	{"go.gc_cpu_share", "ratio", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
}

// workloads are the benchmark's traffic mixes, in run order. Why each
// exists is in README.md; the one-line form is BENCHMARK.json's.
var workloads = []string{"corpus-closed", "taint-dense", "taint-sparse", "upload-open"}
