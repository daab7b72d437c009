package corpus

import (
	"fmt"

	hth "repro"
)

// §9 — Performance evaluation workloads. The paper identifies data
// flow tracking as Harrier's main bottleneck (every data-moving
// instruction is instrumented). These guests let the benches compare:
//
//	bare        — no monitor attached (native interpreter speed)
//	nodataflow  — Harrier without Track_DataFlow
//	full        — the complete prototype
//
// aluWorkload is register-arithmetic heavy: the worst case for
// per-instruction instrumentation overhead.
const aluWorkload = `
.text
_start:
    mov esi, 30000      ; iterations
    mov eax, 0
    mov ebx, 0x12345
loop:
    add eax, esi
    xor eax, ebx
    shl eax, 1
    or  eax, 0x5A5A
    and eax, 0xFFFFFF
    sub ebx, 3
    dec esi
    jnz loop
    hlt
`

// memWorkload is memory-traffic heavy: the worst case for shadow
// lookups and tag unions.
const memWorkload = `
.text
_start:
    mov esi, 2000       ; passes
pass:
    mov edi, 0
copyloop:
    mov ecx, src
    add ecx, edi
    mov eax, [ecx]
    mov ecx, dst
    add ecx, edi
    mov [ecx], eax
    add edi, 4
    cmp edi, 64
    jl copyloop
    dec esi
    jnz pass
    hlt
.data
src: .space 64, 0xAB
dst: .space 64
`

// sparseWorkload is a block-copy kernel with taint in the picture but
// never in the path: stdin — a taint source — lands in tbuf, while
// the hot loop streams words between two scratch pages at
// 0x200000/0x201000, runtime-written memory far from both tbuf's
// shadow page and the binary image (whose bytes the loader tags at
// load time). This is the regime the clean tier targets: the trace
// tier alone pays the full word-granular shadow transfer on every
// entry — yet the loop's whole footprint stays on taint-free pages, so
// the value-independent clean proof holds at every value of the moving
// pointer and the clean tier runs the copy at concrete speed.
const sparseWorkload = `
.text
_start:
    mov ebx, 0
    mov ecx, tbuf
    mov edx, 64
    mov eax, 3          ; read(stdin): taints tbuf's page only
    int 0x80
    xor eax, eax
    mov edi, 0
seed:
    mov ecx, 0x200000   ; scratch buffers: runtime memory, never
    add ecx, edi        ; binary-tagged; seeding through a zeroed
    mov [ecx], eax      ; register keeps their shadow pages untouched
    add edi, 4
    cmp edi, 4096
    jl seed
    mov esi, 60         ; passes
pass:
    mov edi, 0
copyloop:
    mov ecx, 0x200000   ; src page; dst = the adjacent clean page,
    add ecx, edi        ; addressed as [ecx+0x1000+d]
    mov eax, [ecx]
    mov [ecx+0x1000], eax
    mov eax, [ecx+4]
    mov [ecx+0x1004], eax
    mov eax, [ecx+8]
    mov [ecx+0x1008], eax
    mov eax, [ecx+12]
    mov [ecx+0x100c], eax
    mov eax, [ecx+16]
    mov [ecx+0x1010], eax
    mov eax, [ecx+20]
    mov [ecx+0x1014], eax
    mov eax, [ecx+24]
    mov [ecx+0x1018], eax
    mov eax, [ecx+28]
    mov [ecx+0x101c], eax
    add edi, 32
    cmp edi, 4096
    jl copyloop
    dec esi
    jnz pass
    hlt
.data
tbuf: .space 64
`

// PerfMode selects the monitoring level for the performance benches.
type PerfMode int

// Performance modes.
const (
	PerfBare PerfMode = iota
	PerfNoDataflow
	PerfFull
)

// String names the mode.
func (m PerfMode) String() string {
	switch m {
	case PerfBare:
		return "bare"
	case PerfNoDataflow:
		return "nodataflow"
	case PerfFull:
		return "full"
	}
	return "?"
}

// PerfWorkloads names the available performance guests.
func PerfWorkloads() []string { return []string{"alu", "mem", "sparse"} }

// RunPerf executes the named workload under the given mode and
// returns the result (inspect TotalSteps for the work done).
func RunPerf(workload string, mode PerfMode) (*hth.Result, error) {
	return RunPerfObserved(workload, mode)
}

// RunPerfObserved is RunPerf with observers attached to the run's
// event bus — hth-bench feeds every perf run into one shared
// hth.Metrics registry this way. No observers means a disabled bus,
// i.e. exactly RunPerf.
func RunPerfObserved(workload string, mode PerfMode, observers ...hth.Observer) (*hth.Result, error) {
	return RunPerfWith(workload, mode, nil, observers...)
}

// RunPerfWith is RunPerfObserved with a configuration hook applied
// just before the run — the tier A/B benchmarks pin PromoteThreshold
// through it without the perf workloads leaking out of this package.
func RunPerfWith(workload string, mode PerfMode, tweak func(*hth.Config), observers ...hth.Observer) (*hth.Result, error) {
	sys := hth.NewSystem()
	// Batch-sized scheduler quantum: these are single-process
	// throughput guests, so fairness granularity buys nothing. A slice
	// end no longer drops a trace to a lower tier (the next slice
	// resumes it), but at the default interactive slice (128) the
	// per-slice scheduler round and dispatch alone would weigh on the
	// tier under test. Applied across all modes, so every A/B
	// comparison sees the same scheduling.
	sys.OS.SetStepsPerSlice(4096)
	spec := hth.RunSpec{Path: "/bin/" + workload}
	switch workload {
	case "alu":
		sys.MustInstallSource("/bin/alu", aluWorkload)
	case "mem":
		sys.MustInstallSource("/bin/mem", memWorkload)
	case "sparse":
		sys.MustInstallSource("/bin/sparse", sparseWorkload)
		spec.Stdin = []byte("sparse-taint: 64 bytes of external payload, page-isolated...")
	default:
		return nil, fmt.Errorf("corpus: unknown perf workload %q", workload)
	}
	cfg := hth.DefaultConfig()
	switch mode {
	case PerfBare:
		cfg.Unmonitored = true
	case PerfNoDataflow:
		cfg.Monitor.Dataflow = false
	}
	cfg.Observers = observers
	if tweak != nil {
		tweak(&cfg)
	}
	return sys.Run(cfg, spec)
}
