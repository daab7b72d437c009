// Package hth is the public API of the HTH (Hunting Trojan Horses)
// framework — a reproduction of Moffie & Kaeli, "Hunting Trojan
// Horses" (NUCAR TR-01, 2006). HTH couples Harrier, a run-time monitor
// that virtualizes a guest program and tracks its data flow, system
// calls and basic-block frequencies, with Secpert, a CLIPS-style
// security expert system that matches the observed behaviour against a
// Trojan/Backdoor policy and warns with Low/Medium/High severity.
//
// A minimal session:
//
//	sys := hth.NewSystem()
//	sys.InstallSource("/bin/suspect", srcText)
//	res, err := sys.Run(hth.DefaultConfig(), hth.RunSpec{Path: "/bin/suspect"})
//	for _, w := range res.Warnings {
//	    fmt.Println(w)
//	}
//
// The guest world is fully simulated: programs are written in the
// guest assembly language of internal/asm, executed on the virtual OS
// of internal/vos, and may talk to scripted remote peers on the
// simulated network. See DESIGN.md for the substitution argument.
package hth

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/guestlib"
	"repro/internal/harrier"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/secpert"
	"repro/internal/vos"
)

// Re-exported severity levels (paper §4).
const (
	Low    = secpert.Low
	Medium = secpert.Medium
	High   = secpert.High
)

// Config assembles the monitor and policy configuration for one run.
type Config struct {
	// Policy is Secpert's rule configuration.
	Policy secpert.Config
	// Monitor is Harrier's instrumentation configuration.
	Monitor harrier.Config
	// Advisor decides continue/kill per warning; nil continues always.
	Advisor secpert.Advisor
	// Unmonitored runs the guest without Harrier attached (native
	// speed; the §9 baseline).
	Unmonitored bool
	// MaxSteps caps total guest instructions (0 = generous default).
	MaxSteps uint64
	// Chaos, when non-nil, attaches a seeded fault injector to the
	// run (see internal/chaos). A zero-rate plan is guest-invisible:
	// results are bit-identical to a run with no plan at all.
	Chaos *chaos.Plan
	// Deadline bounds the run's wall-clock time; on expiry the
	// scheduler stops and Result.RunErr is vos.ErrDeadline. Zero
	// means no deadline.
	Deadline time.Duration
	// MaxOpenFDs caps open descriptors per guest process; exhaustion
	// surfaces to the guest as EMFILE. 0 applies the vos default
	// (vos.DefaultMaxOpenFDs); negative disables the cap.
	MaxOpenFDs int
	// Observers receive the run's structured event stream (syscalls,
	// scheduler decisions, taint samples, rule fires, warnings, chaos
	// faults). Attach with WithObserver; see JSONL, NewMetrics,
	// Sampling, CLIPSText. With no observers the bus is disabled and
	// every publish site costs one nil-check.
	Observers []Observer
	// Provenance enables causal provenance tracing: every taint source
	// gets a stable ID at its entry point and accumulates a bounded hop
	// list, and each warning carries the rendered chains of the sources
	// behind it (Warning.Chain). Recording is read-only with respect to
	// taint state, so detections and tag sets are bit-identical with it
	// on or off. Off by default; enable with WithProvenance.
	Provenance bool
	// Symbolize renders provenance block hops symbolically when the
	// owning image carries symbols: "bb /bin/suspect:_start+0x8" instead
	// of "bb 0x8048008" (frames without a covering symbol keep the raw
	// address). Requires Provenance; it changes only how chains render,
	// never what is recorded or detected. Off by default — the default
	// rendering stays byte-identical to earlier releases — enable with
	// WithSymbolizedChains.
	Symbolize bool
	// FlightSize arms the flight recorder: a fixed-size, allocation-free
	// ring holding the last N events even when no other observer is
	// attached. Zero leaves it off unless FlightPath or Introspect is
	// set, in which case the default size (obs.DefaultFlightSize) is
	// used. See WithFlightRecorder.
	FlightSize int
	// FlightPath, when set, dumps the flight ring as gzipped JSONL to
	// this file when the run ends with a warning, a scheduler error, a
	// guest fault, or injected chaos faults. See WithFlightDump.
	FlightPath string
	// JobTag, when set alongside FlightPath, makes the dump path
	// unique per run: "<path>.<tag>.jsonl.gz" (any ".jsonl"/".jsonl.gz"
	// suffix on FlightPath is folded in first). Pooled runs sharing a
	// dump location set this to their job id so concurrent workers
	// cannot clobber each other's post-mortem dumps. See WithJobTag.
	JobTag string
	// Introspect, when set, serves live introspection over HTTP on this
	// address for the duration of the run: /metrics (Prometheus text),
	// /events (filtered SSE stream), /flight (ring dump), and
	// /debug/pprof. The server stays up after the run until
	// Result.Introspection.Shutdown. See WithIntrospection.
	Introspect string
	// Spans arms job-lifecycle span tracing: the run records a
	// wall-clock span tree (load / instrument / execute / report, with
	// per-tier time children under execute) into Result.Spans, and
	// mirrors span.start/span.end events onto the bus when one is
	// attached. Spans are a pure observer — detections, taint state,
	// and the event stream's deterministic kinds are bit-identical
	// with spans on or off — and a disabled recorder costs one
	// nil-check per engine dispatch. See WithSpans.
	Spans bool
	// spanRec/spanParent let an embedding service graft this run's
	// phase spans under its own job trace: the run publishes into the
	// given recorder beneath spanParent instead of opening a root of
	// its own. Internal plumbing for Service; zero values mean the run
	// owns its trace.
	spanRec    *obs.SpanRecorder
	spanParent uint64
}

// DefaultConfig mirrors the paper's prototype: full instrumentation,
// libc.so/ld-linux.so trusted, continue past warnings.
func DefaultConfig() Config {
	return Config{
		Policy:  secpert.DefaultConfig(),
		Monitor: harrier.DefaultConfig(),
	}
}

// RunSpec names the program to execute.
type RunSpec struct {
	Path  string
	Argv  []string
	Env   []string
	Stdin []byte
}

// Result is the outcome of one monitored run.
type Result struct {
	// Warnings are Secpert's alerts in emission order.
	Warnings []secpert.Warning
	// Console is everything the guest tree wrote to stdout/stderr.
	Console []byte
	// Process is the root guest process (inspect exit state).
	Process *vos.Process
	// Stats counts Harrier's instrumentation work (zero when
	// unmonitored).
	Stats harrier.Stats
	// Events is the EventAnalyzer transcript: every event sent to
	// Secpert with its verdict, in order (empty when unmonitored or
	// when Monitor.KeepEventLog is off).
	Events []harrier.LogEntry
	// TotalSteps is the number of guest instructions executed.
	TotalSteps uint64
	// RunErr is a scheduler-level outcome (vos.ErrDeadlock,
	// vos.ErrBudget or vos.ErrDeadline) — not a setup failure.
	RunErr error
	// Chaos lists every fault the configured injector delivered, in
	// injection order (empty without a chaos plan). Each injected
	// fault is thereby a structured, reportable outcome.
	Chaos []chaos.Fault
	// Secpert is the expert-system instance (nil when unmonitored).
	Secpert *secpert.Secpert
	// Flight is the flight-recorder contents at end of run, oldest
	// first (nil when the recorder was not armed).
	Flight []Event
	// Provenance is the provenance recorder with every source's chain
	// (nil unless Config.Provenance).
	Provenance *obs.Provenance
	// Introspection is the live HTTP server, still running so the run
	// can be inspected post-mortem; the caller owns Shutdown (nil
	// unless Config.Introspect).
	Introspection *obs.Introspection
	// Spans is the run's lifecycle span recorder (nil unless
	// Config.Spans): the load/instrument/execute/report phase spans
	// with per-tier time children under execute. Export with
	// Spans.WriteChromeTrace.
	Spans *obs.SpanRecorder
	// ObserverErr is the first error an observer reported on Close —
	// e.g. a JSONL sink whose writer failed mid-run (nil when clean).
	ObserverErr error
}

// MaxSeverity returns the highest warning severity and whether any
// warning was issued.
func (r *Result) MaxSeverity() (secpert.Severity, bool) {
	if r.Secpert == nil {
		return secpert.Low, false
	}
	return r.Secpert.MaxSeverity()
}

// HasWarning reports whether any warning was issued by the named rule.
func (r *Result) HasWarning(rule string) bool {
	for _, w := range r.Warnings {
		if w.Rule == rule {
			return true
		}
	}
	return false
}

// CountAt returns how many warnings have exactly the given severity.
func (r *Result) CountAt(sev secpert.Severity) int {
	n := 0
	for _, w := range r.Warnings {
		if w.Severity == sev {
			n++
		}
	}
	return n
}

// Report renders the warnings as the paper prints them. Warnings that
// carry provenance chains (Config.Provenance) list them indented under
// the message; without provenance the output is byte-identical to
// earlier releases.
func (r *Result) Report() string {
	if len(r.Warnings) == 0 {
		return "No warnings.\n"
	}
	var b strings.Builder
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "%s\n", w)
		for _, ch := range w.Chain {
			fmt.Fprintf(&b, "    chain: %s\n", ch)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// System is a guest world under construction: a virtual OS with
// guestlib installed, programs, files, and network peers.
//
// A System is not safe for concurrent runs: Run (and Session.Wait)
// reconfigure and execute the one underlying scheduler, so a second
// concurrent call returns ErrSystemBusy instead of racing. Distinct
// Systems share no mutable state; run as many as you like in
// parallel (one per job is the service and corpus-sweep discipline).
type System struct {
	// OS is the underlying virtual machine, exposed for advanced
	// setups (scheduled connections, extra hosts).
	OS *vos.OS

	// running guards the execute path: 1 while a Run/Wait holds the
	// scheduler.
	running atomic.Int32
}

// NewSystem creates a guest world with libc.so and ld-linux.so
// installed. Both are the process-wide guestlib images shared by every
// System, so building a world assembles nothing.
func NewSystem() *System {
	os := vos.New(vos.Options{})
	guestlib.InstallInto(os)
	return &System{OS: os}
}

// Install places an executable image at path.
func (s *System) Install(path string, img *image.Image) {
	s.OS.FS.Install(path, img)
}

// InstallSource assembles src and installs it at path. It forces the
// text frontend (image.DecodeAs) rather than sniffing, so arbitrary
// source text is never mis-detected, and compile diagnostics come back
// exactly as asm.Assemble reports them.
func (s *System) InstallSource(path, src string) error {
	img, err := image.DecodeAs("asm", path, []byte(src))
	if err != nil {
		return err
	}
	s.OS.FS.Install(path, img)
	return nil
}

// InstallBinary places a raw binary at path, decoding it through the
// format-agnostic frontend registry (ELF magic first, then the text
// heuristic). The raw bytes are retained alongside the decoded image,
// so a guest execve of the path re-decodes exactly what was installed.
// Structural failures — a malformed ELF, machine code outside the
// supported subset — wrap image.ErrBadImage.
func (s *System) InstallBinary(path string, data []byte) error {
	_, err := s.OS.FS.InstallBinary(path, data)
	return err
}

// InstallDecodedBinary places a raw binary at path together with an
// image already decoded from exactly those bytes, skipping the decode
// InstallBinary would repeat. The service uses it to reuse its
// submit-time validation decode on every execution attempt.
func (s *System) InstallDecodedBinary(path string, data []byte, img *image.Image) {
	s.OS.FS.InstallDecoded(path, data, img)
}

// MustInstallSource is InstallSource for statically known-good
// sources; it panics on assembly errors.
func (s *System) MustInstallSource(path, src string) {
	if err := s.InstallSource(path, src); err != nil {
		panic(err)
	}
}

// CreateFile places a plain file in the guest filesystem.
func (s *System) CreateFile(path string, data []byte) {
	s.OS.FS.Create(path, data)
}

// AddHost registers a hostname for the guest's gethostbyname.
func (s *System) AddHost(name, addr string) { s.OS.Net.AddHost(name, addr) }

// AddRemote registers a scripted remote service the guest can connect
// to.
func (s *System) AddRemote(endpoint string, factory func() vos.RemoteScript) {
	s.OS.Net.AddRemote(endpoint, factory)
}

// ScheduleConnect arranges a scripted remote peer to dial a guest
// listener at the given virtual time.
func (s *System) ScheduleConnect(at uint64, addr, from string, script vos.RemoteScript) {
	s.OS.Net.ScheduleConnect(at, addr, from, script)
}

// Run executes the program under the given configuration and returns
// the monitored outcome. Setup failures return an error — guest-
// attributable ones (missing program, malformed image) as a
// *GuestFault; scheduler outcomes land in Result.RunErr. A panic
// anywhere inside the run is contained at this boundary and returned
// as a *RunError rather than crashing the caller.
func (s *System) Run(cfg Config, spec RunSpec) (res *Result, err error) {
	if !s.running.CompareAndSwap(0, 1) {
		return nil, ErrSystemBusy
	}
	defer s.running.Store(0)
	defer contain("run", &res, &err)
	rc := newRunCore(s, cfg)
	if err := rc.setupErr(); err != nil {
		rc.abort()
		return nil, err
	}
	p, err := rc.start(spec)
	if err != nil {
		rc.abort()
		return nil, &GuestFault{Path: spec.Path, Err: err}
	}
	began := time.Now()
	runErr := s.OS.Run()
	return rc.finish(p, runErr, time.Since(began)), nil
}

// Session monitors one or more programs with a single Secpert
// instance — the "simultaneous sessions" extension of paper §10 item
// 7: resource provenance observed while monitoring one program
// informs the analysis of the others.
type Session struct {
	rc    *runCore
	procs []*vos.Process
}

// NewSession creates a shared monitoring session on this system. The
// configuration is applied through the same normalized path as
// System.Run, so budgets, chaos plans and observers (the CLIPSText and
// CLIPSTranscript sinks among them) all behave identically.
func (s *System) NewSession(cfg Config) *Session {
	return &Session{rc: newRunCore(s, cfg)}
}

// Start launches a program under this session's shared monitor. The
// program does not run until Wait.
func (sn *Session) Start(spec RunSpec) (*vos.Process, error) {
	if err := sn.rc.setupErr(); err != nil {
		return nil, err
	}
	p, err := sn.rc.start(spec)
	if err != nil {
		return nil, err
	}
	sn.procs = append(sn.procs, p)
	return p, nil
}

// Wait runs every started program to completion and returns the
// combined result (Process is the first started program). Panics are
// contained as in System.Run.
func (sn *Session) Wait() (res *Result, err error) {
	if !sn.rc.sys.running.CompareAndSwap(0, 1) {
		return nil, ErrSystemBusy
	}
	defer sn.rc.sys.running.Store(0)
	defer contain("wait", &res, &err)
	if len(sn.procs) == 0 {
		return nil, fmt.Errorf("hth: session has no started programs")
	}
	began := time.Now()
	runErr := sn.rc.sys.OS.Run()
	return sn.rc.finish(sn.procs[0], runErr, time.Since(began)), nil
}
