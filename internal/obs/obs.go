// Package obs is the observability layer of HTH: a unified event bus
// every subsystem publishes into — vos (syscall enter/exit with
// virtual timestamps, scheduler decisions, fd lifecycle), harrier
// (taint-state samples, basic-block counter rollovers), secpert (rule
// fires, warning emissions, CLIPS-style text), and chaos (injected
// faults) — plus composable sinks (JSONL streaming, a metrics
// registry, the flight recorder) that consume the stream.
//
// The bus is built for a hot path that is almost always cold: a
// disabled bus is a nil *Bus, and every publish site is guarded by a
// single nil-check, so an unobserved run pays one predictable branch
// per event site and allocates nothing. An enabled bus delivers each
// event to every sink synchronously, in publish order, on the
// simulator's single thread — ordering within a run (and therefore
// within a pid) is total and matches the virtual clock.
//
// Events are fixed-shape values (no interfaces, no maps): a layer, a
// kind, a virtual timestamp, a pid, two numeric operands, and two
// string operands whose meaning is per-kind (documented on the Kind
// constants). Passing them by value keeps the enabled path
// allocation-free for counting sinks.
package obs

// Layer identifies the subsystem that published an event.
type Layer uint8

// Layers, in architectural order (guest world → monitor → policy).
const (
	// LayerRun is the hth run boundary (run start/end, end-of-run
	// metric snapshots).
	LayerRun Layer = iota
	// LayerVOS is the virtual OS: syscalls, scheduler, processes, fds.
	LayerVOS
	// LayerHarrier is the run-time monitor: taint and BB counters.
	LayerHarrier
	// LayerSecpert is the expert system: fires, warnings, transcript.
	LayerSecpert
	// LayerChaos is the fault injector.
	LayerChaos
	// LayerService is the long-running analysis service (job
	// lifecycle, worker health, admission decisions).
	LayerService

	numLayers
)

var layerNames = [numLayers]string{
	LayerRun:     "run",
	LayerVOS:     "vos",
	LayerHarrier: "harrier",
	LayerSecpert: "secpert",
	LayerChaos:   "chaos",
	LayerService: "service",
}

// String names the layer as it appears in JSONL traces.
func (l Layer) String() string {
	if l < numLayers {
		return layerNames[l]
	}
	return "layer?"
}

// LayerByName resolves a trace-syntax layer name.
func LayerByName(name string) (Layer, bool) {
	for l, n := range layerNames {
		if n == name {
			return Layer(l), true
		}
	}
	return 0, false
}

// Kind classifies an event within its layer. The comment on each
// constant documents the payload fields it fills.
type Kind uint8

// Event kinds.
const (
	// KindRunStart opens a run. Str = root program path.
	KindRunStart Kind = iota
	// KindRunEnd closes a run. Num = total guest instructions,
	// Num2 = host wall time in nanoseconds, Str = scheduler outcome
	// ("clean", "deadlock", "budget", "deadline").
	KindRunEnd
	// KindMetric is an end-of-run registry sample. Str = metric name,
	// Num = value. Metrics sinks fold these into gauges.
	KindMetric
	// KindMetricBucket is one bucket of an end-of-run distribution.
	// Str = histogram name, Num = bucket value, Num2 = count.
	KindMetricBucket

	// KindSyscallEnter is a tracked call about to execute (exactly
	// once per completed call; blocking calls notify when they are
	// about to make progress). Num = syscall number, Str = SYS_* name,
	// Str2 = path operand when the call takes one.
	KindSyscallEnter
	// KindSyscallExit is a tracked call's completion. Num = syscall
	// number, Num2 = result register, Str = SYS_* name.
	KindSyscallExit
	// KindProcSpawn is a process entering the table (start or fork).
	// Num = parent pid, Str = program path.
	KindProcSpawn
	// KindProcExit is a process terminating. Num = exit code as the
	// guest reported it (uint32), Str = "exit", "kill" or "fault".
	KindProcExit
	// KindSchedBlock is the scheduler parking a process on a blocked
	// call. Num = syscall number responsible when known.
	KindSchedBlock
	// KindSchedUnblock is a parked process resuming.
	KindSchedUnblock
	// KindSchedEnd is the scheduler returning. Str = outcome
	// ("clean", "deadlock", "budget", "deadline").
	KindSchedEnd
	// KindFDOpen is a descriptor allocation. Num = fd number,
	// Str = resource path/address, Str2 = descriptor kind.
	KindFDOpen
	// KindFDClose is a descriptor release. Num = fd number,
	// Str = resource path/address.
	KindFDClose

	// KindBBRoll is a basic-block execution counter crossing a
	// multiple of the rollover quantum (see harrier). Num = block
	// leader address, Num2 = count, Str = owning image.
	KindBBRoll
	// KindBBTrace is a hot basic block crossing the tier promotion
	// threshold and compiling into a superblock trace. Num = trace
	// head leader address, Num2 = compiled mop count, Str = owning
	// image.
	KindBBTrace
	// KindBBClean is a trace demoting onto the uninstrumented clean
	// tier: its dataflow transfer was proved a no-op against the
	// current taint state, so entries run with concrete semantics only
	// until taint reaches their footprint. Num = trace head leader
	// address, Num2 = footprint page count,
	// Str = owning image.
	KindBBClean
	// KindTaintSample is a periodic snapshot of the taint substrate,
	// published every sample quantum of instrumented instructions.
	// Num = union operations, Num2 = union-cache hits, Str2 unused.
	KindTaintSample
	// KindTaintTLB is the page-cache half of a taint sample.
	// Num = TLB probes, Num2 = TLB misses.
	KindTaintTLB

	// KindRuleFire is one expert-system rule firing. Num = fire
	// sequence number, Str = rule name.
	KindRuleFire
	// KindWarning is a policy warning. Num = severity (secpert
	// ordering), Str = rule name, Str2 = message.
	KindWarning
	// KindSecText is a chunk of the engine's CLIPS-style printout
	// (fire trace and warning rendering). Str = the exact bytes.
	KindSecText
	// KindSecAssert is a chunk of the Appendix-A.1 assert transcript.
	// Str = the exact bytes.
	KindSecAssert

	// KindChaosFault is one injected fault. Num = errno delivered,
	// Num2 = kind detail, Str = fault kind, Str2 = path/address.
	KindChaosFault

	// KindJobEnqueue is a service job admitted to the queue.
	// Str = tenant, Str2 = job id.
	KindJobEnqueue
	// KindJobStart is a service job beginning execution on a worker.
	// Str = tenant, Str2 = job id.
	KindJobStart
	// KindJobDone is a service job terminating with a result or a
	// typed error. Str = tenant, Str2 = outcome code ("done", an error
	// code, or "aborted").
	KindJobDone
	// KindJobAbort is a queued service job completed as a structured
	// abort during drain. Str = tenant, Str2 = job id.
	KindJobAbort
	// KindWorkerRecycle is a service worker goroutine replaced after a
	// task panic. Str = tenant of the panicking job, Str2 = job id.
	KindWorkerRecycle

	// KindSpanStart opens a lifecycle span. Num = span id (process-
	// unique), Num2 = parent span id (0 = trace root), Str = span name,
	// Str2 = trace id (the job id for service traces). Time carries the
	// span's wall-clock start in nanoseconds — span events are the one
	// kind stamped from the host clock rather than the virtual clock,
	// because they measure where host time went.
	KindSpanStart
	// KindSpanEnd closes a lifecycle span. Num = span id, Num2 =
	// duration in nanoseconds, Str = span name, Str2 = status ("ok",
	// an outcome, or an error code). Time = wall-clock end ns.
	KindSpanEnd
	// KindJobLatency is one per-job latency observation the registry
	// folds into its fixed-bucket histograms. Str = tenant, Str2 =
	// stage ("queue", "exec", "e2e" in nanoseconds; "deadline_burn" as
	// ratio ×1e6), Num = value.
	KindJobLatency

	numKinds
)

var kindNames = [numKinds]string{
	KindRunStart:     "run.start",
	KindRunEnd:       "run.end",
	KindMetric:       "metric",
	KindMetricBucket: "metric.bucket",
	KindSyscallEnter: "syscall.enter",
	KindSyscallExit:  "syscall.exit",
	KindProcSpawn:    "proc.spawn",
	KindProcExit:     "proc.exit",
	KindSchedBlock:   "sched.block",
	KindSchedUnblock: "sched.unblock",
	KindSchedEnd:     "sched.end",
	KindFDOpen:       "fd.open",
	KindFDClose:      "fd.close",
	KindBBRoll:       "bb.roll",
	KindBBTrace:      "bb.trace",
	KindBBClean:      "bb.clean",
	KindTaintSample:  "taint.sample",
	KindTaintTLB:     "taint.tlb",
	KindRuleFire:     "rule.fire",
	KindWarning:      "warning",
	KindSecText:      "sec.text",
	KindSecAssert:    "sec.assert",
	KindChaosFault:   "chaos.fault",

	KindJobEnqueue:    "job.enqueue",
	KindJobStart:      "job.start",
	KindJobDone:       "job.done",
	KindJobAbort:      "job.abort",
	KindWorkerRecycle: "worker.recycle",

	KindSpanStart:  "span.start",
	KindSpanEnd:    "span.end",
	KindJobLatency: "job.latency",
}

// String names the kind as it appears in JSONL traces.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "kind?"
}

// KindByName resolves a trace-syntax kind name.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one observation. The payload fields Num/Num2/Str/Str2 are
// interpreted per Kind (see the Kind constants). Events are passed by
// value end to end; sinks that retain one must copy nothing — the
// strings are immutable.
type Event struct {
	// Seq is the bus-assigned publish sequence number, 1-based.
	// Delivery order equals Seq order for every sink.
	Seq uint64
	// Time is the virtual clock at publication (one tick per executed
	// guest instruction).
	Time uint64
	// Layer and Kind classify the event.
	Layer Layer
	Kind  Kind
	// PID is the guest process involved, 0 for machine-level events.
	PID int32
	// Num, Num2, Str, Str2 are the per-kind payload operands.
	Num  uint64
	Num2 uint64
	Str  string
	Str2 string
}

// Sink consumes a stream of events. Event is invoked synchronously in
// publish order; Close flushes any buffering when the run finishes.
// Sinks must tolerate events of kinds they do not understand (new
// kinds appear as layers grow).
type Sink interface {
	Event(e Event)
	Close() error
}

// Bus fans events out to its sinks. A nil *Bus is the disabled bus:
// every publish site guards with one nil-check and pays nothing else.
// A Bus is not safe for concurrent use; the simulation is
// single-threaded per run, matching the monitor's synchronous event
// model.
type Bus struct {
	sinks []Sink
	seq   uint64
	clock func() uint64
}

// NewBus builds a bus delivering to the given sinks in order.
func NewBus(sinks ...Sink) *Bus {
	return &Bus{sinks: sinks}
}

// SetClock installs the virtual-clock source used to stamp events
// published by writers that have no clock of their own (see Publish).
func (b *Bus) SetClock(fn func() uint64) { b.clock = fn }

// Publish stamps the event with the next sequence number and delivers
// it to every sink. Callers fill Time themselves when they hold the
// virtual clock; a zero Time is stamped from the bus clock source.
func (b *Bus) Publish(e Event) {
	b.seq++
	e.Seq = b.seq
	if e.Time == 0 && b.clock != nil {
		e.Time = b.clock()
	}
	for _, s := range b.sinks {
		s.Event(e)
	}
}

// Close closes every sink, returning the first error.
func (b *Bus) Close() error {
	if b == nil {
		return nil
	}
	var first error
	for _, s := range b.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
