package hth

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/harrier"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/pool"
)

// Service is the long-running analysis front of HTH: one pool of
// workers executing monitored runs ("jobs") submitted by many
// concurrent tenants, built so that hostile or bursty load degrades
// the service gracefully instead of wedging it:
//
//   - every job runs in a private System on the first free worker
//     goroutine, so a queued job waits only while every worker is
//     busy; per-job step and deadline budgets bound how long one job
//     holds a worker;
//   - the queue is bounded, and a full queue is explicit
//     backpressure (an *OverloadError carrying a Retry-After hint —
//     HTTP 429 at the transport), never unbounded buffering;
//   - every admitted job runs with exactly the features its spec
//     asked for: load decides whether a job is admitted, never what
//     it returns;
//   - a worker that panics — outside the run's own containment — is
//     recycled, and its job ends at once in the typed worker-crash
//     error (the monitor is deterministic, so a re-run would repeat
//     the panic);
//   - Drain never loses a job: in-flight jobs finish, queued jobs are
//     completed as structured aborts (code JobAborted).
//
// Detections are the point of the service, so none of the resilience
// machinery may touch them: at chaos rate zero a job's warnings are
// bit-identical to a batch System.Run of the same inputs.
type Service struct {
	cfg     ServiceConfig
	metrics *obs.Metrics
	pool    *pool.Pool

	mu        sync.Mutex
	jobs      map[string]*JobHandle
	doneOrder []string // completed job ids, oldest first, for eviction
	faults    []chaos.Fault
	seq       uint64
	draining  bool
	mix       TierMix // tier mix accumulated over the done jobs
}

// ServiceConfig sizes the service and its failure policy. The zero
// value is usable: every field has a default.
type ServiceConfig struct {
	// Workers is the worker-goroutine count (default 4); each admitted
	// job runs on the first free one.
	Workers int
	// QueueDepth bounds the queue of admitted-but-not-running jobs
	// (default 64). A full queue rejects with *OverloadError.
	QueueDepth int
	// RetryAfter is the backpressure hint handed to rejected
	// submitters (default 500ms; the HTTP layer renders it as a
	// Retry-After header).
	RetryAfter time.Duration
	// DefaultDeadline is the per-job wall-clock budget applied when the
	// spec does not name one (default 10s).
	DefaultDeadline time.Duration
	// MaxDeadline clamps per-job deadline requests (default 30s).
	MaxDeadline time.Duration
	// MaxSteps clamps per-job instruction budgets; 0 leaves the
	// run-level default (50M) in charge.
	MaxSteps uint64
	// KeepResults bounds how many completed jobs stay resolvable via
	// Lookup after termination (default 4096); older results are
	// evicted oldest-first. Held JobHandle pointers are unaffected.
	KeepResults int
	// Chaos, when non-nil, arms the service-level fault plan: each job
	// derives a private injector (Plan.Derive over the job id) that can
	// corrupt its spec, stall its dispatch, or crash its worker at
	// fixed decision points. Zero-rate plans are inert. This drives the
	// chaos soak; production services leave it nil.
	Chaos *chaos.Plan
}

func (c *ServiceConfig) normalize() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 500 * time.Millisecond
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.KeepResults <= 0 {
		c.KeepResults = 4096
	}
}

// JobSpec describes one analysis job: the guest world to build, the
// program to run under the monitor, and per-job budget and feature
// requests. The JSON form is the POST /jobs wire format; FlightPath
// and the Setup and Tweak hooks are for in-process embedders (the
// bench harness and the corpus identity gate) and are not reachable
// over HTTP.
type JobSpec struct {
	// Tenant labels the submitter in per-tenant metrics ("" is folded
	// to "anon").
	Tenant string `json:"tenant,omitempty"`
	// Programs maps guest paths to assembly source; each is assembled
	// and installed into the job's private System.
	Programs map[string]string `json:"programs,omitempty"`
	// Binaries maps guest paths to raw binary payloads (base64 on the
	// wire), decoded through the format-agnostic frontend registry —
	// ELF32 executables land here. A payload no frontend accepts, or a
	// malformed one (truncated ELF, machine code outside the supported
	// subset), terminates the job with the typed bad-image error —
	// HTTP 400 — never a worker crash. The job's guest files share
	// these bytes rather than copying them (a guest write copies
	// first), so the caller must not modify them after Submit.
	Binaries map[string][]byte `json:"binaries,omitempty"`
	// Files maps guest paths to plain file contents. Like Binaries, the
	// guest files share the bytes: do not modify them after Submit.
	Files map[string][]byte `json:"files,omitempty"`
	// Path is the program to execute (required).
	Path string `json:"path"`
	// Argv, Env, Stdin are the guest process inputs.
	Argv  []string `json:"argv,omitempty"`
	Env   []string `json:"env,omitempty"`
	Stdin []byte   `json:"stdin,omitempty"`
	// MaxSteps overrides the instruction budget (clamped by the
	// service's MaxSteps).
	MaxSteps uint64 `json:"max_steps,omitempty"`
	// DeadlineMS overrides the wall-clock budget in milliseconds
	// (clamped by the service's MaxDeadline).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Provenance requests causal provenance chains on warnings.
	Provenance bool `json:"provenance,omitempty"`
	// Symbolize renders provenance block hops as image:symbol+delta
	// frames when the loaded images carry symbols; it is effective only
	// together with Provenance.
	Symbolize bool `json:"symbolize,omitempty"`
	// Stream requests live JobUpdate delivery (warnings as they fire)
	// on the handle's Updates channel.
	Stream bool `json:"stream,omitempty"`

	// FlightPath requests a post-mortem flight dump; the actual file
	// is "<path>.<jobid>.jsonl.gz" so concurrent jobs never clobber
	// each other. In-process submitters only: a server-side file path
	// is not the client's to choose.
	FlightPath string `json:"-"`
	// Setup, when non-nil, builds the guest world programmatically
	// before Programs/Files are installed. In-process submitters only.
	Setup func(*System) `json:"-"`
	// Tweak, when non-nil, adjusts the run configuration after
	// defaults are applied and before the service's budget clamps and
	// the spec's feature requests. In-process submitters only.
	Tweak func(*Config) `json:"-"`
}

// flightDumpPath derives a job's flight-dump location,
// "<base>.<id>.jsonl.gz", where base is the requested path with any
// ".jsonl"/".jsonl.gz" suffix stripped so every dump keeps one
// extension.
func flightDumpPath(path, id string) string {
	base := strings.TrimSuffix(strings.TrimSuffix(path, ".gz"), ".jsonl")
	return base + "." + id + ".jsonl.gz"
}

// Job error codes (JobError.Code).
const (
	// JobBadSpec rejects a malformed specification (missing path, no
	// program source, bad budgets) — HTTP 400.
	JobBadSpec = "bad-spec"
	// JobBadProgram rejects a spec whose program source does not
	// assemble.
	JobBadProgram = "bad-program"
	// JobBadImage rejects a spec whose binary payload is structurally
	// malformed (unrecognized bytes, truncated ELF, out-of-subset
	// machine code) — HTTP 400.
	JobBadImage = "bad-image"
	// JobGuestFault is a guest-attributable setup failure (missing
	// or malformed image at exec time).
	JobGuestFault = "guest-fault"
	// JobRunPanic is a panic inside the monitored run, contained at
	// the run boundary (*RunError).
	JobRunPanic = "run-panic"
	// JobWorkerCrash is a worker goroutine crash outside the run's
	// containment (a Setup hook panic, a service bug, or the chaos
	// worker-crash fault). The job is not re-run: the monitor is
	// deterministic, so a re-run would crash the same way.
	JobWorkerCrash = "worker-crash"
	// JobAborted is a queued job completed as a structured abort
	// because the service drained before it could run.
	JobAborted = "aborted"
)

// JobError is the typed terminal failure of a job. Every job the
// service admits terminates in either a verdict or exactly one of
// these — never silence.
type JobError struct {
	Code string `json:"code"`
	Msg  string `json:"msg,omitempty"`
}

// Error renders the failure.
func (e *JobError) Error() string {
	if e.Msg == "" {
		return "hth: job " + e.Code
	}
	return fmt.Sprintf("hth: job %s: %s", e.Code, e.Msg)
}

// OverloadError is the backpressure rejection: the service's queue is
// full. Retry after the hinted delay (HTTP 429 with a Retry-After
// header at the transport).
type OverloadError struct {
	RetryAfter time.Duration
}

// Error renders the rejection.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("hth: service overloaded (queue full); retry after %s", e.RetryAfter)
}

// ErrDraining rejects submissions while the service is shutting down
// (HTTP 503 at the transport).
var ErrDraining = errors.New("hth: service is draining; not accepting jobs")

// JobWarning is one policy warning in a JobResult, with its causal
// chains when provenance was on.
type JobWarning struct {
	Severity string   `json:"severity"`
	Rule     string   `json:"rule"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
}

// JobResult is a job's terminal outcome.
type JobResult struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// Status is "done" (the run completed and the verdict stands),
	// "failed" (typed error; see Error), or "aborted" (drained while
	// queued; Error.Code is JobAborted).
	Status string `json:"status"`
	// Outcome is the scheduler outcome of a done run: "clean",
	// "deadlock", "budget", or "deadline".
	Outcome string `json:"outcome,omitempty"`
	// Verdict is "clean" or the highest warning severity ("Low",
	// "Medium", "High").
	Verdict  string       `json:"verdict,omitempty"`
	Warnings []JobWarning `json:"warnings,omitempty"`
	// WarnHash is an FNV-64a hash over the rendered warning texts —
	// the same reduction the corpus sweep signature uses — so verdict
	// identity against a batch run is one string compare.
	WarnHash   string `json:"warn_hash,omitempty"`
	TotalSteps uint64 `json:"total_steps,omitempty"`
	// TierMix is the run's execution-tier block-entry mix (nil for
	// failed/aborted jobs and for unmonitored runs).
	TierMix *TierMix `json:"tier_mix,omitempty"`
	// DroppedUpdates counts stream updates dropped because the tenant
	// read too slowly (the stream never stalls a worker).
	DroppedUpdates uint64 `json:"dropped_updates,omitempty"`
	// ServiceFaults lists injected service-level chaos faults, in
	// injection order (empty without a chaos plan).
	ServiceFaults []string  `json:"service_faults,omitempty"`
	Error         *JobError `json:"error,omitempty"`
	WallNS        int64     `json:"wall_ns,omitempty"`

	// Raw is the full monitored result for in-process embedders (nil
	// for failed/aborted jobs; never serialized). The service releases
	// every process's taint shadow and guest memory, its code's
	// compiled traces, and the run's taint store and block-counter
	// cache, when the job settles, so the shadows and memories
	// reachable from Raw.Process are empty, every span's trace slots
	// read empty, the shadows' Store() is nil, and so is the monitor's
	// Store: registers, exit state, warnings, events, stats and block
	// frequencies stay, but a taint tag reachable from Raw (a
	// register's tag, an fd's origin) names nothing. The images
	// reachable from Raw (Process.Images, Process.OS.FS) include the
	// process-wide guest libraries every job shares, and a file the
	// guest never wrote holds the submitter's own JobSpec bytes: read
	// them, never mutate them.
	Raw *Result `json:"-"`
}

// TierMix is the execution-tier mix of a monitored run: how many
// block entries each tier of the taint engine served (interpreter,
// trace, clean). The shares partition Blocks — every entry is credited
// to exactly one tier — so fleet views can aggregate mixes by plain
// addition. Reinstrumented counts clean-tier verdicts flushed because
// taint reached their footprint (not a block share, but the clean
// tier's safety valve, so it travels with the mix). Summary is always
// 0: the engine has no summary tier, and the field is kept only
// because the cmd/hth-load benchmark reads it.
type TierMix struct {
	Blocks         uint64 `json:"blocks"`
	Interp         uint64 `json:"interp"`
	Summary        uint64 `json:"summary"`
	Trace          uint64 `json:"trace"`
	Clean          uint64 `json:"clean"`
	Reinstrumented uint64 `json:"reinstrumented,omitempty"`
}

// tierMixOf derives the mix from a run's monitor statistics.
func tierMixOf(st harrier.Stats) TierMix {
	return TierMix{
		Blocks:         st.Blocks,
		Interp:         st.Blocks - st.TraceHits - st.CleanHits,
		Trace:          st.TraceHits,
		Clean:          st.CleanHits,
		Reinstrumented: st.Reinstrumented,
	}
}

// add accumulates another run's mix (fleet aggregation).
func (m *TierMix) add(o TierMix) {
	m.Blocks += o.Blocks
	m.Interp += o.Interp
	m.Trace += o.Trace
	m.Clean += o.Clean
	m.Reinstrumented += o.Reinstrumented
}

// JobUpdate is one live stream record for a job submitted with
// Stream: today, a warning as it fires.
type JobUpdate struct {
	Event    string `json:"event"` // "warning"
	Severity string `json:"severity,omitempty"`
	Rule     string `json:"rule,omitempty"`
	Message  string `json:"message,omitempty"`
}

// JobHandle tracks one admitted job to its terminal state.
type JobHandle struct {
	id     string
	tenant string

	done    chan struct{}
	updates chan JobUpdate // nil unless streaming
	dropped atomic.Uint64
	spans   *obs.SpanRecorder

	mu    sync.Mutex
	state string // "queued" → "running" → terminal Status
	res   *JobResult
}

func newHandle(id, tenant string, stream bool) *JobHandle {
	h := &JobHandle{
		id: id, tenant: tenant,
		done:  make(chan struct{}),
		state: "queued",
	}
	if stream {
		h.updates = make(chan JobUpdate, 64)
	}
	return h
}

// ID returns the service-assigned job id.
func (h *JobHandle) ID() string { return h.id }

// Tenant returns the submitting tenant label.
func (h *JobHandle) Tenant() string { return h.tenant }

// Done is closed when the job reaches a terminal state.
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Spans returns the job's lifecycle trace recorder: the
// submit→queue→exec→verdict span tree, with runCore's phase and
// per-tier children grafted under each exec span. Every span is
// closed by the time Done() fires. Export with
// Spans().WriteChromeTrace (GET /jobs/{id}/trace over HTTP).
func (h *JobHandle) Spans() *obs.SpanRecorder { return h.spans }

// Updates returns the live stream channel (nil unless the spec asked
// for streaming). The channel is closed at job termination; a slow
// reader loses intermediate updates (counted in
// JobResult.DroppedUpdates) but never the final result.
func (h *JobHandle) Updates() <-chan JobUpdate { return h.updates }

// Status reports "queued", "running", or the terminal
// JobResult.Status.
func (h *JobHandle) Status() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Result returns the terminal result, nil while the job is still
// queued or running.
func (h *JobHandle) Result() *JobResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res
}

// Wait blocks until the job terminates or the context is cancelled.
func (h *JobHandle) Wait(ctx context.Context) (*JobResult, error) {
	select {
	case <-h.done:
		return h.Result(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// push delivers a stream update without ever blocking the worker: a
// full buffer (slow tenant) drops the update and counts it.
func (h *JobHandle) push(u JobUpdate) {
	if h.updates == nil {
		return
	}
	select {
	case h.updates <- u:
	default:
		h.dropped.Add(1)
	}
}

// claim installs the terminal result exactly once, reporting whether
// this call won (a panic inside finish or complete may offer a second
// ending; the first sticks). Waiters stay blocked until release.
func (h *JobHandle) claim(r *JobResult) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.res != nil {
		return false
	}
	r.DroppedUpdates = h.dropped.Load()
	h.res = r
	h.state = r.Status
	return true
}

// release wakes the waiters of a claimed handle.
func (h *JobHandle) release() {
	if h.updates != nil {
		close(h.updates)
	}
	close(h.done)
}

// job is the internal unit of work: the spec, the handle, and the
// derived chaos injector.
type job struct {
	h       *JobHandle
	spec    JobSpec
	decoded map[string]*image.Image // binary payloads decoded at submit
	inj     *chaos.Injector         // nil without a service chaos plan

	// Lifecycle trace state: the recorder (shared with the handle),
	// the root "job" span, the open queue/exec spans, and the
	// effective deadline for the deadline-burn gauge. qspan/espan are
	// written by whichever goroutine owns the job at that moment
	// (submitter, worker) and EndSpan is idempotent, so racing
	// terminators close them safely.
	rec        *obs.SpanRecorder
	root       uint64
	qspan      uint64
	espan      uint64
	deadlineNS int64
}

// NewService builds and starts a service (its workers idle until jobs
// arrive).
func NewService(cfg ServiceConfig) *Service {
	cfg.normalize()
	s := &Service{
		cfg:     cfg,
		metrics: obs.NewMetrics(),
		jobs:    make(map[string]*JobHandle),
	}
	s.pool = pool.New(pool.Options{Workers: cfg.Workers, Depth: cfg.QueueDepth})
	return s
}

// Metrics returns the service's registry: per-tenant job counters,
// the pool's fill gauge, worker recycles, latency histograms — the
// /metrics source.
func (s *Service) Metrics() *obs.Metrics { return s.metrics }

// fill renders a pool load (queued + in-flight jobs) as percent of the
// pool's total capacity (queue depth + workers, so 100 means
// saturated).
func (s *Service) fill(load int) float64 {
	return float64(load*100) / float64(s.cfg.QueueDepth+s.cfg.Workers)
}

// publishFill folds the pool's live occupancy into the registry's
// service.fill gauge for /metrics.
func (s *Service) publishFill() {
	s.metrics.Event(Event{Layer: obs.LayerService, Kind: obs.KindMetric,
		Str: "service.fill", Num: uint64(s.fill(s.pool.Queued() + s.pool.InFlight()))})
}

// validateSpec rejects malformed specifications with the typed
// bad-spec error before any resources are committed. It is cheap —
// structural field checks only; payload decoding is decodeBinaries,
// run separately so it can sit behind the backpressure gate.
func validateSpec(spec *JobSpec) *JobError {
	if spec.Path == "" {
		return &JobError{Code: JobBadSpec, Msg: "missing path"}
	}
	if len(spec.Programs) == 0 && len(spec.Binaries) == 0 && spec.Setup == nil {
		return &JobError{Code: JobBadSpec, Msg: "no program source (programs and binaries empty and no setup hook)"}
	}
	if spec.DeadlineMS < 0 {
		return &JobError{Code: JobBadSpec, Msg: "negative deadline"}
	}
	return nil
}

// decodeBinaries decodes every binary payload up front so a malformed
// container is a synchronous typed rejection (HTTP 400) rather than a
// terminal job failure discovered on a worker. Only structural
// failures (ErrBadImage) reject; a payload that sniffs as source but
// fails to compile stays a bad *program*, reported at execute time
// exactly like a Programs entry. Successful decodes are returned so
// execute reuses them instead of repeating the parse+translate.
func decodeBinaries(spec *JobSpec) (map[string]*image.Image, *JobError) {
	if len(spec.Binaries) == 0 {
		return nil, nil
	}
	bins := make([]string, 0, len(spec.Binaries))
	for p := range spec.Binaries {
		bins = append(bins, p)
	}
	sort.Strings(bins)
	decoded := make(map[string]*image.Image, len(bins))
	for _, p := range bins {
		img, err := image.Decode(p, spec.Binaries[p])
		if err != nil {
			if errors.Is(err, image.ErrBadImage) {
				return nil, &JobError{Code: JobBadImage, Msg: err.Error()}
			}
			continue // compile diagnostics resurface at execute time
		}
		decoded[p] = img
	}
	return decoded, nil
}

// Submit admits a job. The error is a *JobError (malformed spec), an
// *OverloadError (queue full — backpressure; retry after the hint), or
// ErrDraining. An admitted job always terminates: watch the
// returned handle.
func (s *Service) Submit(spec JobSpec) (*JobHandle, error) {
	submitT := time.Now()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.seq++
	id := fmt.Sprintf("j%06d", s.seq)
	s.mu.Unlock()

	if spec.Tenant == "" {
		spec.Tenant = "anon"
	}
	var inj *chaos.Injector
	if s.cfg.Chaos != nil {
		derived := s.cfg.Chaos.Derive("job:" + id)
		inj = chaos.New(derived)
		if inj.JobSpecCorrupt(id) {
			// The malformed-spec fault: blank the program path so the
			// ordinary validation path produces the typed rejection.
			spec.Path = ""
		}
	}
	jerr := validateSpec(&spec)
	var decoded map[string]*image.Image
	var decodeT time.Time
	if jerr == nil {
		// Backpressure before decode work: a saturated pool rejects
		// here, before any payload parsing, so a flood of pathological
		// uploads cannot buy unbounded submit-path CPU. The check
		// mirrors pool.Submit's own queue-full condition; the admit
		// below remains authoritative if the race goes the other way.
		if s.pool.Queued() >= s.cfg.QueueDepth {
			return nil, &OverloadError{RetryAfter: s.cfg.RetryAfter}
		}
		decodeT = time.Now()
		decoded, jerr = decodeBinaries(&spec)
	}
	if jerr != nil {
		if inj != nil {
			s.collectFaults(inj)
		}
		s.metrics.Event(Event{Layer: obs.LayerService, Kind: obs.KindJobDone,
			Str: spec.Tenant, Str2: jerr.Code})
		return nil, jerr
	}

	// The job's lifecycle trace: rejected submissions above get no
	// trace (nothing was admitted). The root is back-stamped to the
	// moment Submit was entered so the admit span covers validation
	// and the backpressure gate too.
	rec := obs.NewSpanRecorder(id)
	root := rec.StartSpanAt(0, "job", submitT.UnixNano())
	if len(spec.Binaries) > 0 {
		rec.AddSpan(root, "decode", decodeT.UnixNano(), rec.Now(), "ok")
	}
	rec.AddSpan(root, "admit", submitT.UnixNano(), rec.Now(), "ok")

	h := newHandle(id, spec.Tenant, spec.Stream)
	h.spans = rec
	j := &job{h: h, spec: spec, decoded: decoded, inj: inj,
		rec: rec, root: root, deadlineNS: int64(s.jobDeadline(&spec))}
	j.qspan = rec.StartSpan(root, "queue")

	ok := s.pool.Submit(pool.Task{
		Run:     func() { s.runJob(j) },
		Abort:   func() { s.finishAborted(j) },
		OnPanic: func(v any) { s.jobPanicked(j, v) },
	})
	if !ok {
		rec.EndSpan(j.qspan, "overload")
		rec.EndSpan(root, "overload")
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return nil, ErrDraining
		}
		return nil, &OverloadError{RetryAfter: s.cfg.RetryAfter}
	}

	s.mu.Lock()
	s.jobs[id] = h
	s.mu.Unlock()
	s.metrics.Event(Event{Layer: obs.LayerService, Kind: obs.KindJobEnqueue,
		Str: spec.Tenant, Str2: id})
	s.publishFill()
	return h, nil
}

// Lookup resolves a job id to its handle (nil when unknown or
// evicted).
func (s *Service) Lookup(id string) *JobHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// runJob executes the job on a worker goroutine. Chaos decision
// points (queue stall, worker crash pre/post) fire here, outside the
// run's own panic containment, so they exercise the pool's recycle
// path for real.
func (s *Service) runJob(j *job) {
	j.h.mu.Lock()
	j.h.state = "running"
	j.h.mu.Unlock()
	j.rec.EndSpan(j.qspan, "ok")
	j.espan = j.rec.StartSpan(j.root, "exec")
	s.metrics.Event(Event{Layer: obs.LayerService, Kind: obs.KindJobStart,
		Str: j.h.tenant, Str2: j.h.id})
	if j.inj != nil {
		if ms, ok := j.inj.QueueStall(j.h.id); ok {
			time.Sleep(time.Duration(ms) * time.Millisecond)
		}
		if j.inj.WorkerCrash(j.h.id, "pre") {
			panic("chaos: worker crash (pre-run)")
		}
	}
	began := time.Now()
	res, err := s.execute(j)
	if j.inj != nil && j.inj.WorkerCrash(j.h.id, "post") {
		panic("chaos: worker crash (post-run)")
	}
	s.finish(j, res, err, time.Since(began))
}

// execute builds the job's private guest world and runs it under the
// monitor with the service's budget clamps and the spec's feature
// requests applied.
func (s *Service) execute(j *job) (*Result, error) {
	sys := NewSystem()
	if j.spec.Setup != nil {
		j.spec.Setup(sys)
	}
	paths := make([]string, 0, len(j.spec.Programs))
	for p := range j.spec.Programs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := sys.InstallSource(p, j.spec.Programs[p]); err != nil {
			return nil, &JobError{Code: JobBadProgram, Msg: err.Error()}
		}
	}
	bins := make([]string, 0, len(j.spec.Binaries))
	for p := range j.spec.Binaries {
		bins = append(bins, p)
	}
	sort.Strings(bins)
	for _, p := range bins {
		if img := j.decoded[p]; img != nil {
			// Decoded once at submit; installing the cached image skips
			// repeating the parse+translate.
			sys.InstallDecodedBinary(p, j.spec.Binaries[p], img)
			continue
		}
		if err := sys.InstallBinary(p, j.spec.Binaries[p]); err != nil {
			// Structural failures (malformed container) are bad-image;
			// a payload that decodes as source but fails to compile is a
			// bad program, same as a Programs entry.
			code := JobBadProgram
			if errors.Is(err, image.ErrBadImage) {
				code = JobBadImage
			}
			return nil, &JobError{Code: code, Msg: err.Error()}
		}
	}
	for p, data := range j.spec.Files {
		sys.CreateFile(p, data)
	}

	cfg := DefaultConfig()
	if j.spec.Tweak != nil {
		j.spec.Tweak(&cfg)
	}
	// Budgets: the spec may tighten within the service's clamps; the
	// service's defaults apply otherwise. An unexpired deadline is
	// guest-invisible, so these do not perturb verdicts.
	if j.spec.MaxSteps > 0 {
		cfg.MaxSteps = j.spec.MaxSteps
	}
	if s.cfg.MaxSteps > 0 && (cfg.MaxSteps == 0 || cfg.MaxSteps > s.cfg.MaxSteps) {
		cfg.MaxSteps = s.cfg.MaxSteps
	}
	deadline := s.jobDeadline(&j.spec)
	if cfg.Deadline == 0 || cfg.Deadline > deadline {
		cfg.Deadline = deadline
	}
	// Graft the run's phase spans (load/instrument/execute/report and
	// the per-tier execution children) under the job's exec span.
	cfg.Spans = true
	cfg.spanRec = j.rec
	cfg.spanParent = j.espan
	cfg.Provenance = j.spec.Provenance
	cfg.Symbolize = j.spec.Symbolize && cfg.Provenance
	cfg.FlightPath = ""
	if j.spec.FlightPath != "" {
		cfg.FlightPath = flightDumpPath(j.spec.FlightPath, j.h.id)
	}
	if j.h.updates != nil {
		h := j.h
		cfg.Observers = append(append([]Observer(nil), cfg.Observers...),
			obs.SinkFunc(func(e Event) {
				if e.Kind == obs.KindWarning {
					h.push(JobUpdate{Event: "warning",
						Severity: severityName(int(e.Num)), Rule: e.Str, Message: e.Str2})
				}
			}))
	}
	return sys.Run(cfg, RunSpec{
		Path: j.spec.Path, Argv: j.spec.Argv, Env: j.spec.Env, Stdin: j.spec.Stdin,
	})
}

// jobDeadline resolves a spec's effective wall-clock budget under the
// service clamps: the spec may name one (clamped to MaxDeadline), the
// service default applies otherwise.
func (s *Service) jobDeadline(spec *JobSpec) time.Duration {
	d := s.cfg.DefaultDeadline
	if spec.DeadlineMS > 0 {
		d = time.Duration(spec.DeadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// severityName renders a secpert severity ordinal as its wire name.
func severityName(n int) string {
	switch n {
	case int(Low):
		return Low.String()
	case int(Medium):
		return Medium.String()
	case int(High):
		return High.String()
	}
	return fmt.Sprintf("severity(%d)", n)
}

// finish classifies the job's execution into its terminal result.
func (s *Service) finish(j *job, res *Result, err error, wall time.Duration) {
	finishT := j.rec.Now()
	r := &JobResult{
		ID: j.h.id, Tenant: j.h.tenant, WallNS: wall.Nanoseconds(),
	}
	code := "done"
	if err != nil {
		r.Status = "failed"
		switch e := err.(type) {
		case *JobError:
			r.Error = e
		case *GuestFault:
			r.Error = &JobError{Code: JobGuestFault, Msg: e.Error()}
		case *RunError:
			r.Error = &JobError{Code: JobRunPanic, Msg: e.Error()}
		default:
			r.Error = &JobError{Code: JobRunPanic, Msg: e.Error()}
		}
		code = r.Error.Code
	} else {
		r.Status = "done"
		r.Raw = res
		r.Outcome = runOutcome(res.RunErr)
		r.TotalSteps = res.TotalSteps
		if res.Stats.Blocks > 0 {
			mix := tierMixOf(res.Stats)
			r.TierMix = &mix
		}
		r.Verdict = "clean"
		if sev, warned := res.MaxSeverity(); warned {
			r.Verdict = sev.String()
		}
		h := fnv.New64a()
		for _, w := range res.Warnings {
			io.WriteString(h, w.String())
			io.WriteString(h, "\x00")
		}
		r.WarnHash = fmt.Sprintf("%016x", h.Sum64())
		r.Warnings = make([]JobWarning, len(res.Warnings))
		for i, w := range res.Warnings {
			r.Warnings[i] = JobWarning{
				Severity: w.Severity.String(), Rule: w.Rule, Message: w.Message,
				Chain: append([]string(nil), w.Chain...),
			}
		}
		// The result is built; drop every process's taint shadow,
		// guest memory and compiled traces so a kept result does not
		// hold them alive. Each page whose last owner this is goes to
		// the page free lists, and later jobs on any worker take it
		// from there instead of allocating. The shadows drop their
		// taint store too, and the monitor then hands the store and its
		// block-counter cache to later jobs: r.Raw keeps no route to
		// either. The loader builds spans per job, so no live job
		// shares the trace slots dropped here. From here on the job's
		// memory, shadow and trace slots read as empty through r.Raw.
		for _, p := range res.Process.OS.Processes() {
			p.CPU.Mem.Reset()
			if sh := p.CPU.Shadow; sh != nil {
				sh.Release()
			}
			for _, sp := range p.CPU.Code.Spans() {
				sp.DropTraceSlots()
			}
		}
		if res.monitor != nil {
			res.monitor.Release()
		}
	}
	// Close the exec span with the execution's own status
	// (the scheduler outcome for done runs — "deadline" when the
	// wall-clock budget expired — or the error code), then account the
	// verdict assembly that just happened. Crash paths already closed
	// espan in jobPanicked; EndSpan's idempotence makes this a no-op
	// there.
	execStatus := code
	if r.Status == "done" {
		execStatus = r.Outcome
	}
	j.rec.EndSpan(j.espan, execStatus)
	j.rec.AddSpan(j.root, "verdict", finishT, j.rec.Now(), "ok")
	s.complete(j, r, code)
}

// finishAborted completes a job that will never run (drained while
// queued) as a structured abort.
func (s *Service) finishAborted(j *job) {
	r := &JobResult{
		ID: j.h.id, Tenant: j.h.tenant, Status: "aborted",
		Error: &JobError{Code: JobAborted, Msg: "service drained before the job ran"},
	}
	if s.complete(j, r, JobAborted) {
		s.metrics.Event(Event{Layer: obs.LayerService, Kind: obs.KindJobAbort,
			Str: j.h.tenant, Str2: j.h.id})
	}
}

// complete settles the handle (first terminal state wins), collects
// the job's injected faults, publishes the lifecycle event, and
// refreshes the pool's health gauges. Waiters are released last, so
// one woken by Done() sees its job in every health and metrics view.
func (s *Service) complete(j *job, r *JobResult, code string) bool {
	if j.inj != nil {
		r.ServiceFaults = s.collectFaults(j.inj)
	}
	// Close the trace before settling so a waiter released by Done()
	// always observes a fully closed span tree. Queue/exec are
	// defensive closes for paths that never ran them (aborts, crash
	// terminations); the racing loser's statuses never land because
	// EndSpan keeps the first close.
	j.rec.EndSpan(j.qspan, code)
	j.rec.EndSpan(j.espan, code)
	j.rec.EndSpan(j.root, code)
	if !j.h.claim(r) {
		return false
	}
	s.publishJobLatency(j, r)
	s.mu.Lock()
	if r.TierMix != nil {
		s.mix.add(*r.TierMix)
	}
	s.doneOrder = append(s.doneOrder, j.h.id)
	for len(s.doneOrder) > s.cfg.KeepResults {
		evict := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		delete(s.jobs, evict)
	}
	s.mu.Unlock()
	s.metrics.Event(Event{Layer: obs.LayerService, Kind: obs.KindJobDone,
		Str: j.h.tenant, Str2: code})
	s.publishFill()
	j.h.release()
	return true
}

// publishJobLatency emits the settled job's latency observations —
// queue wait, execution time, and end-to-end submit→verdict — plus,
// for completed runs, the fraction of the wall-clock deadline the run
// consumed (ratio ×1e6, the deadline-burn gauge's raw unit). The registry folds these into
// its per-tenant fixed-bucket histograms.
func (s *Service) publishJobLatency(j *job, r *JobResult) {
	qns, _ := j.rec.NamedDuration("queue")
	ens, _ := j.rec.NamedDuration("exec")
	var e2e int64
	if root := j.rec.Root(); root != nil && root.End != 0 {
		e2e = root.End - root.Start
	}
	for _, o := range [...]struct {
		stage string
		v     int64
	}{{"queue", qns}, {"exec", ens}, {"e2e", e2e}} {
		s.metrics.Event(Event{Layer: obs.LayerService, Kind: obs.KindJobLatency,
			Str: j.h.tenant, Str2: o.stage, Num: uint64(max(o.v, 0))})
	}
	if r.Status == "done" && j.deadlineNS > 0 && r.WallNS > 0 {
		burn := uint64(r.WallNS) * 1_000_000 / uint64(j.deadlineNS)
		s.metrics.Event(Event{Layer: obs.LayerService, Kind: obs.KindJobLatency,
			Str: j.h.tenant, Str2: "deadline_burn", Num: burn})
	}
}

// collectFaults appends an injector's recorded faults to the service
// log (counting each in the registry) and returns their rendered
// forms.
func (s *Service) collectFaults(inj *chaos.Injector) []string {
	fs := inj.Faults()
	if len(fs) == 0 {
		return nil
	}
	out := make([]string, len(fs))
	s.mu.Lock()
	s.faults = append(s.faults, fs...)
	s.mu.Unlock()
	for i, f := range fs {
		out[i] = f.String()
		s.metrics.Event(Event{Layer: obs.LayerChaos, Kind: obs.KindChaosFault,
			Num: uint64(f.Errno), Num2: f.Info, Str: f.Kind.String(), Str2: f.Path})
	}
	return out
}

// Faults returns every service-level chaos fault injected so far.
func (s *Service) Faults() []chaos.Fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]chaos.Fault(nil), s.faults...)
}

// jobPanicked handles a worker crash: the pool has already recycled
// the goroutine; here the recycle is published and the job ends in
// the typed worker-crash error naming the panic value.
func (s *Service) jobPanicked(j *job, v any) {
	j.rec.EndSpan(j.espan, "crash")
	s.metrics.Event(Event{Layer: obs.LayerService, Kind: obs.KindWorkerRecycle,
		Str: j.h.tenant, Str2: j.h.id})
	s.finish(j, nil, &JobError{Code: JobWorkerCrash, Msg: fmt.Sprintf("worker panicked: %v", v)}, 0)
}

// ServiceHealth is the /healthz snapshot.
type ServiceHealth struct {
	Draining bool `json:"draining"`
	// Queued and InFlight count the pool's waiting and running jobs;
	// Recycled counts worker goroutines replaced after a crash.
	Queued   int    `json:"queued"`
	InFlight int    `json:"in_flight"`
	Recycled uint64 `json:"recycled"`
	// Fill is the pool's occupancy as percent of queue depth plus
	// workers (the service.fill gauge reads the same number).
	Fill float64 `json:"fill_percent"`
	// TierMix aggregates the execution-tier mix over every completed
	// job since the service started: what fraction of all block
	// entries the fleet served per tier.
	TierMix TierMix `json:"tier_mix"`
	// Latency holds the fleet-wide p50/p95/p99 rollups (milliseconds)
	// per latency stage — "queue", "exec", "e2e" — aggregated across
	// tenants from the registry's fixed-bucket histograms. Stages with
	// no completed jobs are absent.
	Latency map[string]obs.LatencyRollup `json:"latency_ms,omitempty"`
	// DeadlineBurnP95 is the 95th-percentile fraction of the per-job
	// wall-clock deadline consumed by execution (1.0 = the whole
	// budget). The fleet SLO canary: a value creeping toward 1 means
	// jobs are about to start dying of deadline.
	DeadlineBurnP95 float64 `json:"deadline_burn_p95,omitempty"`
}

// Health snapshots the service's live state.
func (s *Service) Health() ServiceHealth {
	s.mu.Lock()
	hs := ServiceHealth{Draining: s.draining, TierMix: s.mix}
	s.mu.Unlock()
	hs.Queued, hs.InFlight = s.pool.Queued(), s.pool.InFlight()
	hs.Recycled = s.pool.Recycled()
	hs.Fill = s.fill(hs.Queued + hs.InFlight)
	for _, stage := range [...]string{"queue", "exec", "e2e"} {
		if r, ok := s.metrics.LatencyRollup(stage); ok {
			if hs.Latency == nil {
				hs.Latency = make(map[string]obs.LatencyRollup, 3)
			}
			hs.Latency[stage] = r
		}
	}
	if v, ok := s.metrics.LatencyQuantile("deadline_burn", 0.95); ok {
		hs.DeadlineBurnP95 = float64(v) / 1e6
	}
	return hs
}

// Drain shuts the service down without losing a job: no new
// submissions (ErrDraining), in-flight jobs run to completion, queued
// jobs terminate as structured aborts. Returns ctx.Err() if the context expires first
// (workers keep finishing in the background; Drain is not resumable).
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("hth: service already draining")
	}
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.pool.Drain()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
