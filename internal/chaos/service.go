package chaos

// Service-level fault decision points. Unlike the vos seams — which
// the simulator consults on its single thread — these are consulted
// by the hth analysis service (and its soak harness) along one job's
// lifecycle: spec corruption at submission, queue stall and worker
// crashes on the worker, reader throttling on the tenant's stream.
//
// Determinism contract: the service derives one Injector per job
// (Plan.Derive over the job id), and a job's decision points are
// consulted in a fixed order — submit-time corruption, then on the
// worker: stall, crash-pre, crash-post. The consultations happen on
// different goroutines but are sequential in the job's lifetime, with
// happens-before edges through the pool queue, so one (plan, job id)
// pair produces one fault stream regardless of scheduling.

// Bounds for the synthetic delays, in milliseconds. Small enough that
// a fault storm soaks in test time, large enough to force real queue
// buildup and admission-control activity.
const (
	maxStallMS      = 25
	maxSlowReaderMS = 10
)

// JobSpecCorrupt decides whether a submitted job spec is corrupted
// before validation (BadJobSpec). The caller mangles the spec so the
// ordinary validation path produces the typed rejection.
func (in *Injector) JobSpecCorrupt(jobID string) bool {
	if !in.roll(BadJobSpec) {
		return false
	}
	in.record(Fault{Kind: BadJobSpec, Path: jobID})
	return true
}

// QueueStall decides whether a dequeued job's dispatch stalls, and
// for how many milliseconds (1..maxStallMS).
func (in *Injector) QueueStall(jobID string) (ms uint64, ok bool) {
	if !in.roll(QueueStall) {
		return 0, false
	}
	ms = 1 + in.next()%maxStallMS
	in.record(Fault{Kind: QueueStall, Path: jobID, Info: ms})
	return ms, true
}

// WorkerCrash decides whether the worker executing the job panics at
// the named point ("pre" = before the run starts, "post" = after it
// returned, both outside the run's own panic containment).
func (in *Injector) WorkerCrash(jobID, point string) bool {
	if !in.roll(WorkerCrash) {
		return false
	}
	in.record(Fault{Kind: WorkerCrash, Path: jobID + "/" + point})
	return true
}

// SlowReader decides whether the tenant reading this job's update
// stream is throttled, and by how many milliseconds per read
// (1..maxSlowReaderMS). Consulted by the soak harness on the tenant
// side; the service itself never blocks on a slow stream consumer.
func (in *Injector) SlowReader(jobID string) (ms uint64, ok bool) {
	if !in.roll(SlowReader) {
		return 0, false
	}
	ms = 1 + in.next()%maxSlowReaderMS
	in.record(Fault{Kind: SlowReader, Path: jobID, Info: ms})
	return ms, true
}
