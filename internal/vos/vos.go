// Package vos is the virtual OS under monitored runs.
//
// Reentrancy: the package is reentrant but an OS instance is not. All
// package-level state is immutable (sentinel errors and constants),
// so any number of OS instances may run concurrently on different
// goroutines — the analysis service's workers and the corpus
// sweeps rely on exactly this. A single OS holds freely-mutated
// scheduler, filesystem, and process state with no internal locking;
// everything that touches one instance must stay on one goroutine at
// a time (the hth.System busy guard enforces this at the API edge).
package vos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/taint"
)

// Scheduler errors.
var (
	// ErrDeadlock means every live process is blocked with nothing
	// that could unblock it.
	ErrDeadlock = errors.New("vos: deadlock — all processes blocked")
	// ErrBudget means the run exceeded its instruction budget.
	ErrBudget = errors.New("vos: instruction budget exhausted")
	// ErrDeadline means the run exceeded its wall-clock deadline.
	ErrDeadline = errors.New("vos: wall-clock deadline exceeded")
)

// MaxRWCount caps the byte count of a single read or write syscall,
// like Linux's MAX_RW_COUNT: a larger request is silently clamped and
// the syscall returns the short count. The guard matters for writes,
// where the length is guest-controlled — a guest that passes an errno
// as a length (write(1, buf, -EIO)) asks for a ~4 GiB transfer, and
// without the clamp the kernel would materialize that request as host
// memory. 1 MiB is orders of magnitude above any legitimate corpus
// transfer.
const MaxRWCount = 1 << 20

// MaxFileSize caps the size a guest write can grow a file to, like
// Linux's RLIMIT_FSIZE: a write that starts at or past the cap fails
// with EFBIG, and one that crosses it is cut short at the cap. Without
// it one lseek(fd, 0x7FFFFFFF, SEEK_SET) and a 1-byte write would make
// the kernel allocate the 2 GiB hole as host memory. 16 MiB is orders
// of magnitude above any legitimate corpus file.
const MaxFileSize = 16 << 20

// DefaultMaxConsoleBytes is the console capture budget of a new OS.
// Output past the budget is counted in OS.ConsoleDropped instead of
// stored, so a guest spinning in a write loop cannot grow host memory
// without bound.
const DefaultMaxConsoleBytes = 4 << 20

// DefaultMaxOpenFDs is the per-process descriptor budget of a new OS.
// Generous enough for every corpus guest; small enough that a
// descriptor-leaking guest degrades into EMFILE errors instead of
// unbounded host memory growth.
const DefaultMaxOpenFDs = 1024

// OS is one virtual machine: filesystem, network, process table,
// scheduler and virtual clock (which advances one tick per executed
// guest instruction).
type OS struct {
	FS  *FS
	Net *Network

	// Natives is the registry of host-implemented library routines
	// bound by the loader (guestlib populates it).
	Natives map[string]func(*isa.CPU)

	Clock      uint64
	TotalSteps uint64

	// Console accumulates all stdout/stderr writes across processes,
	// up to the console byte budget (DefaultMaxConsoleBytes).
	Console []byte
	// ConsoleDropped counts console bytes discarded past the budget.
	ConsoleDropped uint64

	procs map[int]*Process
	// procList mirrors procs in PID order (PIDs are monotonic and
	// processes are never removed, so appends keep it sorted). The
	// scheduler iterates it directly instead of re-sorting the map
	// every 128-instruction round.
	procList []*Process
	nextPID  int
	kern     *kernel
	inject   FaultInjector
	bus      *obs.Bus

	// Budgets, set through the Set* methods.
	stepsPerSlice int           // scheduler quantum in instructions
	maxSteps      uint64        // instruction backstop across all processes
	deadline      time.Duration // wall-clock bound of a Run call; 0 disables
	maxFDs        int           // open descriptors per process; negative disables
	maxConsole    int           // bytes retained in Console; negative disables
}

// New creates an empty virtual machine with the default budgets: a
// 128-instruction slice, 50M instructions, no deadline,
// DefaultMaxOpenFDs and DefaultMaxConsoleBytes.
func New() *OS {
	os := &OS{
		FS:            NewFS(),
		Net:           NewNetwork(),
		Natives:       make(map[string]func(*isa.CPU)),
		procs:         make(map[int]*Process),
		nextPID:       1,
		stepsPerSlice: 128,
		maxSteps:      50_000_000,
		maxFDs:        DefaultMaxOpenFDs,
		maxConsole:    DefaultMaxConsoleBytes,
	}
	os.kern = &kernel{os: os}
	return os
}

// Processes returns all processes (including exited) in pid order.
func (os *OS) Processes() []*Process {
	out := make([]*Process, len(os.procList))
	copy(out, os.procList)
	return out
}

// addProc registers a process in the table and the scheduler list
// (the single entry point for both StartProcess and fork/clone).
func (os *OS) addProc(p *Process) {
	os.procs[p.PID] = p
	os.procList = append(os.procList, p)
	if os.bus != nil {
		os.bus.Publish(obs.Event{
			Time: os.Clock, Layer: obs.LayerVOS, Kind: obs.KindProcSpawn,
			PID: int32(p.PID), Num: uint64(p.PPID), Str: p.Path,
		})
	}
}

// SetBus attaches (or, with nil, detaches) the observability bus.
// Kernel, scheduler, and process-lifecycle events publish into it.
func (os *OS) SetBus(b *obs.Bus) { os.bus = b }

// loaderEnv builds the loader environment resolving shared objects
// from the filesystem (shared objects are installed under their soname
// path, e.g. "libc.so").
func (os *OS) loaderEnv() *loader.Env {
	return &loader.Env{
		Resolve: func(name string) (*image.Image, error) {
			f, ok := os.FS.Lookup(name)
			if !ok || f.Image == nil {
				return nil, fmt.Errorf("vos: shared object %s not found", name)
			}
			return f.Image, nil
		},
		Natives: os.Natives,
	}
}

// ProcSpec describes a process to start.
type ProcSpec struct {
	Path  string
	Argv  []string // argv[0] defaults to Path
	Env   []string
	Stdin []byte
	// Monitor, when set, receives all events for this process and its
	// descendants; Store must then also be set (the taint store the
	// monitor tags with).
	Monitor Monitor
	Store   *taint.Store
}

// StartProcess creates a process running the executable at spec.Path.
func (os *OS) StartProcess(spec ProcSpec) (*Process, error) {
	f, ok := os.FS.Lookup(spec.Path)
	if !ok {
		return nil, fmt.Errorf("vos: %s: no such file", spec.Path)
	}
	if f.Image == nil && len(f.Data) == 0 {
		return nil, fmt.Errorf("vos: %s: not an executable", spec.Path)
	}
	argv := spec.Argv
	if len(argv) == 0 {
		argv = []string{spec.Path}
	}

	p := &Process{
		PID:        os.nextPID,
		PPID:       0,
		OS:         os,
		CPU:        isa.NewCPU(),
		Images:     loader.NewMap(),
		FDs:        make(map[int]*FDesc),
		Path:       spec.Path,
		Argv:       argv,
		Env:        spec.Env,
		StartClock: os.Clock,
		Monitor:    spec.Monitor,
		stdin:      spec.Stdin,
		zombies:    make(map[int]int32),
	}
	os.nextPID++
	p.CPU.Ctx = p
	p.CPU.Sys = os.kern
	if spec.Monitor != nil {
		if spec.Store == nil {
			return nil, fmt.Errorf("vos: monitored process needs a taint store")
		}
		p.CPU.Shadow = taint.NewShadow(spec.Store)
	}
	if err := os.loadInto(p, f); err != nil {
		return nil, err
	}
	p.setupStack()
	p.installStdio()
	os.addProc(p)
	if p.Monitor != nil {
		p.Monitor.Started(p)
	}
	return p, nil
}

// loadInto loads the executable file (and its imports) into p and
// points EIP at the entry. Pre-decoded files (Install/InstallBinary)
// map directly; a plain file's bytes go through the format-agnostic
// loader.Open (magic sniffing over the registered frontends) and the
// decode is cached on the file — this is what lets a guest drop a
// real ELF payload and exec it.
func (os *OS) loadInto(p *Process, f *File) error {
	var li *loader.Loaded
	var err error
	if f.Image != nil {
		li, err = p.Images.Load(p.CPU, f.Image, os.loaderEnv())
	} else {
		li, err = p.Images.Open(p.CPU, f.Path, f.Data, os.loaderEnv())
		if err == nil {
			f.Image = li.Image
		}
	}
	if err != nil {
		return err
	}
	entry, err := li.EntryAddr()
	if err != nil {
		return err
	}
	p.CPU.EIP = entry
	return nil
}

// Run schedules processes round-robin until every process has exited,
// the instruction budget is exhausted, the wall-clock deadline passes,
// or a deadlock is detected.
func (os *OS) Run() error {
	idleRounds := 0
	sps := os.stepsPerSlice
	var deadline time.Time
	if os.deadline > 0 {
		deadline = time.Now().Add(os.deadline)
	}
	rounds := 0
	for {
		// The deadline is a coarse backstop: checking every 64 rounds
		// (~8k instructions) keeps time.Now off the hot loop.
		if rounds++; rounds&63 == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return os.schedEnd(ErrDeadline)
		}
		os.Net.Tick(os.Clock)
		progressed := false
		anyAlive := false
		// Snapshot the length: children forked this round first run
		// next round, exactly as when the table was re-sorted per round.
		n := len(os.procList)
		for _, p := range os.procList[:n] {
			switch p.State {
			case Exited:
				continue
			case Blocked:
				anyAlive = true
				if !p.blockFn() {
					continue
				}
				p.blockFn = nil
				progressed = true
				if os.bus != nil {
					os.bus.Publish(obs.Event{
						Time: os.Clock, Layer: obs.LayerVOS,
						Kind: obs.KindSchedUnblock, PID: int32(p.PID),
					})
				}
				if !p.Alive() {
					// The unblocking action terminated it (a monitor
					// kill delivered to the completing call): the
					// exited state must survive, or the quantum below
					// would re-terminate it as a clean exit and
					// overwrite the kill.
					continue
				}
				p.State = Ready
			default:
				anyAlive = true
			}
			// Run one quantum. A CPU halted by HLT (without exit())
			// keeps State == Ready; the next Step returns ErrHalted
			// and terminates it as an implicit clean exit, so the
			// loop needs no per-instruction Halted check. One Step may
			// retire several instructions when a compiled trace runs
			// (Hooks.OnTraceSlot returning SlotTrace), so the
			// quantum is accounted from the Steps delta, with
			// TraceBudget capping a trace at the slice remainder (the
			// trace resumes in the process's next slice) — slices stay
			// exactly StepsPerSlice instructions long in every tier.
			cpu := p.CPU
			ran := 0
			for ran < sps && p.State == Ready {
				cpu.TraceBudget = sps - ran
				before := cpu.Steps
				if err := cpu.Step(); err != nil {
					if err == isa.ErrHalted {
						p.terminate(0, false, nil)
					} else {
						p.terminate(-1, false, err)
					}
					break
				}
				d := int(cpu.Steps - before)
				os.Clock += uint64(d)
				ran += d
			}
			if ran > 0 {
				os.TotalSteps += uint64(ran)
				progressed = true
			}
		}
		if !anyAlive {
			return os.schedEnd(nil)
		}
		if os.TotalSteps > os.maxSteps {
			return os.schedEnd(ErrBudget)
		}
		if progressed {
			idleRounds = 0
			continue
		}
		// Everyone is blocked: advance virtual time so sleepers and
		// scheduled network events can fire.
		os.Clock += 1000
		idleRounds++
		if idleRounds > 20000 {
			return os.schedEnd(ErrDeadlock)
		}
	}
}

// schedEnd publishes the scheduler outcome and passes err through.
func (os *OS) schedEnd(err error) error {
	if os.bus != nil {
		outcome := "clean"
		switch err {
		case ErrDeadlock:
			outcome = "deadlock"
		case ErrBudget:
			outcome = "budget"
		case ErrDeadline:
			outcome = "deadline"
		}
		os.bus.Publish(obs.Event{
			Time: os.Clock, Layer: obs.LayerVOS, Kind: obs.KindSchedEnd,
			Num: os.TotalSteps, Str: outcome,
		})
	}
	return err
}

// SetMaxSteps adjusts the total instruction budget.
func (os *OS) SetMaxSteps(n uint64) {
	if n > 0 {
		os.maxSteps = n
	}
}

// SetStepsPerSlice adjusts the scheduler quantum for subsequent Run
// calls. A slice end costs no tier change — a compiled trace stops on
// the exact instruction and the next slice resumes it — but every
// slice still pays a scheduler round and a dispatch. Throughput-
// oriented callers (the §9 perf benches) raise it so that overhead
// amortizes over more guest work; interactive fairness wants it low,
// batch throughput wants it high.
func (os *OS) SetStepsPerSlice(n int) {
	if n > 0 {
		os.stepsPerSlice = n
	}
}

// SetDeadline adjusts the wall-clock budget of subsequent Run calls
// (0 disables it).
func (os *OS) SetDeadline(d time.Duration) { os.deadline = d }

// SetMaxOpenFDs adjusts the per-process descriptor budget (0 keeps the
// current value, negative disables the cap).
func (os *OS) SetMaxOpenFDs(n int) {
	if n != 0 {
		os.maxFDs = n
	}
}

// appendConsole adds guest output to the global console and the
// process's own capture, honouring the console byte budget: bytes
// past the budget are counted in ConsoleDropped, not stored, so a
// guest spinning in a write loop cannot grow host memory without
// bound.
func (os *OS) appendConsole(p *Process, data []byte) {
	if budget := os.maxConsole; budget > 0 {
		room := budget - len(os.Console)
		if room < 0 {
			room = 0
		}
		if len(data) > room {
			os.ConsoleDropped += uint64(len(data) - room)
			data = data[:room]
		}
	}
	os.Console = append(os.Console, data...)
	p.Stdout = append(p.Stdout, data...)
}
