package chaos

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/vos"
)

// Kind classifies an injected fault.
type Kind uint8

const (
	// ReadErr fails a read()/recv() with EIO before it executes.
	ReadErr Kind = iota
	// WriteErr fails a write()/send() with EIO before it executes.
	WriteErr
	// OpenErr fails an open()/creat() with EIO or ENOMEM.
	OpenErr
	// ConnectErr fails a connect() with ECONNREFUSED.
	ConnectErr
	// AcceptErr fails an accept() with ECONNABORTED.
	AcceptErr
	// ShortRead truncates a completing read to fewer bytes than asked.
	ShortRead
	// NetDelay postpones a scheduled remote peer's inbound dial.
	NetDelay
	// NetDrop cancels a scheduled remote peer's inbound dial entirely.
	NetDrop
	// RemoteDrop loses a scripted remote's response in flight: the
	// remote sees a successful send, the guest never gets the bytes.
	RemoteDrop

	// Service-level fault kinds (consumed by hth.Service and its soak
	// harness rather than the vos seams; see service.go).

	// WorkerCrash panics an analysis-service worker goroutine outside
	// the run's panic containment, forcing the pool to recycle it.
	WorkerCrash
	// QueueStall delays a dequeued job before it executes, simulating
	// a wedged dispatch path.
	QueueStall
	// SlowReader throttles a tenant's consumption of its job's
	// streamed updates, exercising the drop-not-stall stream path.
	SlowReader
	// BadJobSpec corrupts a submitted job specification before
	// validation, forcing the typed-rejection path.
	BadJobSpec

	numKinds
)

var kindNames = [numKinds]string{
	ReadErr:     "read",
	WriteErr:    "write",
	OpenErr:     "open",
	ConnectErr:  "connect",
	AcceptErr:   "accept",
	ShortRead:   "shortread",
	NetDelay:    "netdelay",
	NetDrop:     "netdrop",
	RemoteDrop:  "remotedrop",
	WorkerCrash: "workercrash",
	QueueStall:  "queuestall",
	SlowReader:  "slowreader",
	BadJobSpec:  "badspec",
}

// String returns the plan-syntax name of the kind.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindByName resolves a plan-syntax kind name.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// KindNames returns all kind names in Kind order.
func KindNames() []string {
	return append([]string(nil), kindNames[:]...)
}

// Fault records one injected fault, in injection order (Seq).
type Fault struct {
	Kind  Kind
	Seq   int    // 0-based injection sequence number
	PID   int    // guest process hit, 0 for network-level faults
	Num   uint32 // syscall number at the fault point, 0 otherwise
	Path  string // path or address involved, "" when none
	Errno uint32 // errno delivered, 0 for non-errno faults
	Clock uint64 // virtual clock at injection
	Info  uint64 // kind detail: bytes kept (ShortRead), ticks (NetDelay)
}

// String renders the fault for sweep reports.
func (f Fault) String() string {
	s := fmt.Sprintf("#%d @%d %s", f.Seq, f.Clock, f.Kind)
	if f.PID != 0 {
		s += fmt.Sprintf(" pid=%d", f.PID)
	}
	if f.Path != "" {
		s += " " + f.Path
	}
	if f.Errno != 0 {
		s += fmt.Sprintf(" errno=%d", f.Errno)
	}
	if f.Info != 0 {
		s += fmt.Sprintf(" info=%d", f.Info)
	}
	return s
}

// Injector is a deterministic vos.FaultInjector driven by a Plan. Not
// safe for concurrent use: attach one Injector to one OS (the
// simulation is single-threaded per run).
type Injector struct {
	plan   Plan
	state  uint64 // splitmix64 state
	faults []Fault
	bus    *obs.Bus
}

// New returns an injector for the plan. Two injectors built from equal
// plans produce identical decision streams.
func New(p Plan) *Injector {
	return &Injector{plan: p, state: p.Seed}
}

// Faults returns the injected faults in order. The slice is owned by
// the injector; callers must not modify it.
func (in *Injector) Faults() []Fault { return in.faults }

// splitmix64 is the PRNG step: tiny, fast, and fully determined by the
// 64-bit state, which keeps fault streams reproducible across runs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (in *Injector) next() uint64 {
	in.state += 0x9E3779B97F4A7C15
	z := in.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// roll decides whether an offered decision point of kind k fires. A
// zero rate or disabled kind returns false without consuming PRNG
// state, so a zero-rate injector is exactly a no-op.
func (in *Injector) roll(k Kind) bool {
	if in.plan.Rate <= 0 || !in.plan.Enabled(k) {
		return false
	}
	return float64(in.next()>>11)/(1<<53) < in.plan.Rate
}

// SetBus attaches the observability bus; every recorded fault is also
// published as a chaos.fault event.
func (in *Injector) SetBus(b *obs.Bus) { in.bus = b }

func (in *Injector) record(f Fault) {
	f.Seq = len(in.faults)
	in.faults = append(in.faults, f)
	if in.bus != nil {
		in.bus.Publish(obs.Event{
			Time: f.Clock, Layer: obs.LayerChaos, Kind: obs.KindChaosFault,
			PID: int32(f.PID), Num: uint64(f.Errno), Num2: f.Info,
			Str: f.Kind.String(), Str2: f.Path,
		})
	}
}

// SyscallFault implements vos.FaultInjector: it may fail a read,
// write, open/creat, connect, or accept with a kind-appropriate errno.
func (in *Injector) SyscallFault(fp vos.FaultPoint) (uint32, bool) {
	var kind Kind
	var e uint32
	switch {
	case fp.Num == vos.SysRead:
		kind, e = ReadErr, vos.EIO
	case fp.Num == vos.SysWrite:
		kind, e = WriteErr, vos.EIO
	case fp.Num == vos.SysOpen || fp.Num == vos.SysCreat:
		kind, e = OpenErr, vos.EIO
	case fp.Sock == vos.SockConnect:
		kind, e = ConnectErr, vos.ECONN
	case fp.Sock == vos.SockAccept:
		kind, e = AcceptErr, vos.ECONNABORT
	default:
		return 0, false
	}
	if !in.roll(kind) {
		return 0, false
	}
	if kind == OpenErr && in.next()&1 == 1 {
		e = vos.ENOMEM // opens alternate between I/O and memory failures
	}
	in.record(Fault{Kind: kind, PID: fp.PID, Num: fp.Num, Path: fp.Path, Errno: e, Clock: fp.Clock})
	return e, true
}

// ShortRead implements vos.FaultInjector: it may clamp a completing
// read of want bytes to some 1 <= n < want. Reads of a single byte are
// never clamped (a zero-byte return would be a spurious EOF, which is
// a different fault class than a short read).
func (in *Injector) ShortRead(fp vos.FaultPoint, want uint32) uint32 {
	if want <= 1 || !in.roll(ShortRead) {
		return want
	}
	n := 1 + uint32(in.next()%uint64(want-1))
	in.record(Fault{Kind: ShortRead, PID: fp.PID, Num: fp.Num, Clock: fp.Clock, Info: uint64(n)})
	return n
}

// ScheduledConnect implements vos.FaultInjector: a due inbound dial
// from a scripted remote may be dropped outright or postponed.
func (in *Injector) ScheduledConnect(clock uint64, addr string) (uint64, bool) {
	if in.roll(NetDrop) {
		in.record(Fault{Kind: NetDrop, Path: addr, Clock: clock})
		return 0, true
	}
	if in.roll(NetDelay) {
		d := 500 + in.next()%5000
		in.record(Fault{Kind: NetDelay, Path: addr, Clock: clock, Info: d})
		return d, false
	}
	return 0, false
}

// DropRemote implements vos.FaultInjector: a scripted remote's
// response of n bytes may be lost in flight.
func (in *Injector) DropRemote(addr string, n int) bool {
	if !in.roll(RemoteDrop) {
		return false
	}
	in.record(Fault{Kind: RemoteDrop, Path: addr, Info: uint64(n)})
	return true
}
