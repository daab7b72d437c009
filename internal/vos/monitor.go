package vos

// Verdict is the monitor's decision about a pending system call,
// returned while the guest is paused (paper §7.1).
type Verdict int

// Verdicts.
const (
	// Continue lets the call proceed.
	Continue Verdict = iota
	// Kill terminates the offending process immediately; the call
	// does not take effect.
	Kill
)

// Syscall numbers (Linux i386 ABI subset).
const (
	SysExit       = 1
	SysFork       = 2
	SysRead       = 3
	SysWrite      = 4
	SysOpen       = 5
	SysClose      = 6
	SysWaitpid    = 7
	SysCreat      = 8
	SysUnlink     = 10
	SysExecve     = 11
	SysTime       = 13
	SysLseek      = 19
	SysGetpid     = 20
	SysDup        = 41
	SysBrk        = 45
	SysSocketcall = 102
	SysClone      = 120
	SysNanosleep  = 162
)

// SyscallName renders a number in the paper's SYS_* notation.
func SyscallName(num uint32) string {
	switch num {
	case SysExit:
		return "SYS_exit"
	case SysFork:
		return "SYS_fork"
	case SysRead:
		return "SYS_read"
	case SysWrite:
		return "SYS_write"
	case SysOpen:
		return "SYS_open"
	case SysClose:
		return "SYS_close"
	case SysWaitpid:
		return "SYS_waitpid"
	case SysCreat:
		return "SYS_creat"
	case SysUnlink:
		return "SYS_unlink"
	case SysExecve:
		return "SYS_execve"
	case SysTime:
		return "SYS_time"
	case SysLseek:
		return "SYS_lseek"
	case SysGetpid:
		return "SYS_getpid"
	case SysDup:
		return "SYS_dup"
	case SysBrk:
		return "SYS_brk"
	case SysSocketcall:
		return "SYS_socketcall"
	case SysClone:
		return "SYS_clone"
	case SysNanosleep:
		return "SYS_nanosleep"
	}
	return "SYS_unknown"
}

// Socketcall sub-call numbers (Linux net.h).
const (
	SockSocket  = 1
	SockBind    = 2
	SockConnect = 3
	SockListen  = 4
	SockAccept  = 5
	SockSend    = 9
	SockRecv    = 10
)

// SockName renders a socketcall sub-number.
func SockName(n uint32) string {
	switch n {
	case SockSocket:
		return "socket"
	case SockBind:
		return "bind"
	case SockConnect:
		return "connect"
	case SockListen:
		return "listen"
	case SockAccept:
		return "accept"
	case SockSend:
		return "send"
	case SockRecv:
		return "recv"
	}
	return "sockcall?"
}

// SockInfo carries the decoded socketcall details.
type SockInfo struct {
	Call     uint32 // SockSocket..SockRecv
	FD       int
	Addr     string // endpoint for bind/connect
	AddrPtr  uint32 // guest address of the endpoint string
	AddrLen  uint32
	Buf      uint32 // send/recv buffer
	Len      uint32
	Accepted *FDesc // accept: the new connection's descriptor
}

// SyscallCtx is the decoded system call handed to the monitor.
// Fields are populated according to the call; the monitor reads taint
// for names and buffers from the guest shadow using the *Ptr/Len
// fields (paper §6.1.2: events carry the resource name, its type, and
// the resource ID data source).
type SyscallCtx struct {
	Num  uint32
	Name string // SYS_* name

	// Generic raw arguments (EBX, ECX, EDX, ESI, EDI).
	Args [5]uint32

	// Path-taking calls (open/creat/execve): the path and where its
	// bytes live in guest memory.
	Path    string
	PathPtr uint32
	PathLen uint32

	// Descriptor-based calls.
	FD  int
	Des *FDesc

	// Data-transfer calls (read/write/send/recv).
	Buf uint32
	Len uint32

	// Socketcall details.
	Sock *SockInfo

	// Process calls.
	Child *Process // fork/clone: the new process (SyscallExit only)

	// Prev is the previous program break for SYS_brk events.
	Prev uint32

	// Result is the syscall return value (SyscallExit only).
	Result uint32
}

// Monitor observes a process tree. Harrier implements this interface.
// All methods are invoked synchronously on the simulator's single
// thread; SyscallEnter is called exactly once per *completed* call —
// calls that block (read on an empty socket, accept, waitpid) notify
// only when they are about to make progress, so monitors never see
// retry duplicates.
type Monitor interface {
	// Started runs when a monitored root process has been created and
	// loaded, before its first instruction; Harrier installs its CPU
	// hooks here.
	Started(p *Process)
	// SyscallEnter runs before the call's effects are applied. A Kill
	// verdict terminates the process and suppresses the call.
	SyscallEnter(p *Process, sc *SyscallCtx) Verdict
	// SyscallExit runs after the call's effects, with Result set.
	SyscallExit(p *Process, sc *SyscallCtx)
	// Forked runs after fork/clone created child (child is runnable).
	Forked(parent, child *Process)
	// PreExec runs immediately before execve tears the old code map
	// down, while the outgoing spans are still reachable through
	// p.CPU.Code; Harrier drops the compiled traces keyed to them.
	PreExec(p *Process)
	// Execed runs after p replaced its image via execve.
	Execed(p *Process)
	// TaintSource runs when a taint-source call — read(2),
	// socketcall(recv), and the cross-process transfers that ride on
	// them — commits to depositing external data into guest memory,
	// before the deposit and before SyscallExit. It gives a monitor
	// that runs guest code uninstrumented while the taint state is
	// provably clean (Harrier's clean tier) a hard boundary at which to
	// flush its "no live taint reachable" assumptions, independent of
	// the shadow's own page-flip seam.
	TaintSource(p *Process, sc *SyscallCtx)
	// Exited runs when p terminates (exit, kill, or fault).
	Exited(p *Process)
}

// NopMonitor is an embeddable no-op Monitor.
type NopMonitor struct{}

// Started does nothing.
func (NopMonitor) Started(*Process) {}

// SyscallEnter allows every call.
func (NopMonitor) SyscallEnter(*Process, *SyscallCtx) Verdict { return Continue }

// SyscallExit does nothing.
func (NopMonitor) SyscallExit(*Process, *SyscallCtx) {}

// Forked does nothing.
func (NopMonitor) Forked(*Process, *Process) {}

// PreExec does nothing.
func (NopMonitor) PreExec(*Process) {}

// Execed does nothing.
func (NopMonitor) Execed(*Process) {}

// TaintSource does nothing.
func (NopMonitor) TaintSource(*Process, *SyscallCtx) {}

// Exited does nothing.
func (NopMonitor) Exited(*Process) {}
