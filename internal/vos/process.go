package vos

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/taint"
)

// ProcState is a process's scheduler state.
type ProcState uint8

// Process states.
const (
	Ready ProcState = iota
	Blocked
	Exited
)

// stack layout constants: the initial stack holds argc, a pointer to
// the argv pointer array, and a pointer to the envp pointer array at
// [esp], [esp+4] and [esp+8]; string data sits above. Everything on
// the initial stack is tagged USER_INPUT (paper §7.3.3).
const (
	stackTop  = 0xBFFF0000
	stackArea = 0x00020000
)

// Process is one guest process.
type Process struct {
	PID  int
	PPID int
	OS   *OS
	CPU  *isa.CPU

	Images *loader.Map
	FDs    map[int]*FDesc
	nextFD int

	State   ProcState
	blockFn func() bool

	Path       string
	Argv       []string
	Env        []string
	StartClock uint64

	ExitCode int32
	Killed   bool
	Fault    error

	Monitor Monitor

	stdin    []byte
	stdinOff int
	Stdout   []byte // per-process capture; writes also land on OS.Console

	zombies  map[int]int32 // exited children awaiting waitpid
	children int           // living children
	brk      uint32
}

// Alive reports whether the process has not exited.
func (p *Process) Alive() bool { return p.State != Exited }

// Age returns virtual ticks since the program started (execve resets
// it: a new program began).
func (p *Process) Age() uint64 { return p.OS.Clock - p.StartClock }

// allocFD installs a descriptor at the next free number, or returns
// -1 when the process is at its open-descriptor budget (the caller
// fails the call with EMFILE).
func (p *Process) allocFD(fd *FDesc) int {
	if limit := p.OS.maxFDs; limit > 0 && len(p.FDs) >= limit {
		return -1
	}
	n := p.nextFD
	p.nextFD++
	p.FDs[n] = fd
	if bus := p.OS.bus; bus != nil {
		bus.Publish(obs.Event{
			Time: p.OS.Clock, Layer: obs.LayerVOS, Kind: obs.KindFDOpen,
			PID: int32(p.PID), Num: uint64(n),
			Str: fd.Path, Str2: fd.Kind.String(),
		})
	}
	return n
}

// FD returns the descriptor for number n.
func (p *Process) FD(n int) (*FDesc, bool) {
	fd, ok := p.FDs[n]
	return fd, ok
}

// block parks the process on attempt until it returns true. If the
// attempt succeeds immediately the process never blocks.
func (p *Process) block(attempt func() bool) {
	if attempt() {
		return
	}
	p.State = Blocked
	p.blockFn = attempt
	if bus := p.OS.bus; bus != nil {
		bus.Publish(obs.Event{
			Time: p.OS.Clock, Layer: obs.LayerVOS, Kind: obs.KindSchedBlock,
			PID: int32(p.PID),
		})
	}
}

// notifyEnter delivers the pre-execution event to the monitor,
// returning false when the verdict killed the process. It also
// publishes the syscall.enter bus event — for every tracked call,
// monitored or not.
func (p *Process) notifyEnter(sc *SyscallCtx) bool {
	if bus := p.OS.bus; bus != nil {
		bus.Publish(obs.Event{
			Time: p.OS.Clock, Layer: obs.LayerVOS, Kind: obs.KindSyscallEnter,
			PID: int32(p.PID), Num: uint64(sc.Num), Str: sc.Name, Str2: sc.Path,
		})
	}
	if p.Monitor == nil {
		return true
	}
	if p.Monitor.SyscallEnter(p, sc) == Kill {
		p.terminate(-1, true, nil)
		return false
	}
	return true
}

// notifyTaintSource tells the monitor that sc is about to deposit
// externally-sourced data into p's memory — the clean tier's
// re-instrumentation boundary.
func (p *Process) notifyTaintSource(sc *SyscallCtx) {
	if p.Monitor != nil {
		p.Monitor.TaintSource(p, sc)
	}
}

func (p *Process) notifyExit(sc *SyscallCtx) {
	if bus := p.OS.bus; bus != nil {
		bus.Publish(obs.Event{
			Time: p.OS.Clock, Layer: obs.LayerVOS, Kind: obs.KindSyscallExit,
			PID: int32(p.PID), Num: uint64(sc.Num), Num2: uint64(sc.Result),
			Str: sc.Name,
		})
	}
	if p.Monitor != nil {
		p.Monitor.SyscallExit(p, sc)
	}
}

// terminate ends the process: exit(), a monitor Kill, or a fault.
func (p *Process) terminate(code int32, killed bool, fault error) {
	if p.State == Exited {
		return
	}
	p.State = Exited
	p.ExitCode = code
	p.Killed = killed
	p.Fault = fault
	p.CPU.Halt()
	if bus := p.OS.bus; bus != nil {
		how := "exit"
		switch {
		case killed:
			how = "kill"
		case fault != nil:
			how = "fault"
		}
		bus.Publish(obs.Event{
			Time: p.OS.Clock, Layer: obs.LayerVOS, Kind: obs.KindProcExit,
			PID: int32(p.PID), Num: uint64(uint32(code)), Str: how,
		})
	}
	// Close descriptors so peers and readers observe EOF and bound
	// listeners free their addresses.
	for n, fd := range p.FDs {
		p.closeFD(n, fd)
	}
	// Reparent: zombies of this process are discarded; the parent
	// collects this process.
	if parent, ok := p.OS.procs[p.PPID]; ok && parent.Alive() {
		parent.zombies[p.PID] = code
		parent.children--
	}
	if p.Monitor != nil {
		p.Monitor.Exited(p)
	}
}

func (p *Process) closeFD(n int, fd *FDesc) {
	if bus := p.OS.bus; bus != nil {
		bus.Publish(obs.Event{
			Time: p.OS.Clock, Layer: obs.LayerVOS, Kind: obs.KindFDClose,
			PID: int32(p.PID), Num: uint64(n), Str: fd.Path,
		})
	}
	switch fd.Kind {
	case FDSock:
		if fd.conn != nil {
			fd.conn.Close()
		}
	case FDListener:
		if fd.listener != nil {
			p.OS.Net.Unbind(fd.listener.Addr)
		}
	}
	delete(p.FDs, n)
}

// setupStack writes argc/argv/envp onto a fresh stack and tags every
// byte USER_INPUT (paper §7.3.3: "Harrier will tag all the initial
// stack with the USER INPUT data source"). Each string block is padded
// to a whole word, the pad tagged like its block, so argv[] and envp[]
// sit word-aligned, as the i386 ABI has them, and no word of the stack
// mixes two tags: the stack's shadow page stays in word mode.
func (p *Process) setupStack() {
	mem := p.CPU.Mem
	addr := uint32(stackTop - stackArea)

	var argvTag, envTag taint.Tag
	sh := p.CPU.Shadow
	if sh != nil {
		st := sh.Store()
		argvTag = st.Of(taint.Source{Type: taint.UserInput, Name: "argv"})
		envTag = st.Of(taint.Source{Type: taint.UserInput, Name: "env"})
	}
	tag := func(start, end uint32, t taint.Tag) {
		if sh != nil && end > start {
			sh.SetRange(start, end-start, t)
		}
	}

	writeStrings := func(items []string, t taint.Tag) []uint32 {
		start := addr
		ptrs := make([]uint32, len(items))
		for i, s := range items {
			ptrs[i] = addr
			addr += mem.WriteCString(addr, s)
		}
		addr = (addr + 3) &^ 3
		tag(start, addr, t)
		return ptrs
	}
	argvPtrs := writeStrings(p.Argv, argvTag)
	envPtrs := writeStrings(p.Env, envTag)

	writeArray := func(ptrs []uint32, t taint.Tag) uint32 {
		start := addr
		for _, ptr := range ptrs {
			mem.Store32(addr, ptr)
			addr += 4
		}
		mem.Store32(addr, 0) // NULL terminator
		addr += 4
		tag(start, addr, t)
		return start
	}
	argvArr := writeArray(argvPtrs, argvTag)
	envArr := writeArray(envPtrs, envTag)

	sp := uint32(stackTop - stackArea - 16)
	mem.Store32(sp, uint32(len(p.Argv)))
	mem.Store32(sp+4, argvArr)
	mem.Store32(sp+8, envArr)
	p.CPU.Regs[isa.ESP] = sp
	tag(sp, sp+12, argvTag)
}

// installStdio opens fds 0, 1, 2.
func (p *Process) installStdio() {
	p.FDs[0] = &FDesc{Kind: FDStdin, Path: "stdin"}
	p.FDs[1] = &FDesc{Kind: FDStdout, Path: "stdout"}
	p.FDs[2] = &FDesc{Kind: FDStderr, Path: "stderr"}
	p.nextFD = 3
}

// String renders a short process identity for diagnostics.
func (p *Process) String() string {
	return fmt.Sprintf("pid %d (%s)", p.PID, p.Path)
}
