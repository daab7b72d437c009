package vos

import (
	"strings"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/taint"
)

// kernel implements isa.SyscallHandler: the Linux-i386-flavoured
// system call surface. Tracked calls (paper §7.1: execve, clone, open,
// close, creat, dup, read, write, socketcall) notify the process
// monitor synchronously before their effects apply; blocking calls
// notify exactly once, when they are about to complete.
type kernel struct {
	os *OS
}

// Syscall dispatches on EAX. When a fault injector is attached, it is
// consulted first: an injected fault makes the call fail with the
// injector's errno without executing (the guest observes EIO/ENOMEM/…
// exactly as it would a real transient failure).
func (k *kernel) Syscall(cpu *isa.CPU) {
	p := cpu.Ctx.(*Process)
	num := cpu.Regs[isa.EAX]
	args := [5]uint32{
		cpu.Regs[isa.EBX], cpu.Regs[isa.ECX], cpu.Regs[isa.EDX],
		cpu.Regs[isa.ESI], cpu.Regs[isa.EDI],
	}
	if e, injected := k.injectFault(p, num, args); injected {
		ret(p, errno(e))
	} else {
		k.dispatch(p, num, args)
	}
	// Syscall results are kernel-produced values: whatever taint EAX
	// carried before the call does not describe the result. (The tag
	// is cleared immediately; calls that complete later fill in the
	// value, not the tag.)
	cpu.RegTags[isa.EAX] = taint.Empty
}

// injectFault asks the attached injector whether this call should fail
// artificially. Only the calls the chaos layer targets — read, write,
// open/creat, connect, accept — are offered; everything else always
// executes.
func (k *kernel) injectFault(p *Process, num uint32, args [5]uint32) (uint32, bool) {
	inj := k.os.inject
	if inj == nil {
		return 0, false
	}
	fp := FaultPoint{PID: p.PID, Num: num, FD: -1, Clock: k.os.Clock}
	switch num {
	case SysRead, SysWrite:
		fp.FD = int(args[0])
	case SysOpen, SysCreat:
		fp.Path = p.CPU.Mem.CString(args[0])
	case SysSocketcall:
		sub := args[0]
		if sub != SockConnect && sub != SockAccept {
			return 0, false
		}
		fp.Sock = sub
		fp.FD = int(p.CPU.Mem.Load32(args[1]))
	default:
		return 0, false
	}
	return inj.SyscallFault(fp)
}

// clampRead offers a completing read to the injector, which may turn
// it into a short read.
func (k *kernel) clampRead(p *Process, fd int, want uint32) uint32 {
	if inj := k.os.inject; inj != nil {
		return inj.ShortRead(FaultPoint{PID: p.PID, Num: SysRead, FD: fd, Clock: k.os.Clock}, want)
	}
	return want
}

func (k *kernel) dispatch(p *Process, num uint32, args [5]uint32) {
	switch num {
	case SysExit:
		k.sysExit(p, args)
	case SysFork, SysClone:
		k.sysFork(p, num, args)
	case SysRead:
		k.sysRead(p, args)
	case SysWrite:
		k.sysWrite(p, args)
	case SysOpen:
		k.sysOpen(p, args, false)
	case SysCreat:
		k.sysOpen(p, args, true)
	case SysUnlink:
		k.sysUnlink(p, args)
	case SysLseek:
		k.sysLseek(p, args)
	case SysClose:
		k.sysClose(p, args)
	case SysWaitpid:
		k.sysWaitpid(p, args)
	case SysExecve:
		k.sysExecve(p, args)
	case SysTime:
		p.CPU.Regs[isa.EAX] = uint32(k.os.Clock)
	case SysGetpid:
		p.CPU.Regs[isa.EAX] = uint32(p.PID)
	case SysDup:
		k.sysDup(p, args)
	case SysBrk:
		k.sysBrk(p, args)
	case SysSocketcall:
		k.sysSocketcall(p, args)
	case SysNanosleep:
		k.sysNanosleep(p, args)
	default:
		p.CPU.Regs[isa.EAX] = errno(38) // ENOSYS
	}
}

func ret(p *Process, v uint32) { p.CPU.Regs[isa.EAX] = v }

func (k *kernel) sysExit(p *Process, args [5]uint32) {
	sc := &SyscallCtx{Num: SysExit, Name: "SYS_exit", Args: args}
	if !p.notifyEnter(sc) {
		return
	}
	p.terminate(int32(args[0]), false, nil)
}

func (k *kernel) sysFork(p *Process, num uint32, args [5]uint32) {
	sc := &SyscallCtx{Num: num, Name: SyscallName(num), Args: args}
	if !p.notifyEnter(sc) {
		return
	}
	child := k.os.forkProcess(p)
	child.CPU.Regs[isa.EAX] = 0
	ret(p, uint32(child.PID))
	sc.Child = child
	sc.Result = uint32(child.PID)
	if p.Monitor != nil {
		p.Monitor.Forked(p, child)
	}
	p.notifyExit(sc)
}

// forkProcess duplicates p: memory, shadow, registers, descriptors.
func (os *OS) forkProcess(p *Process) *Process {
	child := &Process{
		PID:        os.nextPID,
		PPID:       p.PID,
		OS:         os,
		CPU:        p.CPU.Clone(),
		Images:     p.Images.Clone(),
		FDs:        make(map[int]*FDesc, len(p.FDs)),
		nextFD:     p.nextFD,
		Path:       p.Path,
		Argv:       p.Argv,
		Env:        p.Env,
		StartClock: p.StartClock,
		Monitor:    p.Monitor,
		stdin:      p.stdin,
		stdinOff:   p.stdinOff,
		zombies:    make(map[int]int32),
	}
	os.nextPID++
	child.CPU.Ctx = child
	child.CPU.Mem = p.CPU.Mem.Clone()
	if p.CPU.Shadow != nil {
		child.CPU.Shadow = p.CPU.Shadow.Clone()
	}
	child.CPU.Code = p.CPU.Code.Clone()
	// The child resumes after the int 0x80.
	child.CPU.EIP = p.CPU.EIP + isa.InstrSize
	for n, fd := range p.FDs {
		child.FDs[n] = fd.clone()
	}
	p.children++
	os.addProc(child)
	return child
}

func (k *kernel) sysOpen(p *Process, args [5]uint32, creat bool) {
	pathPtr := args[0]
	flags := args[1]
	if creat {
		flags = OCreat | OTrunc | OWrOnly
	}
	path := p.CPU.Mem.CString(pathPtr)
	num, name := uint32(SysOpen), "SYS_open"
	if creat {
		num, name = SysCreat, "SYS_creat"
	}
	sc := &SyscallCtx{
		Num: num, Name: name, Args: args,
		Path: path, PathPtr: pathPtr, PathLen: uint32(len(path)), FD: -1,
	}
	if !p.notifyEnter(sc) {
		return
	}
	var f *File
	if path == "." {
		// Directory listing pseudo-file, for ls-style guests.
		f = &File{Path: ".", Data: k.os.FS.Listing()}
	} else if existing, ok := k.os.FS.Lookup(path); ok {
		f = existing
		if flags&OTrunc != 0 {
			f.Data = nil
		}
	} else if flags&OCreat != 0 {
		f = k.os.FS.Create(path, nil)
	} else {
		ret(p, errno(ENOENT))
		sc.Result = errno(ENOENT)
		p.notifyExit(sc)
		return
	}
	fd := &FDesc{Kind: FDFile, Path: path, file: f, flags: flags}
	if flags&OAppend != 0 {
		fd.off = len(f.Data)
	}
	n := p.allocFD(fd)
	if n < 0 {
		ret(p, errno(EMFILE))
		sc.Result = errno(EMFILE)
		p.notifyExit(sc)
		return
	}
	sc.Des = fd
	sc.FD = n
	sc.Result = uint32(n)
	ret(p, uint32(n))
	p.notifyExit(sc)
}

// sysUnlink removes a file. Tracked: Trojans delete their traces
// (droppers removing payloads after execution).
func (k *kernel) sysUnlink(p *Process, args [5]uint32) {
	pathPtr := args[0]
	path := p.CPU.Mem.CString(pathPtr)
	sc := &SyscallCtx{
		Num: SysUnlink, Name: "SYS_unlink", Args: args,
		Path: path, PathPtr: pathPtr, PathLen: uint32(len(path)),
	}
	if !p.notifyEnter(sc) {
		return
	}
	if _, ok := k.os.FS.Lookup(path); !ok {
		ret(p, errno(ENOENT))
		sc.Result = errno(ENOENT)
		p.notifyExit(sc)
		return
	}
	k.os.FS.Remove(path)
	ret(p, 0)
	p.notifyExit(sc)
}

// lseek whence values.
const (
	seekSet = 0
	seekCur = 1
	seekEnd = 2
)

// sysLseek repositions a file descriptor's offset.
func (k *kernel) sysLseek(p *Process, args [5]uint32) {
	fd, ok := p.FD(int(args[0]))
	if !ok || fd.Kind != FDFile {
		ret(p, errno(EBADF))
		return
	}
	off := int32(args[1])
	var base int
	switch args[2] {
	case seekSet:
		base = 0
	case seekCur:
		base = fd.off
	case seekEnd:
		base = len(fd.file.Data)
	default:
		ret(p, errno(EINVAL))
		return
	}
	pos := base + int(off)
	if pos < 0 {
		ret(p, errno(EINVAL))
		return
	}
	fd.off = pos
	ret(p, uint32(pos))
}

func (k *kernel) sysClose(p *Process, args [5]uint32) {
	n := int(args[0])
	fd, ok := p.FD(n)
	if !ok {
		ret(p, errno(EBADF))
		return
	}
	sc := &SyscallCtx{Num: SysClose, Name: "SYS_close", Args: args, FD: n, Des: fd}
	if !p.notifyEnter(sc) {
		return
	}
	p.closeFD(n, fd)
	ret(p, 0)
	p.notifyExit(sc)
}

func (k *kernel) sysDup(p *Process, args [5]uint32) {
	n := int(args[0])
	fd, ok := p.FD(n)
	if !ok {
		ret(p, errno(EBADF))
		return
	}
	sc := &SyscallCtx{Num: SysDup, Name: "SYS_dup", Args: args, FD: n, Des: fd}
	if !p.notifyEnter(sc) {
		return
	}
	nn := p.allocFD(fd.clone())
	if nn < 0 {
		ret(p, errno(EMFILE))
		sc.Result = errno(EMFILE)
		p.notifyExit(sc)
		return
	}
	sc.Result = uint32(nn)
	ret(p, uint32(nn))
	p.notifyExit(sc)
}

func (k *kernel) sysRead(p *Process, args [5]uint32) {
	n := int(args[0])
	buf, want := args[1], args[2]
	fd, ok := p.FD(n)
	if !ok {
		ret(p, errno(EBADF))
		return
	}
	mkCtx := func() *SyscallCtx {
		return &SyscallCtx{
			Num: SysRead, Name: "SYS_read", Args: args,
			FD: n, Des: fd, Buf: buf, Len: want,
		}
	}
	complete := func(data []byte) {
		p.CPU.Mem.WriteBytes(buf, data)
		ret(p, uint32(len(data)))
	}
	switch fd.Kind {
	case FDStdin:
		sc := mkCtx()
		if !p.notifyEnter(sc) {
			return
		}
		p.notifyTaintSource(sc)
		avail := p.stdin[p.stdinOff:]
		nr := int(k.clampRead(p, n, want))
		if nr > len(avail) {
			nr = len(avail)
		}
		complete(avail[:nr])
		p.stdinOff += nr
		sc.Result = uint32(nr)
		p.notifyExit(sc)
	case FDFile:
		sc := mkCtx()
		if !p.notifyEnter(sc) {
			return
		}
		p.notifyTaintSource(sc)
		avail := fd.file.Data[min(fd.off, len(fd.file.Data)):]
		nr := int(k.clampRead(p, n, want))
		if nr > len(avail) {
			nr = len(avail)
		}
		complete(avail[:nr])
		fd.off += nr
		sc.Result = uint32(nr)
		p.notifyExit(sc)
	case FDSock:
		k.recvCommon(p, fd, nil, args, buf, want)
	default:
		ret(p, errno(EBADF))
	}
}

// recvCommon implements blocking reads from a socket, shared by
// read(2) and socketcall(recv). sock is non-nil for the recv flavour.
func (k *kernel) recvCommon(p *Process, fd *FDesc, sock *SockInfo, args [5]uint32, buf, want uint32) {
	if fd.conn == nil {
		ret(p, errno(EBADF))
		return
	}
	attempt := func() bool {
		if !fd.conn.Readable() {
			return false
		}
		sc := &SyscallCtx{
			Num: SysRead, Name: "SYS_read", Args: args,
			FD: int(args[0]), Des: fd, Buf: buf, Len: want, Sock: sock,
		}
		if sock != nil {
			sc.Num, sc.Name = SysSocketcall, "SYS_socketcall"
			sc.FD = sock.FD
		}
		if !p.notifyEnter(sc) {
			return true // killed: unblock into the exited state
		}
		p.notifyTaintSource(sc)
		data := fd.conn.Read(int(k.clampRead(p, -1, want)))
		p.CPU.Mem.WriteBytes(buf, data)
		ret(p, uint32(len(data)))
		sc.Result = uint32(len(data))
		p.notifyExit(sc)
		return true
	}
	p.block(attempt)
}

func (k *kernel) sysWrite(p *Process, args [5]uint32) {
	n := int(args[0])
	fd, ok := p.FD(n)
	if !ok {
		ret(p, errno(EBADF))
		return
	}
	k.writeCommon(p, fd, nil, args, args[1], args[2])
}

// writeCommon implements writes, shared by write(2) and
// socketcall(send).
func (k *kernel) writeCommon(p *Process, fd *FDesc, sock *SockInfo, args [5]uint32, buf, nlen uint32) {
	// The transfer length is guest-controlled: clamp it before it
	// reaches the monitor or materializes as a host allocation (a
	// guest that passes an errno as a length requests ~4 GiB). Like
	// Linux's MAX_RW_COUNT, the syscall then returns the short count.
	if nlen > MaxRWCount {
		nlen = MaxRWCount
	}
	sc := &SyscallCtx{
		Num: SysWrite, Name: "SYS_write", Args: args,
		FD: int(args[0]), Des: fd, Buf: buf, Len: nlen, Sock: sock,
	}
	if sock != nil {
		sc.Num, sc.Name = SysSocketcall, "SYS_socketcall"
		sc.FD = sock.FD
	}
	if !p.notifyEnter(sc) {
		return
	}
	data := p.CPU.Mem.ReadBytes(buf, nlen)
	var res uint32
	switch fd.Kind {
	case FDStdout, FDStderr:
		k.os.appendConsole(p, data)
		res = nlen
	case FDFile:
		f := fd.file
		for len(f.Data) < fd.off {
			f.Data = append(f.Data, 0)
		}
		f.Data = append(f.Data[:fd.off], append(data, f.Data[min(fd.off+len(data), len(f.Data)):]...)...)
		fd.off += len(data)
		res = nlen
	case FDSock:
		if fd.conn == nil || fd.conn.Write(data) < 0 {
			res = errno(32) // EPIPE
		} else {
			res = nlen
		}
	default:
		res = errno(EBADF)
	}
	ret(p, res)
	sc.Result = res
	p.notifyExit(sc)
}

func (k *kernel) sysSocketcall(p *Process, args [5]uint32) {
	call := args[0]
	argp := args[1]
	a := func(i uint32) uint32 { return p.CPU.Mem.Load32(argp + 4*i) }

	switch call {
	case SockSocket:
		sc := &SyscallCtx{
			Num: SysSocketcall, Name: "SYS_socketcall", Args: args,
			Sock: &SockInfo{Call: SockSocket},
		}
		if !p.notifyEnter(sc) {
			return
		}
		n := p.allocFD(&FDesc{Kind: FDSock, Path: "unconnected"})
		if n < 0 {
			ret(p, errno(EMFILE))
			sc.Result = errno(EMFILE)
			p.notifyExit(sc)
			return
		}
		sc.Result = uint32(n)
		ret(p, uint32(n))
		p.notifyExit(sc)

	case SockBind:
		fdn := int(a(0))
		addrPtr := a(1)
		addr := p.CPU.Mem.CString(addrPtr)
		fd, ok := p.FD(fdn)
		if !ok {
			ret(p, errno(EBADF))
			return
		}
		sock := &SockInfo{Call: SockBind, FD: fdn, Addr: addr, AddrPtr: addrPtr, AddrLen: uint32(len(addr))}
		sc := &SyscallCtx{Num: SysSocketcall, Name: "SYS_socketcall", Args: args, Des: fd, Sock: sock}
		if !p.notifyEnter(sc) {
			return
		}
		l, err := k.os.Net.Bind(addr)
		if err != nil {
			ret(p, errno(EINVAL))
			sc.Result = errno(EINVAL)
			p.notifyExit(sc)
			return
		}
		fd.Kind = FDListener
		fd.listener = l
		fd.Path = addr
		ret(p, 0)
		p.notifyExit(sc)

	case SockListen:
		fdn := int(a(0))
		fd, ok := p.FD(fdn)
		if !ok || fd.Kind != FDListener {
			ret(p, errno(EINVAL))
			return
		}
		ret(p, 0)

	case SockConnect:
		fdn := int(a(0))
		addrPtr := a(1)
		addr := p.CPU.Mem.CString(addrPtr)
		fd, ok := p.FD(fdn)
		if !ok {
			ret(p, errno(EBADF))
			return
		}
		sock := &SockInfo{Call: SockConnect, FD: fdn, Addr: addr, AddrPtr: addrPtr, AddrLen: uint32(len(addr))}
		sc := &SyscallCtx{Num: SysSocketcall, Name: "SYS_socketcall", Args: args, Des: fd, Sock: sock}
		if !p.notifyEnter(sc) {
			return
		}
		conn, err := k.dial(addr)
		if err != nil {
			ret(p, errno(ECONN))
			sc.Result = errno(ECONN)
			p.notifyExit(sc)
			return
		}
		fd.conn = conn
		fd.Path = addr
		ret(p, 0)
		p.notifyExit(sc)

	case SockAccept:
		fdn := int(a(0))
		fd, ok := p.FD(fdn)
		if !ok || fd.Kind != FDListener || fd.listener == nil {
			ret(p, errno(EINVAL))
			return
		}
		l := fd.listener
		attempt := func() bool {
			if len(l.pending) == 0 {
				return false
			}
			conn := l.pending[0]
			sock := &SockInfo{Call: SockAccept, FD: fdn, Addr: conn.RemoteAddr}
			nfd := &FDesc{
				Kind: FDSock, Path: conn.RemoteAddr, conn: conn,
				Server: true, ServerAddr: l.Addr,
				ServerOriginTag: fd.OriginTag,
			}
			sock.Accepted = nfd
			sc := &SyscallCtx{Num: SysSocketcall, Name: "SYS_socketcall", Args: args, Des: fd, Sock: sock}
			if !p.notifyEnter(sc) {
				return true
			}
			l.pending = l.pending[1:]
			n := p.allocFD(nfd)
			if n < 0 {
				conn.Close() // peer observes EOF on the refused connection
				ret(p, errno(EMFILE))
				sc.Result = errno(EMFILE)
				p.notifyExit(sc)
				return true
			}
			sc.Result = uint32(n)
			ret(p, uint32(n))
			p.notifyExit(sc)
			return true
		}
		p.block(attempt)

	case SockSend:
		fdn := int(a(0))
		fd, ok := p.FD(fdn)
		if !ok {
			ret(p, errno(EBADF))
			return
		}
		sock := &SockInfo{Call: SockSend, FD: fdn, Buf: a(1), Len: a(2)}
		k.writeCommon(p, fd, sock, args, a(1), a(2))

	case SockRecv:
		fdn := int(a(0))
		fd, ok := p.FD(fdn)
		if !ok {
			ret(p, errno(EBADF))
			return
		}
		sock := &SockInfo{Call: SockRecv, FD: fdn, Buf: a(1), Len: a(2)}
		k.recvCommon(p, fd, sock, args, a(1), a(2))

	default:
		ret(p, errno(EINVAL))
	}
}

// dial connects to addr, resolving a hostname prefix via the network
// hosts table when the literal endpoint is unknown.
func (k *kernel) dial(addr string) (*Conn, error) {
	if conn, err := k.os.Net.Connect(addr); err == nil {
		return conn, nil
	}
	if i := strings.LastIndex(addr, ":"); i > 0 {
		if ip, ok := k.os.Net.ResolveHost(addr[:i]); ok {
			return k.os.Net.Connect(ip + addr[i:])
		}
	}
	return k.os.Net.Connect(addr) // return the original error
}

func (k *kernel) sysExecve(p *Process, args [5]uint32) {
	pathPtr, argvPtr, envPtr := args[0], args[1], args[2]
	path := p.CPU.Mem.CString(pathPtr)
	sc := &SyscallCtx{
		Num: SysExecve, Name: "SYS_execve", Args: args,
		Path: path, PathPtr: pathPtr, PathLen: uint32(len(path)),
	}
	if !p.notifyEnter(sc) {
		return
	}
	f, ok := k.os.FS.Lookup(path)
	if !ok {
		ret(p, errno(ENOENT))
		sc.Result = errno(ENOENT)
		p.notifyExit(sc)
		return
	}
	if f.Image == nil {
		// A plain file gets one chance to decode through the format
		// frontends (a dropped real ELF payload execs for real). The
		// paper's Tic-Tac-Toe trojan lands in the failure branch: its
		// written payload is not in any executable format, so the
		// execve itself fails — after the warning fired (§8.4.3).
		img, derr := image.Decode(path, f.Data)
		if derr != nil || !img.HasEntry() {
			ret(p, errno(ENOEXEC))
			sc.Result = errno(ENOEXEC)
			p.notifyExit(sc)
			return
		}
		f.Image = img
	}
	argv := p.readStringArray(argvPtr)
	if len(argv) == 0 {
		argv = []string{path}
	}
	env := p.readStringArray(envPtr)

	// Replace the address space. Monitors that cache state keyed to
	// the outgoing code spans get a last look while they are still
	// mapped (Harrier drops its compiled traces here).
	if pre, ok := p.Monitor.(PreExecMonitor); ok {
		pre.PreExec(p)
	}
	p.Path = path
	p.Argv = argv
	p.Env = env
	p.CPU.Mem.Reset()
	if p.CPU.Shadow != nil {
		p.CPU.Shadow.Reset()
	}
	p.CPU.Code.Reset()
	p.CPU.Natives = nil
	p.CPU.Regs = [isa.NumRegs]uint32{}
	p.CPU.RegTags = [isa.NumRegs]taint.Tag{}
	p.Images = loader.NewMap()
	p.StartClock = k.os.Clock
	if err := k.os.loadInto(p, f); err != nil {
		p.terminate(-1, false, err)
		return
	}
	p.setupStack()
	p.CPU.SetPC(p.CPU.EIP)
	if p.Monitor != nil {
		p.Monitor.Execed(p)
	}
	sc.Result = 0
	p.notifyExit(sc)
}

// readStringArray reads a NULL-terminated array of string pointers.
func (p *Process) readStringArray(ptr uint32) []string {
	if ptr == 0 {
		return nil
	}
	var out []string
	for i := uint32(0); i < 256; i++ {
		sp := p.CPU.Mem.Load32(ptr + 4*i)
		if sp == 0 {
			break
		}
		out = append(out, p.CPU.Mem.CString(sp))
	}
	return out
}

func (k *kernel) sysWaitpid(p *Process, args [5]uint32) {
	want := int32(args[0])
	statusPtr := args[1]
	attempt := func() bool {
		pid, code, found := p.takeZombie(want)
		if !found {
			if p.children == 0 {
				ret(p, errno(ECHILD))
				return true
			}
			return false
		}
		if statusPtr != 0 {
			p.CPU.Mem.Store32(statusPtr, uint32(code)<<8)
		}
		ret(p, uint32(pid))
		return true
	}
	p.block(attempt)
}

func (p *Process) takeZombie(want int32) (pid int, code int32, found bool) {
	if want > 0 {
		code, ok := p.zombies[int(want)]
		if !ok {
			return 0, 0, false
		}
		delete(p.zombies, int(want))
		return int(want), code, true
	}
	best := -1
	for z := range p.zombies {
		if best < 0 || z < best {
			best = z
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	code = p.zombies[best]
	delete(p.zombies, best)
	return best, code, true
}

func (k *kernel) sysBrk(p *Process, args [5]uint32) {
	if p.brk == 0 {
		p.brk = 0x20000000
	}
	if args[0] != 0 {
		sc := &SyscallCtx{Num: SysBrk, Name: "SYS_brk", Args: args, Prev: p.brk}
		if !p.notifyEnter(sc) {
			return
		}
		p.brk = args[0]
		sc.Result = p.brk
		p.notifyExit(sc)
	}
	ret(p, p.brk)
}

func (k *kernel) sysNanosleep(p *Process, args [5]uint32) {
	wake := k.os.Clock + uint64(args[0])
	attempt := func() bool {
		return k.os.Clock >= wake
	}
	p.block(attempt)
	ret(p, 0)
}
