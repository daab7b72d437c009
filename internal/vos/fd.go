package vos

import (
	"repro/internal/taint"
)

// FDKind classifies a file descriptor.
type FDKind uint8

// File descriptor kinds.
const (
	FDFile FDKind = iota
	FDSock
	FDListener
	FDStdin
	FDStdout
	FDStderr
)

// String names the kind.
func (k FDKind) String() string {
	switch k {
	case FDFile:
		return "file"
	case FDSock:
		return "socket"
	case FDListener:
		return "listener"
	case FDStdin:
		return "stdin"
	case FDStdout:
		return "stdout"
	case FDStderr:
		return "stderr"
	}
	return "?"
}

// FDesc is one open descriptor. dup() copies the descriptor; copies
// share the underlying file or connection but not the offset (a
// simplification of POSIX open-file descriptions that the corpus does
// not depend on).
type FDesc struct {
	Kind     FDKind
	Path     string // file path or socket address (resource name)
	file     *File
	off      int
	conn     *Conn
	listener *Listener

	// OriginTag is the taint tag of the resource's *name* at the time
	// the resource was opened (paper §5.1: the "resource ID data
	// source") — e.g. BINARY:/bin/trojan for a hardcoded file name.
	OriginTag taint.Tag

	// Server marks sockets obtained by accepting on a listener the
	// guest itself bound: the program "has opened a socket for remote
	// connections" (paper §8.3.6 warning text).
	Server bool
	// ServerAddr is the listening address for accepted sockets.
	ServerAddr string
	// ServerOriginTag is the taint tag of the *listener's* bound
	// address name.
	ServerOriginTag taint.Tag
}

// ResourceType returns the taint source type this descriptor's data
// carries when read: FILE, SOCKET or USER_INPUT.
func (fd *FDesc) ResourceType() taint.SourceType {
	switch fd.Kind {
	case FDFile:
		return taint.File
	case FDSock, FDListener:
		return taint.Socket
	case FDStdin:
		return taint.UserInput
	case FDStdout, FDStderr:
		return taint.File // writes to stdio are file-typed targets
	}
	return taint.Unknown
}

// ResourceName returns the resource identity for events and taint
// sources: path for files, peer address for sockets, "stdin"/"stdout"
// for the standard streams.
func (fd *FDesc) ResourceName() string {
	switch fd.Kind {
	case FDSock:
		if fd.conn != nil {
			return fd.conn.RemoteAddr
		}
		return fd.Path
	case FDListener:
		return fd.Path
	case FDStdin:
		return "stdin"
	case FDStdout:
		return "stdout"
	case FDStderr:
		return "stderr"
	}
	return fd.Path
}

// Source returns the taint source applied to data read through this
// descriptor.
func (fd *FDesc) Source() taint.Source {
	return taint.Source{Type: fd.ResourceType(), Name: fd.ResourceName()}
}

// clone duplicates the descriptor for dup()/fork().
func (fd *FDesc) clone() *FDesc {
	cp := *fd
	return &cp
}
