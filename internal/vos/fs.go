// Package vos implements the virtual operating system the HTH
// simulator runs guests on: processes with isolated address spaces, a
// round-robin scheduler with a virtual clock, an in-memory filesystem,
// a simulated network with scriptable remote peers, and a Linux-i386
// style system-call surface (including the socketcall multiplexer the
// paper's Harrier tracks, §7.1–§7.2).
//
// The OS exposes a Monitor interface: Harrier attaches to a process
// tree and is notified synchronously before each tracked system call
// takes effect, exactly once per completed call — the guest is paused
// until the monitor's verdict arrives (paper §7.1: "Harrier will
// interrupt the execution of the program and wait until Secpert
// analysis is done").
package vos

import (
	"sort"

	"repro/internal/image"
)

// File is one filesystem object: a byte store, optionally backed by a
// loadable image (executables).
//
// Create and the installs share the caller's bytes instead of copying
// them, capped to their length, so many guest worlds built from one
// slice hold one array. The guest's write path is the only in-place
// writer: it copies Data on the file's first write (see owned), so
// the caller's bytes never change and no world sees another's writes.
type File struct {
	Path  string
	Data  []byte
	Image *image.Image // non-nil for executable files

	// owned reports that Data is this file's private copy, which the
	// write path may modify in place.
	owned bool
}

// shared caps data to its length, so no append through a File can
// reach the caller's spare capacity.
func shared(data []byte) []byte { return data[:len(data):len(data)] }

// FS is a flat in-memory filesystem.
type FS struct {
	files map[string]*File
}

// NewFS returns an empty filesystem.
func NewFS() *FS {
	return &FS{files: make(map[string]*File)}
}

// Create adds (or truncates) a plain file with the given contents.
// The file shares data; the caller must not modify it afterwards.
func (fs *FS) Create(path string, data []byte) *File {
	f := &File{Path: path, Data: shared(data)}
	fs.files[path] = f
	return f
}

// Install places an executable image at path.
func (fs *FS) Install(path string, img *image.Image) *File {
	f := &File{Path: path, Image: img}
	fs.files[path] = f
	return f
}

// InstallBinary places an executable at path from its raw bytes,
// decoding them through the registered format frontends (ELF sniffed
// by magic, assembly text as the fallback). The file shares the
// bytes, so guests can read the binary back; the caller must not
// modify them afterwards. Decode failures are returned unchanged:
// structural ones wrap image.ErrBadImage, text compile diagnostics
// come back as-is.
func (fs *FS) InstallBinary(path string, data []byte) (*File, error) {
	img, err := image.Decode(path, data)
	if err != nil {
		return nil, err
	}
	f := &File{Path: path, Data: shared(data), Image: img}
	fs.files[path] = f
	return f, nil
}

// InstallDecoded places an executable at path from its raw bytes plus
// an image the caller already decoded from exactly those bytes,
// skipping the decode InstallBinary would repeat. Images are immutable
// after load, so sharing one across files (or guest worlds) is safe.
// The file shares data too; the caller must not modify it afterwards.
func (fs *FS) InstallDecoded(path string, data []byte, img *image.Image) *File {
	f := &File{Path: path, Data: shared(data), Image: img}
	fs.files[path] = f
	return f
}

// Lookup finds a file by path.
func (fs *FS) Lookup(path string) (*File, bool) {
	f, ok := fs.files[path]
	return f, ok
}

// Remove deletes a file.
func (fs *FS) Remove(path string) {
	delete(fs.files, path)
}

// Paths returns all file paths in sorted order.
func (fs *FS) Paths() []string {
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Listing renders a directory-style listing of every path; the ls
// corpus program reads this through the "." pseudo-file.
func (fs *FS) Listing() []byte {
	var out []byte
	for _, p := range fs.Paths() {
		out = append(out, p...)
		out = append(out, '\n')
	}
	return out
}

// Errno values (negated Linux convention: syscalls return -errno).
const (
	ENOENT     = 2
	EIO        = 5
	EBADF      = 9
	ECHILD     = 10
	ENOMEM     = 12
	EACCES     = 13
	EINVAL     = 22
	EFBIG      = 27
	ENFILE     = 23
	EMFILE     = 24
	ENOEXEC    = 8
	ECONNABORT = 103 // ECONNABORTED
	ECONN      = 111 // ECONNREFUSED
)

func errno(e uint32) uint32 { return -e }

// open flags, matching the Linux i386 ABI subset the guests use.
const (
	ORdOnly = 0x0
	OWrOnly = 0x1
	ORdWr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)
