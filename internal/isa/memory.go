package isa

import (
	"encoding/binary"

	"repro/internal/freelist"
)

// Memory is a sparse, paged, little-endian 32-bit guest address space.
// Reads from unmapped pages return zero; writes allocate pages on
// demand. Every process owns one Memory.
//
// fork() shares pages copy-on-write: Clone hands the child the
// parent's page pointers and bumps each page's owner count, and the
// first write from either side to a shared page copies it, so a
// forked child pays only for the pages it or its parent writes. The
// owner counts are plain integers, not atomics: one job's processes
// run on one goroutine, and no page is shared across jobs.
//
// A page crosses jobs only through the free list, and only after its
// owner count reaches 0: Reset releases each page it was the last
// owner of onto a small package-level list, and pageW takes a page's
// bytes from that list, cleared, before it allocates.
//
// The hot paths mirror taint.Shadow's: 32-bit accesses that stay
// inside one page are a single page lookup plus one 4-byte move, and
// a small software TLB short-circuits the page map for the local
// access streams the §9 benchmarks show.
type Memory struct {
	pages map[uint32]*memPage // nil until the first page is allocated

	// Software TLB, direct-mapped by the low page-index bits: a copy
	// kernel alternating between a source and a destination page — the
	// dominant §9 access shape — keeps both resident instead of
	// evicting one with every access. A nil data pointer marks an
	// empty slot.
	tlb [memTLBWays]memTLBEnt
}

// memTLBEnt is one TLB slot: the bytes of page idx. w, the writable
// bit, is set only by the write slow path once the page is this
// Memory's alone, so a store that finds it set writes in place; a read
// refill leaves it clear, and Clone clears it in every slot.
type memTLBEnt struct {
	idx  uint32
	w    bool
	data *[memPageSize]byte
}

const (
	memPageShift = 12
	memPageSize  = 1 << memPageShift
	memPageMask  = memPageSize - 1
	memTLBWays   = 4 // direct-mapped slots; must be a power of two
)

// memPage is one resident page. refs counts the Memories whose page
// table holds it; while refs > 1 the page is shared copy-on-write and
// no owner writes it in place. The bytes live in their own array so a
// page stays one 4 KiB allocation and the array alone can be recycled.
type memPage struct {
	data *[memPageSize]byte
	refs int32
}

// freePages holds the byte arrays of released pages, at most 128 (512
// KiB). It is shared by every Memory in the process, so the pages one
// settled job releases feed the next job on any service worker.
var freePages = freelist.New[[memPageSize]byte](128)

// release drops one owner of p; the last owner hands its array to the
// free list. The page's data becomes nil, so a stale reference to it
// panics instead of reading or writing a page another Memory now owns.
func (p *memPage) release() {
	if p.refs--; p.refs > 0 {
		return
	}
	freePages.Put(p.data)
	p.data = nil
}

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{} }

// page resolves a page index through the TLB for a read, returning nil
// when the page is unallocated.
func (m *Memory) page(idx uint32) *[memPageSize]byte {
	e := &m.tlb[idx&(memTLBWays-1)]
	if e.data != nil && e.idx == idx {
		return e.data
	}
	p := m.pages[idx]
	if p == nil {
		return nil
	}
	_ = p.data[0] // a released page panics here rather than read as unmapped
	e.idx, e.w, e.data = idx, false, p.data
	return p.data
}

// pageW resolves a page index for a write: it allocates the page if it
// is absent, copies it if it is shared, and marks its TLB slot
// writable.
func (m *Memory) pageW(idx uint32) *[memPageSize]byte {
	e := &m.tlb[idx&(memTLBWays-1)]
	if e.w && e.idx == idx {
		return e.data
	}
	p := m.pages[idx]
	switch {
	case p == nil:
		if m.pages == nil {
			m.pages = make(map[uint32]*memPage)
		}
		p = &memPage{data: freePages.Get(), refs: 1}
		m.pages[idx] = p
	case p.refs > 1:
		p.refs--
		cp := &memPage{data: freePages.Get(), refs: 1}
		*cp.data = *p.data
		p = cp
		m.pages[idx] = p
	}
	e.idx, e.w, e.data = idx, true, p.data
	return p.data
}

// Load8 reads one byte.
func (m *Memory) Load8(addr uint32) byte {
	d := m.page(addr >> memPageShift)
	if d == nil {
		return 0
	}
	return d[addr&memPageMask]
}

// Store8 writes one byte.
func (m *Memory) Store8(addr uint32, v byte) {
	m.pageW(addr >> memPageShift)[addr&memPageMask] = v
}

// Load32 reads a little-endian 32-bit word. Accesses that stay inside
// one page — aligned or not — are a single lookup.
func (m *Memory) Load32(addr uint32) uint32 {
	off := addr & memPageMask
	if off <= memPageSize-4 {
		d := m.page(addr >> memPageShift)
		if d == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(d[off : off+4])
	}
	return uint32(m.Load8(addr)) |
		uint32(m.Load8(addr+1))<<8 |
		uint32(m.Load8(addr+2))<<16 |
		uint32(m.Load8(addr+3))<<24
}

// Store32 writes a little-endian 32-bit word. The TLB probe is open-
// coded so the fast path — every store of a hot loop after the first —
// is one test of a writable slot, not a call chain through pageW. A
// writable slot always holds a page, so the writable bit costs no
// compare over the old nil check.
func (m *Memory) Store32(addr uint32, v uint32) {
	off := addr & memPageMask
	if off <= memPageSize-4 {
		idx := addr >> memPageShift
		e := &m.tlb[idx&(memTLBWays-1)]
		d := e.data
		if !e.w || e.idx != idx {
			d = m.pageW(idx)
		}
		binary.LittleEndian.PutUint32(d[off:off+4], v)
		return
	}
	m.Store8(addr, byte(v))
	m.Store8(addr+1, byte(v>>8))
	m.Store8(addr+2, byte(v>>16))
	m.Store8(addr+3, byte(v>>24))
}

// ReadBytes copies n bytes starting at addr into a new slice,
// page-at-a-time.
func (m *Memory) ReadBytes(addr, n uint32) []byte {
	out := make([]byte, n)
	for done := uint32(0); done < n; {
		off := (addr + done) & memPageMask
		chunk := memPageSize - off
		if chunk > n-done {
			chunk = n - done
		}
		if d := m.page((addr + done) >> memPageShift); d != nil {
			copy(out[done:done+chunk], d[off:off+chunk])
		}
		done += chunk
	}
	return out
}

// WriteBytes copies b into memory starting at addr, page-at-a-time.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	for done := uint32(0); done < uint32(len(b)); {
		off := (addr + done) & memPageMask
		chunk := memPageSize - off
		if chunk > uint32(len(b))-done {
			chunk = uint32(len(b)) - done
		}
		d := m.pageW((addr + done) >> memPageShift)
		copy(d[off:off+chunk], b[done:done+chunk])
		done += chunk
	}
}

// CString reads a NUL-terminated string starting at addr, up to a
// sanity cap of 64 KiB.
func (m *Memory) CString(addr uint32) string {
	const cap = 64 << 10
	var out []byte
	for i := uint32(0); i < cap; i++ {
		b := m.Load8(addr + i)
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out)
}

// CStringLen returns the length of the NUL-terminated string at addr
// (excluding the terminator), capped at 64 KiB.
func (m *Memory) CStringLen(addr uint32) uint32 {
	const cap = 64 << 10
	for i := uint32(0); i < cap; i++ {
		if m.Load8(addr+i) == 0 {
			return i
		}
	}
	return cap
}

// WriteCString writes s followed by a NUL terminator at addr and
// returns the number of bytes written including the terminator.
func (m *Memory) WriteCString(addr uint32, s string) uint32 {
	m.WriteBytes(addr, []byte(s))
	m.Store8(addr+uint32(len(s)), 0)
	return uint32(len(s)) + 1
}

// Clone returns a copy-on-write copy of the address space (fork()):
// the clone shares every page, each page's owner count goes up by one,
// and the parent's TLB slots lose their writable bit, so the first
// store from either side to a shared page copies it. The clone starts
// with a cold TLB.
func (m *Memory) Clone() *Memory {
	out := &Memory{}
	if len(m.pages) > 0 {
		out.pages = make(map[uint32]*memPage, len(m.pages))
		for idx, p := range m.pages {
			p.refs++
			out.pages[idx] = p
		}
	}
	for i := range m.tlb {
		m.tlb[i].w = false
	}
	return out
}

// Reset drops all pages (execve(), or a settled job releasing its
// memory), giving up this Memory's share of each; a page no other
// Memory holds goes to the free list. It allocates nothing: the page
// map is rebuilt by the first write. Only execve and the service's
// settle step call it, so a batch Result's memory stays readable.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		p.release()
	}
	m.pages = nil
	m.tlb = [memTLBWays]memTLBEnt{}
}

// Pages returns the number of resident pages.
func (m *Memory) Pages() int { return len(m.pages) }
