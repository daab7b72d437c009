package taint

import "repro/internal/freelist"

// Shadow is a sparse tag map mirroring a guest address space. Pages
// are allocated on first tainted write; reading an unallocated page
// yields Empty. This matches Harrier's design where the data
// structures tracking taint grow with the footprint of tainted data
// (paper §7.3.1, §9).
//
// Representation (the §9 fast path): a page starts in *word mode*,
// one Tag per aligned 32-bit word, so the dominant accesses — aligned
// GetWord/SetWord from 32-bit loads and stores — are a single page
// lookup plus one array index. Word mode maintains the invariant that
// all four bytes of a word carry the word's tag. The first write that
// would break that invariant (a MOVB with a differing tag, an
// unaligned store) degrades the page to *byte mode*, which keeps a
// full per-byte tag array and stays byte-granular for the page's
// lifetime. Reads never degrade a page. The two representations are
// observationally identical; see DESIGN.md "Shadow memory fast
// paths".
//
// fork() shares pages copy-on-write, as isa.Memory does: Clone hands
// the child the parent's page pointers and bumps each page's owner
// count, and the first write from either side to a shared page copies
// it. The copy keeps the page's index and population, so no page flip
// fires and the clean tier's verdicts carry over. The owner counts
// are plain integers, not atomics: one job's processes run on one
// goroutine, and no page is shared across jobs.
//
// A page crosses jobs only through the free lists, and only after its
// owner count reaches 0: Reset releases each page it was the last
// owner of, and its byte-mode array if it has one, onto small
// package-level lists, and pageW and degrade take from them, cleared,
// before they allocate. A recycled page starts in word mode with pop 0.
//
// A small direct-mapped software TLB — the design isa.Memory uses for
// guest pages — short-circuits the page map for the local access
// streams the benchmarks show. Each slot carries a writable bit, set
// only by the write slow path once the page is this shadow's alone;
// Clone clears it in every parent slot, so a store to a shared page
// leaves the fast path. The TLB is cleared whenever the page table is
// replaced (Reset) and never shared with Clones.
type Shadow struct {
	store *Store
	pages map[uint32]*shadowPage // nil until the first page is allocated

	// Software TLB, direct-mapped by the low page-index bits: a kernel
	// that reads A, reads B and writes D — three pages per iteration —
	// keeps all three resident instead of evicting one with every
	// access. Entries cache negative results too: an untainted working
	// set resolves every access to "unallocated", and caching that
	// verdict keeps the hot path off the page map entirely. pageW
	// refreshes the slot of the page it creates, so a negative entry
	// never hides a page allocated after it was cached.
	tlb [shadowTLBWays]shadowTLBEnt

	// TLB effectiveness counters (hits = probes - misses). Plain
	// increments on the page-resolution path; read via TLBStats.
	tlbProbes uint64
	tlbMisses uint64

	// Page-flip seam for the clean tier (see harrier/cleantier.go):
	// flipGen advances every time any page's tainted-byte population
	// crosses zero→nonzero — the only event that can turn a
	// previously-clean footprint dirty — generalizing the negative-TLB
	// invalidation. A cached "these pages are clean" verdict keyed on
	// an unchanged flipGen needs no per-page re-probe. onFlip, when
	// installed, fires synchronously on the same transition with the
	// flipping page's index, before the write's caller regains control.
	flipGen uint64
	onFlip  func(idx uint32)
}

// shadowTLBEnt is one TLB slot: the resolution of page idx, where a
// nil page is a cached "unallocated". valid is false only in a slot
// nothing has been cached in since NewShadow or Reset. w, the writable
// bit, means the page is non-nil and this shadow's alone, so a write
// may change it in place; a read refill leaves it clear.
type shadowTLBEnt struct {
	idx   uint32
	valid bool
	w     bool
	page  *shadowPage
}

const (
	pageShift     = 12
	pageSize      = 1 << pageShift
	pageMask      = pageSize - 1
	pageWords     = pageSize / 4
	shadowTLBWays = 4 // direct-mapped slots; must be a power of two
)

// shadowPage holds the tags of one 4 KiB page. words is authoritative
// while bytes == nil (word mode); after degrade() the bytes array is
// authoritative and words is dead.
type shadowPage struct {
	words [pageWords]Tag
	bytes *[pageSize]Tag

	// idx is the page's own index in the owning shadow's page table;
	// pop counts the page's tainted (non-Empty) bytes, a word-mode tag
	// counting as its four bytes, so degradation preserves it. Together
	// they let writes detect the zero→nonzero flip locally and report
	// which page flipped.
	idx uint32
	pop int32

	// refs counts the shadows whose page table holds the page; while
	// refs > 1 it is shared copy-on-write and no owner writes it.
	refs int32
}

// Free lists of released shadow pages, at most 128 (512 KiB), and of
// byte-mode arrays, at most 32 (512 KiB). They are shared by every
// Shadow in the process, so the pages one settled job releases feed
// the next job on any service worker. A page taken from the list is
// zeroed: word mode, pop 0.
var (
	freeShadowPages = freelist.New[shadowPage](128)
	freeByteTags    = freelist.New[[pageSize]Tag](32)
)

// release drops one owner of p; the last owner hands the page, and its
// byte-mode array on a list of its own, to the free lists.
func (p *shadowPage) release() {
	if p.refs--; p.refs > 0 {
		return
	}
	if p.bytes != nil {
		freeByteTags.Put(p.bytes)
		p.bytes = nil
	}
	freeShadowPages.Put(p)
}

// degrade switches the page to byte mode, expanding each word tag to
// its four bytes. Idempotent.
func (p *shadowPage) degrade() {
	if p.bytes != nil {
		return
	}
	b := freeByteTags.Get()
	for w, t := range p.words {
		if t == Empty {
			continue
		}
		o := w << 2
		b[o], b[o+1], b[o+2], b[o+3] = t, t, t, t
	}
	p.bytes = b
}

// getByte returns the tag of the byte at page offset off.
func (p *shadowPage) getByte(off uint32) Tag {
	if p.bytes != nil {
		return p.bytes[off]
	}
	return p.words[off>>2]
}

// setByte assigns the tag of the byte at page offset off, degrading
// the page only if the write actually breaks word uniformity. Actual
// tag changes are charged to the page's population count.
func (p *shadowPage) setByte(sh *Shadow, off uint32, t Tag) {
	if p.bytes == nil {
		if p.words[off>>2] == t {
			return // word already carries t; no-op, page stays in word mode
		}
		p.degrade()
	}
	old := p.bytes[off]
	if old == t {
		return
	}
	if old == Empty {
		p.pop++
		if p.pop == 1 {
			sh.pageFlipped(p)
		}
	} else if t == Empty {
		p.pop--
	}
	p.bytes[off] = t
}

// setWordSlot assigns the uniform tag of word slot w on a word-mode
// page, with population accounting (one word = 4 bytes).
func (p *shadowPage) setWordSlot(sh *Shadow, w uint32, t Tag) {
	old := p.words[w]
	if old == t {
		return
	}
	if old == Empty {
		p.pop += 4
		if p.pop == 4 {
			sh.pageFlipped(p)
		}
	} else if t == Empty {
		p.pop -= 4
	}
	p.words[w] = t
}

// pageFlipped records that p's tainted-byte population just crossed
// zero→nonzero: the flip generation advances and the installed
// listener (if any) hears which page went dirty.
func (sh *Shadow) pageFlipped(p *shadowPage) {
	sh.flipGen++
	if sh.onFlip != nil {
		sh.onFlip(p.idx)
	}
}

// NewShadow returns an empty shadow map backed by the given store.
func NewShadow(store *Store) *Shadow {
	return &Shadow{store: store}
}

// Store returns the tag store this shadow resolves tags against, nil
// once the shadow is released.
func (sh *Shadow) Store() *Store { return sh.store }

// page resolves a page index through the TLB, returning nil when the
// page is unallocated.
func (sh *Shadow) page(idx uint32) *shadowPage {
	sh.tlbProbes++
	e := &sh.tlb[idx&(shadowTLBWays-1)]
	if e.valid && e.idx == idx {
		return e.page
	}
	sh.tlbMisses++
	p := sh.pages[idx]
	e.idx, e.valid, e.w, e.page = idx, true, false, p
	return p
}

// TLBStats reports page-cache effectiveness: total page resolutions
// and how many fell through to the page map (hits = probes - misses).
func (sh *Shadow) TLBStats() (probes, misses uint64) {
	return sh.tlbProbes, sh.tlbMisses
}

// pageW resolves a page index for a write of tag t, counting one TLB
// probe like page. It returns nil when t is Empty and the page is
// absent, since the write cannot change it. Otherwise it returns the
// page, allocating it if it is absent and copying it if it is shared,
// with its TLB slot marked writable. An allocating write is one probe,
// like any other access.
func (sh *Shadow) pageW(idx uint32, t Tag) *shadowPage {
	sh.tlbProbes++
	e := &sh.tlb[idx&(shadowTLBWays-1)]
	if e.w && e.idx == idx {
		return e.page
	}
	var p *shadowPage
	if e.valid && e.idx == idx {
		p = e.page
	} else {
		sh.tlbMisses++
		p = sh.pages[idx]
	}
	switch {
	case p == nil:
		if t == Empty {
			e.idx, e.valid, e.w, e.page = idx, true, false, nil
			return nil
		}
		if sh.pages == nil {
			sh.pages = make(map[uint32]*shadowPage)
		}
		p = freeShadowPages.Get()
		p.idx, p.refs = idx, 1
		sh.pages[idx] = p
	case p.refs > 1:
		p.refs--
		cp := freeShadowPages.Get()
		cp.words, cp.idx, cp.pop, cp.refs = p.words, p.idx, p.pop, 1
		if p.bytes != nil {
			cp.bytes = freeByteTags.Get()
			*cp.bytes = *p.bytes
		}
		p = cp
		sh.pages[idx] = p
	}
	e.idx, e.valid, e.w, e.page = idx, true, true, p
	return p
}

// Get returns the tag of the byte at addr.
func (sh *Shadow) Get(addr uint32) Tag {
	p := sh.page(addr >> pageShift)
	if p == nil {
		return Empty
	}
	return p.getByte(addr & pageMask)
}

// Set assigns the tag of the byte at addr. Setting Empty on an
// unallocated page is a no-op (no page is created).
func (sh *Shadow) Set(addr uint32, t Tag) {
	if p := sh.pageW(addr>>pageShift, t); p != nil {
		p.setByte(sh, addr&pageMask, t)
	}
}

// GetWord returns the union of the four byte tags at addr (the tag of
// a 32-bit load). The aligned word-mode case — the hot path — is one
// page lookup and one array index.
func (sh *Shadow) GetWord(addr uint32) Tag {
	off := addr & pageMask
	if off > pageSize-4 {
		return sh.GetRange(addr, 4) // crosses a page boundary
	}
	p := sh.page(addr >> pageShift)
	if p == nil {
		return Empty
	}
	if p.bytes == nil {
		if off&3 == 0 {
			return p.words[off>>2]
		}
		// Unaligned, word mode: the four bytes span two uniform words.
		return sh.store.Union(p.words[off>>2], p.words[(off+3)>>2])
	}
	b := p.bytes
	return sh.store.Union4(b[off], b[off+1], b[off+2], b[off+3])
}

// SetWord assigns t to the four bytes at addr (the tag of a 32-bit
// store). The aligned word-mode case is one page lookup and one array
// store; aligned stores never degrade a page.
func (sh *Shadow) SetWord(addr uint32, t Tag) {
	off := addr & pageMask
	if off > pageSize-4 {
		sh.SetRange(addr, 4, t) // crosses a page boundary
		return
	}
	// The writable-slot probe is open-coded, as in isa.Memory.Store32,
	// so the resident-page fast path makes no call: the writable bit
	// stands in for the nil/valid test a read probe makes.
	idx := addr >> pageShift
	e := &sh.tlb[idx&(shadowTLBWays-1)]
	p := e.page
	if e.w && e.idx == idx {
		sh.tlbProbes++
	} else if p = sh.pageW(idx, t); p == nil {
		return
	}
	if p.bytes == nil && off&3 == 0 {
		p.setWordSlot(sh, off>>2, t)
		return
	}
	p.setByte(sh, off, t)
	p.setByte(sh, off+1, t)
	p.setByte(sh, off+2, t)
	p.setByte(sh, off+3, t)
}

// SetRange assigns the same tag to n bytes starting at addr,
// operating page-at-a-time: an Empty tag skips unallocated pages
// entirely, and word-mode pages take the interior as word fills.
func (sh *Shadow) SetRange(addr, n uint32, t Tag) {
	for n > 0 {
		idx := addr >> pageShift
		off := addr & pageMask
		chunk := pageSize - off
		if chunk > n {
			chunk = n
		}
		if p := sh.pageW(idx, t); p != nil {
			p.setRange(sh, off, chunk, t)
		}
		addr += chunk
		n -= chunk
	}
}

// setRange assigns t to chunk bytes at page offset off (off+chunk <=
// pageSize). Word-mode pages fill whole words for the aligned
// interior and fall back to setByte (degrade-if-needed) at the edges.
func (p *shadowPage) setRange(sh *Shadow, off, chunk uint32, t Tag) {
	end := off + chunk
	if p.bytes == nil {
		for off < end && off&3 != 0 {
			p.setByte(sh, off, t)
			if p.bytes != nil {
				break // degraded mid-edge; finish in byte mode below
			}
			off++
		}
		if p.bytes == nil {
			for off+4 <= end {
				p.setWordSlot(sh, off>>2, t)
				off += 4
			}
			for off < end {
				p.setByte(sh, off, t)
				if p.bytes != nil {
					break
				}
				off++
			}
		}
	}
	if p.bytes != nil {
		for ; off < end; off++ {
			p.setByte(sh, off, t)
		}
	}
}

// GetRange returns the union of the tags of n bytes starting at addr,
// operating page-at-a-time: unallocated pages contribute nothing, and
// word-mode pages union one tag per touched word.
func (sh *Shadow) GetRange(addr, n uint32) Tag {
	out := Empty
	for n > 0 {
		idx := addr >> pageShift
		off := addr & pageMask
		chunk := pageSize - off
		if chunk > n {
			chunk = n
		}
		if p := sh.page(idx); p != nil {
			if p.bytes == nil {
				for w, last := off>>2, (off+chunk-1)>>2; w <= last; w++ {
					out = sh.store.Union(out, p.words[w])
				}
			} else {
				for i := uint32(0); i < chunk; i++ {
					out = sh.store.Union(out, p.bytes[off+i])
				}
			}
		}
		addr += chunk
		n -= chunk
	}
	return out
}

// Clone returns a copy-on-write copy of the shadow map sharing the
// same store (fork(): the child inherits the parent's taint state).
// Every page is shared, each page's owner count goes up by one, and
// the parent's TLB slots lose their writable bit, so the first write
// from either side to a shared page copies it. The clone starts with
// the parent's flip generation and a cold TLB.
func (sh *Shadow) Clone() *Shadow {
	out := &Shadow{store: sh.store, flipGen: sh.flipGen}
	if len(sh.pages) > 0 {
		out.pages = make(map[uint32]*shadowPage, len(sh.pages))
		for idx, p := range sh.pages {
			p.refs++
			out.pages[idx] = p
		}
	}
	for i := range sh.tlb {
		sh.tlb[i].w = false
	}
	return out
}

// Reset drops all pages, giving up this shadow's share of each (a
// page no other shadow holds goes to the free lists), and returns it
// to the untainted state. Used by execve(), which replaces the address
// space, and by Release; a batch run never calls it after the run, so
// its Result's shadow stays readable. It allocates nothing: the page
// map is rebuilt by the first tainting write.
func (sh *Shadow) Reset() {
	for _, p := range sh.pages {
		p.release()
	}
	sh.pages = nil
	sh.tlb = [shadowTLBWays]shadowTLBEnt{}
	// Belt and braces: dropping every page can only make pages cleaner,
	// but bumping the flip generation forces cached clean verdicts to
	// re-probe rather than reason about the wholesale replacement.
	sh.flipGen++
}

// Release resets sh and drops its store: a service job settles this
// way before its store is released to the next job. A released shadow
// has no route to that store: a later use that needs one panics on
// the nil store instead of reading another job's tags.
func (sh *Shadow) Release() {
	sh.Reset()
	sh.store = nil
}

// Pages returns the number of shadow pages currently allocated.
func (sh *Shadow) Pages() int { return len(sh.pages) }

// FlipGen returns the page-flip generation: it advances exactly when
// some page's tainted population crosses zero→nonzero (and on Reset).
// Two equal FlipGen readings bracket a window in which no clean page
// became dirty, so a clean-footprint verdict taken at the first
// reading still holds at the second. Writes confined to already-dirty
// pages do not move it.
func (sh *Shadow) FlipGen() uint64 { return sh.flipGen }

// PageClean reports whether the 4 KiB page with index idx (addr >>
// 12) holds no tainted byte. It deliberately bypasses the TLB: the
// clean tier probes every page of a block's footprint at once, a set
// that need not fit four direct-mapped slots, so going through the
// TLB would evict the entries the guest's own loads and stores are
// using and charge those probes to the TLB effectiveness counters.
func (sh *Shadow) PageClean(idx uint32) bool {
	p := sh.pages[idx]
	return p == nil || p.pop == 0
}

// OnPageFlip installs fn as the page-flip listener: it fires
// synchronously whenever a page's tainted population crosses
// zero→nonzero, with the flipping page's index, before control
// returns to the writer. One listener; nil uninstalls. The clean tier
// uses it to flush demoted blocks before the next block boundary.
func (sh *Shadow) OnPageFlip(fn func(idx uint32)) { sh.onFlip = fn }

// BytePages returns how many allocated pages have degraded to byte
// mode (exposed for tests and stats).
func (sh *Shadow) BytePages() int {
	n := 0
	for _, p := range sh.pages {
		if p.bytes != nil {
			n++
		}
	}
	return n
}
