package taint

import (
	"math/rand"
	"slices"
	"testing"
)

// cloneFuzzPages are the pages the fuzzer's addresses start in: two
// pairs that alias TLB slots, so writes evict entries whose writable
// bits matter. Words and ranges spill into the following page, so the
// reference window runs from the first of them to cloneFuzzLast.
var cloneFuzzPages = [...]uint32{0x40, 0x41, 0x44, 0x45}

const (
	cloneFuzzFirst = 0x40
	cloneFuzzLast  = 0x46
	cloneFuzzBase  = cloneFuzzFirst << pageShift
	cloneFuzzSize  = (cloneFuzzLast+1)<<pageShift - cloneFuzzBase
)

// cloneWorld is one shadow of a fork tree next to its deep-copy
// reference: the window's byte tags, each page's tainted-byte count,
// the set of allocated pages, the expected flip generation, and how
// many flips the shadow's listener heard against how many the
// reference expects from writes.
type cloneWorld struct {
	sh        *Shadow
	tags      []Tag
	pop       [cloneFuzzLast - cloneFuzzFirst + 1]int
	pages     map[uint32]bool
	flipGen   uint64
	heard     int
	wantHeard int
}

func newCloneWorld(sh *Shadow, gen uint64) *cloneWorld {
	w := &cloneWorld{sh: sh, tags: make([]Tag, cloneFuzzSize), pages: map[uint32]bool{}, flipGen: gen}
	sh.OnPageFlip(func(uint32) { w.heard++ })
	return w
}

func (w *cloneWorld) clone() *cloneWorld {
	out := newCloneWorld(w.sh.Clone(), w.flipGen)
	copy(out.tags, w.tags)
	out.pop = w.pop
	for idx := range w.pages {
		out.pages[idx] = true
	}
	return out
}

// reset drops every page on both sides; Reset bumps the flip
// generation without firing the listener.
func (w *cloneWorld) reset() {
	w.sh.Reset()
	clear(w.tags)
	w.pop = [len(w.pop)]int{}
	w.pages = map[uint32]bool{}
	w.flipGen++
}

// union returns the reference's union of the tags of n bytes at addr.
func (w *cloneWorld) union(addr, n uint32) Tag {
	out := Empty
	for _, t := range w.tags[addr-cloneFuzzBase:][:n] {
		out = w.sh.store.Union(out, t)
	}
	return out
}

// write applies a write of tag t to n bytes at addr to the shadow and
// the reference, and predicts its page flips: a page flips when its
// tainted-byte count leaves zero, which a uniform-tag write can make
// happen at most once per page.
func (w *cloneWorld) write(addr, n uint32, t Tag, apply func(*Shadow)) {
	apply(w.sh)
	for a := addr; a != addr+n; a++ {
		idx := a >> pageShift
		pop := &w.pop[idx-cloneFuzzFirst]
		old := &w.tags[a-cloneFuzzBase]
		switch {
		case *old == Empty && t != Empty:
			if *pop == 0 {
				w.flipGen++
				w.wantHeard++
			}
			*pop++
		case *old != Empty && t == Empty:
			*pop--
		}
		*old = t
		if t != Empty {
			w.pages[idx] = true
		}
	}
}

// checkOwners checks page ownership across the live worlds: every page
// one maps sits at its own index, its owner count is the number of
// worlds mapping it, and no two pages share a byte-mode array. A page
// recycled while still mapped fails one of the three.
func checkOwners(t *testing.T, worlds []*cloneWorld) {
	t.Helper()
	holders := map[*shadowPage]int32{}
	byBytes := map[*[pageSize]Tag]*shadowPage{}
	for i, w := range worlds {
		for idx, p := range w.sh.pages {
			if p.idx != idx {
				t.Fatalf("world %d: page %#x carries index %#x", i, idx, p.idx)
			}
			if p.bytes != nil {
				if q := byBytes[p.bytes]; q != nil && q != p {
					t.Fatalf("world %d: page %#x shares its byte array with another page", i, idx)
				}
				byBytes[p.bytes] = p
			}
			holders[p]++
		}
	}
	for p, n := range holders {
		if p.refs != n {
			t.Fatalf("page %#x has %d owners, %d mapped", p.idx, p.refs, n)
		}
	}
}

// FuzzCloneIsolation drives random byte, word and range writes,
// reads, Clone chains, Resets and fresh shadows over a tree of
// copy-on-write shadows. A fresh shadow's pages come from the free
// lists that Resets feed. Each shadow is checked against a deep-copy
// reference: bytes and word reads, allocated pages, PageClean,
// FlipGen, and that the flip listener fires exactly on the reference's
// zero→nonzero crossings, never on a copy-on-write page copy. Page
// ownership across the live shadows is checked after every op.
func FuzzCloneIsolation(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 700)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	// Tag a page, clone, evict and reload the page in the parent's TLB
	// (a read refill must leave the slot read-only), then write the
	// word from the parent and the next one from the child, reset the
	// parent and write the child again. Each op is [op, world, page,
	// offset hi, offset lo, tag].
	f.Add([]byte{
		1, 0, 0, 0, 16, 1,
		4, 0, 0, 0, 0, 0,
		6, 0, 2, 0, 0, 0,
		6, 0, 0, 0, 16, 0,
		1, 0, 0, 0, 16, 2,
		1, 1, 0, 0, 20, 3,
		5, 0, 0, 0, 0, 0,
		1, 1, 0, 0, 24, 4,
	})
	// Degrade a page, reset, then start a fresh shadow whose first
	// word write takes the released page and whose byte write takes
	// the released byte array: both must read Empty where the old
	// owner wrote, and the word write must fire a flip.
	f.Add([]byte{
		1, 0, 0, 0, 16, 1,
		0, 0, 0, 0, 17, 2,
		5, 0, 0, 0, 0, 0,
		8, 0, 0, 0, 0, 0,
		1, 1, 0, 0, 32, 3,
		0, 1, 0, 0, 33, 4,
		6, 1, 0, 0, 16, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewStore()
		tags := tagPalette(st)
		next := func() uint32 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return uint32(b)
		}
		worlds := []*cloneWorld{newCloneWorld(NewShadow(st), 0)}
		for len(data) > 0 {
			op, w := next()%9, worlds[int(next())%len(worlds)]
			page := cloneFuzzPages[next()%uint32(len(cloneFuzzPages))]
			addr := page<<pageShift | (next()<<8|next())&pageMask
			tg := tags[int(next())%len(tags)]
			switch op {
			case 0:
				w.write(addr, 1, tg, func(sh *Shadow) { sh.Set(addr, tg) })
			case 1:
				w.write(addr, 4, tg, func(sh *Shadow) { sh.SetWord(addr, tg) })
			case 2:
				n := next() * 16
				w.write(addr, n, tg, func(sh *Shadow) { sh.SetRange(addr, n, tg) })
			case 3:
				n := next() * 16
				w.write(addr, n, Empty, func(sh *Shadow) { sh.SetRange(addr, n, Empty) })
			case 4:
				if len(worlds) < 6 {
					worlds = append(worlds, w.clone())
				}
			case 5:
				w.reset()
			case 6:
				if got, want := w.sh.GetWord(addr), w.union(addr, 4); got != want {
					t.Fatalf("GetWord(%#x) = %d, want %d", addr, got, want)
				}
			case 7:
				n := next()
				if got, want := w.sh.GetRange(addr, n), w.union(addr, n); got != want {
					t.Fatalf("GetRange(%#x, %d) = %d, want %d", addr, n, got, want)
				}
			case 8:
				if len(worlds) < 6 {
					worlds = append(worlds, newCloneWorld(NewShadow(st), 0))
				} else {
					w.sh.Reset()
					worlds[slices.Index(worlds, w)] = newCloneWorld(NewShadow(st), 0)
				}
			}
			checkOwners(t, worlds)
		}
		got := make([]Tag, cloneFuzzSize)
		for i, w := range worlds {
			for off := range got {
				got[off] = w.sh.Get(cloneFuzzBase + uint32(off))
			}
			if !slices.Equal(got, w.tags) {
				off := 0
				for got[off] == w.tags[off] {
					off++
				}
				t.Fatalf("world %d: byte %#x = %d, want %d", i, cloneFuzzBase+off, got[off], w.tags[off])
			}
			for idx := uint32(cloneFuzzFirst); idx <= cloneFuzzLast; idx++ {
				if got, want := w.sh.PageClean(idx), w.pop[idx-cloneFuzzFirst] == 0; got != want {
					t.Fatalf("world %d: PageClean(%#x) = %v, want %v", i, idx, got, want)
				}
			}
			if got := w.sh.Pages(); got != len(w.pages) {
				t.Fatalf("world %d: %d pages allocated, want %d", i, got, len(w.pages))
			}
			if got := w.sh.FlipGen(); got != w.flipGen {
				t.Fatalf("world %d: FlipGen = %d, want %d", i, got, w.flipGen)
			}
			if w.heard != w.wantHeard {
				t.Fatalf("world %d: listener heard %d flips, want %d", i, w.heard, w.wantHeard)
			}
		}
	})
}
