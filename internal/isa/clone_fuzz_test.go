package isa

import (
	"bytes"
	"math/rand"
	"testing"
)

// memFuzzPages are the pages the fuzzer's addresses start in: two pairs
// that alias TLB slots, so accesses evict entries whose writable bits
// matter. Words and byte runs spill into the following page, so the
// reference window runs from the first of them to memFuzzLast.
var memFuzzPages = [...]uint32{0x40, 0x41, 0x44, 0x45}

const (
	memFuzzBase = 0x40 << memPageShift
	memFuzzLast = 0x46
	memFuzzSize = (memFuzzLast+1)<<memPageShift - memFuzzBase
)

// memWorld is one address space of a fork tree next to its deep-copy
// reference: the window's bytes and which of its pages writes
// allocated.
type memWorld struct {
	m     *Memory
	ref   []byte
	pages map[uint32]bool
}

func newMemWorld(m *Memory) *memWorld {
	return &memWorld{m: m, ref: make([]byte, memFuzzSize), pages: map[uint32]bool{}}
}

func (w *memWorld) clone() *memWorld {
	out := newMemWorld(w.m.Clone())
	copy(out.ref, w.ref)
	for idx := range w.pages {
		out.pages[idx] = true
	}
	return out
}

// store records a write of b at a in the reference.
func (w *memWorld) store(a uint32, b byte) {
	w.ref[a-memFuzzBase] = b
	w.pages[a>>memPageShift] = true
}

// checkOwners checks page ownership across the live worlds: every page
// one maps has bytes, its owner count is the number of worlds mapping
// it, and no two pages share bytes. A page recycled while still mapped
// fails one of the three.
func checkOwners(t *testing.T, worlds []*memWorld) {
	t.Helper()
	holders := map[*memPage]int32{}
	byData := map[*[memPageSize]byte]*memPage{}
	for i, w := range worlds {
		for idx, p := range w.m.pages {
			if p.data == nil {
				t.Fatalf("world %d maps released page %#x", i, idx)
			}
			if q := byData[p.data]; q != nil && q != p {
				t.Fatalf("world %d: page %#x shares its bytes with another page", i, idx)
			}
			byData[p.data] = p
			holders[p]++
		}
	}
	for p, n := range holders {
		if p.refs != n {
			t.Fatalf("page has %d owners, %d mapped", p.refs, n)
		}
	}
}

// FuzzCloneIsolation drives random byte, word and block stores, loads,
// Clone chains, Resets and fresh address spaces over a tree of
// copy-on-write address spaces. A fresh space's pages come from the
// free list that Resets feed. Each space is checked against a
// deep-copy reference (every byte, word loads, and the resident page
// count), and page ownership across the live spaces after every op.
func FuzzCloneIsolation(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	// Store to two pages that share a TLB slot, clone, reload the
	// first page into the parent's slot (a read refill must leave it
	// read-only), then store to it from the parent and to its next
	// word from the child. Each op is [op, world, page, offset hi,
	// offset lo, value].
	f.Add([]byte{
		1, 0, 0, 0, 16, 7,
		1, 0, 2, 0, 16, 8,
		3, 0, 0, 0, 0, 0,
		5, 0, 0, 0, 16, 0,
		1, 0, 0, 0, 16, 9,
		1, 1, 0, 0, 20, 10,
		4, 0, 0, 0, 0, 0,
		1, 1, 2, 0, 24, 11,
	})
	// Store, reset, then start a fresh address space whose first store
	// takes the released page from the free list: the word the old
	// owner wrote must read zero.
	f.Add([]byte{
		1, 0, 0, 0, 16, 7,
		4, 0, 0, 0, 0, 0,
		7, 0, 0, 0, 0, 0,
		0, 1, 0, 0, 20, 9,
		5, 1, 0, 0, 16, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() uint32 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return uint32(b)
		}
		worlds := []*memWorld{newMemWorld(NewMemory())}
		for len(data) > 0 {
			op, w := next()%8, worlds[int(next())%len(worlds)]
			page := memFuzzPages[next()%uint32(len(memFuzzPages))]
			addr := page<<memPageShift | (next()<<8|next())&memPageMask
			v := next()
			switch op {
			case 0:
				w.m.Store8(addr, byte(v))
				w.store(addr, byte(v))
			case 1:
				word := v*0x01010101 ^ addr
				w.m.Store32(addr, word)
				for i := uint32(0); i < 4; i++ {
					w.store(addr+i, byte(word>>(8*i)))
				}
			case 2:
				b := make([]byte, v*7)
				for i := range b {
					b[i] = byte(v + uint32(i))
				}
				w.m.WriteBytes(addr, b)
				for i := range b {
					w.store(addr+uint32(i), b[i])
				}
			case 3:
				if len(worlds) < 6 {
					worlds = append(worlds, w.clone())
				}
			case 4:
				w.m.Reset()
				*w = *newMemWorld(w.m)
			case 5:
				r := w.ref[addr-memFuzzBase:]
				want := uint32(r[0]) | uint32(r[1])<<8 | uint32(r[2])<<16 | uint32(r[3])<<24
				if got := w.m.Load32(addr); got != want {
					t.Fatalf("Load32(%#x) = %#x, want %#x", addr, got, want)
				}
			case 6:
				if got, want := w.m.ReadBytes(addr, v), w.ref[addr-memFuzzBase:][:v]; !bytes.Equal(got, want) {
					t.Fatalf("ReadBytes(%#x, %d) = %x, want %x", addr, v, got, want)
				}
			case 7:
				if len(worlds) < 6 {
					worlds = append(worlds, newMemWorld(NewMemory()))
				} else {
					w.m.Reset()
					*w = *newMemWorld(NewMemory())
				}
			}
			checkOwners(t, worlds)
		}
		for i, w := range worlds {
			if got := w.m.ReadBytes(memFuzzBase, memFuzzSize); !bytes.Equal(got, w.ref) {
				off := 0
				for got[off] == w.ref[off] {
					off++
				}
				t.Fatalf("world %d: byte %#x = %#x, want %#x", i, memFuzzBase+off, got[off], w.ref[off])
			}
			if got := w.m.Pages(); got != len(w.pages) {
				t.Fatalf("world %d: %d pages resident, want %d", i, got, len(w.pages))
			}
		}
	})
}
