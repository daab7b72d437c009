package isa

import "testing"

// drainFreePages empties the page free list, so the next release is
// the only page on it.
func drainFreePages() {
	for {
		select {
		case <-freePages:
		default:
			return
		}
	}
}

// TestMemoryRecyclesReleasedPage: the last owner's Reset puts a page's
// bytes on the free list, the next fresh Memory's first write takes
// them back, and they read as zero everywhere the new owner has not
// written.
func TestMemoryRecyclesReleasedPage(t *testing.T) {
	drainFreePages()
	old := NewMemory()
	old.Store32(0x5000, 0xdeadbeef)
	old.Store8(0x5fff, 0x7f)
	data := old.pages[5].data
	old.Reset()

	m := NewMemory()
	m.Store8(0x9010, 1)
	if got := m.pages[9].data; got != data {
		t.Fatal("released page was not recycled")
	}
	for a := uint32(0x9000); a < 0xa000; a++ {
		want := byte(0)
		if a == 0x9010 {
			want = 1
		}
		if m.Load8(a) != want {
			t.Fatalf("recycled page byte %#x = %#x, want %#x", a, m.Load8(a), want)
		}
	}
}

// TestMemorySharedPageNotRecycled: a page still held by a live clone
// stays off the free list when the other owner resets, so a fresh
// Memory cannot take it.
func TestMemorySharedPageNotRecycled(t *testing.T) {
	drainFreePages()
	parent := NewMemory()
	parent.Store32(0x3000, 0x11223344)
	child := parent.Clone()
	p := parent.pages[3]
	parent.Reset()
	if len(freePages) != 0 || p.refs != 1 || p.data == nil {
		t.Fatalf("shared page released: %d free, refs %d", len(freePages), p.refs)
	}

	fresh := NewMemory()
	fresh.Store32(0x3000, 0x55667788)
	if fresh.pages[3].data == p.data {
		t.Fatal("fresh Memory took a page a live clone maps")
	}
	if got := child.Load32(0x3000); got != 0x11223344 {
		t.Fatalf("child reads %#x after parent reset, want 0x11223344", got)
	}

	// The last owner's reset releases it; a stale reference to the
	// released page then panics instead of aliasing its next owner.
	child.Reset()
	if p.data != nil || len(freePages) != 1 {
		t.Fatalf("last reset did not release the page: %d free", len(freePages))
	}
	stale := NewMemory()
	stale.pages = map[uint32]*memPage{3: p}
	defer func() {
		if recover() == nil {
			t.Fatal("a released page read without panicking")
		}
	}()
	stale.Load32(0x3000)
}
