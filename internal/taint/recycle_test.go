package taint

import "testing"

// drainFreeLists empties both shadow free lists, so the next release
// is the only page (and byte array) on them.
func drainFreeLists() {
	for {
		select {
		case <-freeShadowPages:
		case <-freeByteTags:
		default:
			return
		}
	}
}

// TestShadowRecycledPageStartsClean: a byte-mode page released by
// Reset comes back to a fresh shadow in word mode with pop 0, so its
// first tainting write fires the page flip as on a new page, and its
// byte array, recycled on its own list, reads all-Empty when the page
// degrades again.
func TestShadowRecycledPageStartsClean(t *testing.T) {
	drainFreeLists()
	st, old := newTestShadow()
	a, b := st.Of(Source{File, "a"}), st.Of(Source{Socket, "b"})
	old.SetRange(0x7000, pageSize, a)
	old.Set(0x7001, b) // splits a word: byte mode
	if old.BytePages() != 1 {
		t.Fatal("setup: page did not degrade")
	}
	page, bytes := old.pages[7], old.pages[7].bytes
	old.Reset()

	sh := NewShadow(st)
	var flips []uint32
	sh.OnPageFlip(func(idx uint32) { flips = append(flips, idx) })
	sh.SetWord(0x9010, b)
	p := sh.pages[9]
	if p != page {
		t.Fatal("released page was not recycled")
	}
	if p.bytes != nil || p.idx != 9 || p.pop != 4 || p.refs != 1 {
		t.Fatalf("recycled page: byte mode %v, idx %#x, pop %d, refs %d", p.bytes != nil, p.idx, p.pop, p.refs)
	}
	if len(flips) != 1 || flips[0] != 9 {
		t.Fatalf("flip listener saw %v, want [0x9]", flips)
	}
	sh.Set(0x9021, a)
	if p.bytes != bytes {
		t.Fatal("released byte array was not recycled")
	}
	for addr := uint32(0x9000); addr < 0xa000; addr++ {
		want := Empty
		switch {
		case addr >= 0x9010 && addr < 0x9014:
			want = b
		case addr == 0x9021:
			want = a
		}
		if got := sh.Get(addr); got != want {
			t.Fatalf("recycled page byte %#x = %d, want %d", addr, got, want)
		}
	}
	if p.pop != 5 {
		t.Fatalf("recycled page pop = %d, want 5", p.pop)
	}
}

// TestShadowSharedPageNotRecycled: a page still held by a live clone
// stays off the free lists when the other owner resets, so a fresh
// shadow cannot take it.
func TestShadowSharedPageNotRecycled(t *testing.T) {
	drainFreeLists()
	st, parent := newTestShadow()
	a, b := st.Of(Source{File, "a"}), st.Of(Source{Socket, "b"})
	parent.SetWord(0x3000, a)
	parent.Set(0x3005, b)
	child := parent.Clone()
	p := parent.pages[3]
	parent.Reset()
	if len(freeShadowPages) != 0 || len(freeByteTags) != 0 || p.refs != 1 {
		t.Fatalf("shared page released: %d pages and %d byte arrays free, refs %d",
			len(freeShadowPages), len(freeByteTags), p.refs)
	}

	fresh := NewShadow(st)
	fresh.Set(0x3005, a)
	if q := fresh.pages[3]; q == p || q.bytes == p.bytes {
		t.Fatal("fresh shadow took a page a live clone maps")
	}
	if child.GetWord(0x3000) != a || child.Get(0x3005) != b {
		t.Fatal("child's tags changed after the parent reset")
	}
	child.Reset()
	if len(freeShadowPages) != 1 || len(freeByteTags) != 1 {
		t.Fatalf("last reset did not release the page: %d pages and %d byte arrays free",
			len(freeShadowPages), len(freeByteTags))
	}
}
