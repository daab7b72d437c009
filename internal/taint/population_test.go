package taint

import "testing"

// pagePop returns the tainted-byte population of page idx, checking
// that PageClean agrees with it.
func pagePop(t *testing.T, sh *Shadow, idx uint32) int32 {
	t.Helper()
	var pop int32
	if p := sh.pages[idx]; p != nil {
		pop = p.pop
	}
	if sh.PageClean(idx) != (pop == 0) {
		t.Fatalf("page %#x: PageClean=%v with pop=%d", idx, sh.PageClean(idx), pop)
	}
	return pop
}

// TestShadowPopulation exercises the per-page tainted-byte population
// behind the clean tier's verdicts (PageClean): it tracks exactly the
// number of the page's bytes carrying a non-Empty tag, across word
// and byte representations — redundant writes and tag changes between
// two non-Empty tags do not move it.
func TestShadowPopulation(t *testing.T) {
	st, sh := newTestShadow()
	if pop := pagePop(t, sh, 0); pop != 0 {
		t.Fatalf("fresh shadow: pop=%d", pop)
	}
	tag := st.Of(Source{File, "f"})
	tag2 := st.Of(Source{Socket, "s"})

	sh.Set(0x100, tag)
	if pop := pagePop(t, sh, 0); pop != 1 {
		t.Fatalf("after one byte: pop=%d", pop)
	}
	sh.Set(0x100, tag)  // identical re-write
	sh.Set(0x100, tag2) // tag change between two non-Empty tags
	if pop := pagePop(t, sh, 0); pop != 1 {
		t.Fatalf("re-write/tag change: pop=%d, want 1", pop)
	}
	sh.Set(0x100, Empty)
	if pop := pagePop(t, sh, 0); pop != 0 {
		t.Fatalf("after clearing: pop=%d", pop)
	}

	// A fresh page, so the word write stays in word mode until the
	// byte split degrades it.
	sh.SetWord(0x2200, tag)
	sh.SetWord(0x2200, tag) // redundant
	if pop := pagePop(t, sh, 2); pop != 4 || sh.BytePages() != 1 {
		t.Fatalf("word write: pop=%d byte pages=%d, want 4/1", pop, sh.BytePages())
	}
	sh.Set(0x2201, tag2) // splits the word into byte granularity
	if pop := pagePop(t, sh, 2); pop != 4 || sh.BytePages() != 2 {
		t.Fatalf("byte split: pop=%d byte pages=%d, want 4/2", pop, sh.BytePages())
	}
	sh.SetWord(0x2200, Empty)
	if pop := pagePop(t, sh, 2); pop != 0 {
		t.Fatalf("word clear: pop=%d", pop)
	}

	sh.SetRange(0xFF0, 32, tag) // crosses a page boundary
	if p0, p1 := pagePop(t, sh, 0), pagePop(t, sh, 1); p0 != 16 || p1 != 16 {
		t.Fatalf("range write: pops %d/%d, want 16/16", p0, p1)
	}
	sh.SetRange(0xFF0, 16, Empty)
	if p0, p1 := pagePop(t, sh, 0), pagePop(t, sh, 1); p0 != 0 || p1 != 16 {
		t.Fatalf("half clear: pops %d/%d, want 0/16", p0, p1)
	}
	cl := sh.Clone()
	if p0, p1 := pagePop(t, cl, 0), pagePop(t, cl, 1); p0 != 0 || p1 != 16 {
		t.Fatalf("clone: pops %d/%d, want 0/16", p0, p1)
	}
	sh.Reset()
	if pop := pagePop(t, sh, 1); pop != 0 {
		t.Fatalf("reset: pop=%d", pop)
	}
	if pop := pagePop(t, cl, 1); pop != 16 {
		t.Fatal("reset of the original touched the clone")
	}
}

// TestShadowSourceAfterCachedNil is the negative-TLB regression test
// for the clean tier's re-instrumentation moment: a lookup that caches
// a nil-page TLB entry must not mask a source tag written to that page
// immediately afterwards — the exact sequence of a `read`/`recv`
// source arriving while a cached clean verdict still covers the page.
func TestShadowSourceAfterCachedNil(t *testing.T) {
	st, sh := newTestShadow()
	tag := st.Of(Source{UserInput, "stdin"})

	// Prime the TLB with the page's nil entry (population zero).
	if sh.GetWord(0x3000) != Empty {
		t.Fatal("fresh page not empty")
	}
	g := sh.FlipGen()
	// The source lands on the same page: zero -> nonzero population.
	sh.SetRange(0x3000, 8, tag)
	if sh.PageClean(0x3) || sh.FlipGen() == g {
		t.Fatalf("source not accounted: clean=%v flip gen %d->%d", sh.PageClean(0x3), g, sh.FlipGen())
	}
	// The very next lookup must see the tag, not the cached nil.
	if got := sh.GetWord(0x3000); got != tag {
		t.Fatalf("GetWord after cached-nil lookup = %d, want %d", got, tag)
	}
	if got := sh.Get(0x3004); got != tag {
		t.Fatalf("Get after cached-nil lookup = %d, want %d", got, tag)
	}

	// Same sequence through the word path (Set/SetWord share pageW).
	if sh.Get(0x5000) != Empty {
		t.Fatal("fresh page not empty")
	}
	sh.SetWord(0x5000, tag)
	if got := sh.GetWord(0x5000); got != tag {
		t.Fatalf("SetWord after cached-nil lookup = %d, want %d", got, tag)
	}

	// Across aliasing slots: page 0x6 caches nil in its slot, then the
	// source lands on page 0x6+shadowTLBWays, which shares that slot.
	// The flip must register, each page must read back as itself, and
	// the evicted negative entry must not resurface for either.
	hi := uint32(0x6 + shadowTLBWays)
	if sh.GetWord(0x6000) != Empty {
		t.Fatal("fresh page not empty")
	}
	g = sh.FlipGen()
	sh.SetRange(hi<<pageShift, 8, tag)
	if sh.PageClean(hi) || sh.FlipGen() == g {
		t.Fatalf("aliasing source not accounted: clean=%v flip gen %d->%d", sh.PageClean(hi), g, sh.FlipGen())
	}
	if got := sh.GetWord(hi << pageShift); got != tag {
		t.Fatalf("GetWord on aliasing page = %d, want %d", got, tag)
	}
	if got := sh.GetWord(0x6000); got != Empty {
		t.Fatalf("page 0x6 resolved to its alias: %d", got)
	}
	// Page 0x6 now holds the slot's negative entry again; a source on
	// it must flip and read back too.
	g = sh.FlipGen()
	sh.SetWord(0x6000, tag)
	if sh.PageClean(0x6) || sh.FlipGen() == g || sh.GetWord(0x6000) != tag || sh.GetWord(hi<<pageShift) != tag {
		t.Fatalf("source after re-cached nil: clean=%v flip gen %d->%d", sh.PageClean(0x6), g, sh.FlipGen())
	}
}

// TestShadowPageFlipSeam pins down the clean tier's invalidation seam
// on top of the cached-nil regression above: a verdict cached while a
// page's population is zero is only sound until that page flips
// zero→nonzero, so FlipGen must advance — and the OnPageFlip listener
// must fire, synchronously and with the right page index — on exactly
// those transitions and on nothing else.
func TestShadowPageFlipSeam(t *testing.T) {
	st, sh := newTestShadow()
	tag := st.Of(Source{Socket, "attacker:6666"})
	tag2 := st.Of(Source{File, "f"})

	var flips []uint32
	sh.OnPageFlip(func(idx uint32) { flips = append(flips, idx) })

	// The clean-tier sequence: probe the page (population zero, verdict
	// cacheable), then a source lands on it.
	if !sh.PageClean(0x3) || sh.GetWord(0x3000) != Empty {
		t.Fatal("fresh page not clean")
	}
	g := sh.FlipGen()
	sh.SetRange(0x3000, 8, tag)
	if sh.FlipGen() == g {
		t.Fatal("zero->nonzero population did not advance FlipGen")
	}
	if len(flips) != 1 || flips[0] != 0x3 {
		t.Fatalf("flip listener saw %v, want [0x3]", flips)
	}
	if sh.PageClean(0x3) {
		t.Fatal("tainted page still reports clean")
	}

	// Writes confined to an already-dirty page are not flips: the
	// cached verdict was already dead.
	g = sh.FlipGen()
	sh.Set(0x3100, tag2)
	if sh.FlipGen() != g || len(flips) != 1 {
		t.Fatalf("dirty-page write flipped: gen %d->%d, flips %v", g, sh.FlipGen(), flips)
	}

	// Draining the page back to zero is not a flip either (clean
	// verdicts can only be invalidated by taint arriving, never by it
	// leaving) — but the *next* zero->nonzero transition must fire
	// again, or a verdict cached in the clean window would go stale.
	sh.SetRange(0x3000, 0x1000, Empty)
	if !sh.PageClean(0x3) || sh.FlipGen() != g || len(flips) != 1 {
		t.Fatalf("drain misbehaved: clean=%v flips=%v", sh.PageClean(0x3), flips)
	}
	sh.Set(0x3000, tag)
	if sh.FlipGen() == g || len(flips) != 2 || flips[1] != 0x3 {
		t.Fatalf("re-flip not seen: gen %d->%d flips %v", g, sh.FlipGen(), flips)
	}

	// Reset (execve) bumps the flip generation wholesale, and a clone
	// (fork) carries the generation but not the parent's listener.
	cl := sh.Clone()
	if cl.FlipGen() != sh.FlipGen() {
		t.Fatalf("clone flip gen %d, want %d", cl.FlipGen(), sh.FlipGen())
	}
	cl.Set(0x9000, tag)
	if len(flips) != 2 {
		t.Fatal("clone write fired the parent's listener")
	}
	g = sh.FlipGen()
	sh.Reset()
	if sh.FlipGen() == g {
		t.Fatal("Reset did not advance FlipGen")
	}
}
