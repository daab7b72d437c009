package taint

import "testing"

// The shadow's page TLB mirrors isa.Memory's: direct-mapped by the low
// page-index bits, cold in a Clone, cleared by Reset. Unlike Memory's
// it also caches "unallocated", so these tests pin down that no cached
// entry — positive or negative — ever outlives the page table it
// describes.

func TestShadowCloneColdTLBIsolated(t *testing.T) {
	st, sh := newTestShadow()
	a, b, c := st.Of(Source{File, "a"}), st.Of(Source{File, "b"}), st.Of(Source{File, "c"})
	sh.SetWord(0x3000, a)
	_ = sh.GetWord(0x3000) // warm the TLB
	cl := sh.Clone()
	if pr, mi := cl.TLBStats(); pr != 0 || mi != 0 {
		t.Fatalf("clone inherited TLB counters %d/%d", pr, mi)
	}
	cl.SetWord(0x3000, b)
	if sh.GetWord(0x3000) != a {
		t.Fatal("clone write leaked into parent")
	}
	sh.SetWord(0x3000, c)
	if cl.GetWord(0x3000) != b {
		t.Fatal("parent write leaked into clone")
	}
}

func TestShadowResetInvalidatesTLB(t *testing.T) {
	st, sh := newTestShadow()
	tag := st.Of(Source{Socket, "s"})
	// A positive entry in slot 0 and a negative one in slot 1.
	sh.SetWord(0x4000, tag)
	_ = sh.GetWord(0x4000)
	_ = sh.GetWord(0x5000)
	sh.Reset()
	if sh.GetWord(0x4000) != Empty {
		t.Fatal("read-after-Reset saw stale TLB page")
	}
	if sh.Pages() != 0 {
		t.Fatal("Reset left pages")
	}
	// The page allocated after Reset must be the one reads resolve to.
	sh.SetWord(0x5000, tag)
	if sh.GetWord(0x5000) != tag || sh.Pages() != 1 {
		t.Fatal("write after Reset hidden by a stale negative entry")
	}
}

// TestShadowTLBSlotAliasing: pages i and i+4 share a slot, so
// alternating between them misses every time, yet each access still
// resolves to its own page.
func TestShadowTLBSlotAliasing(t *testing.T) {
	st, sh := newTestShadow()
	a, b := st.Of(Source{File, "a"}), st.Of(Source{File, "b"})
	const i = 0x20
	pa, pb := uint32(i)<<pageShift, uint32(i+shadowTLBWays)<<pageShift
	sh.SetWord(pa+8, a)
	sh.SetWord(pb+8, b)
	p0, m0 := sh.TLBStats()
	for r := 0; r < 10; r++ {
		if got := sh.GetWord(pa + 8); got != a {
			t.Fatalf("round %d: page %#x read %d, want %d", r, i, got, a)
		}
		if got := sh.GetWord(pb + 8); got != b {
			t.Fatalf("round %d: page %#x read %d, want %d", r, i+shadowTLBWays, got, b)
		}
	}
	if pr, mi := sh.TLBStats(); pr-p0 != 20 || mi-m0 != 20 {
		t.Fatalf("aliasing pages: %d probes, %d misses; want 20, 20", pr-p0, mi-m0)
	}
}

// TestShadowTLBRotation models the taint kernels' hot loop — read A,
// read B, write D, each on its own page in its own slot. Each page
// misses once, on its first touch; after that warm-up the rotation
// stays resident, and every access, the allocating first write to D
// included, is exactly one probe.
func TestShadowTLBRotation(t *testing.T) {
	st, sh := newTestShadow()
	a, b := st.Of(Source{File, "a"}), st.Of(Source{Socket, "b"})
	const (
		pA    = 0x1000 << pageShift
		pB    = 0x1101 << pageShift
		pD    = 0x1202 << pageShift
		iters = 100
	)
	sh.SetRange(pA, 4*iters, a)
	sh.SetRange(pB, 4*iters, b)
	for k := uint32(0); k < iters; k++ {
		off := k * 4
		sh.SetWord(pD+off, st.Union(sh.GetWord(pA+off), sh.GetWord(pB+off)))
	}
	if pr, mi := sh.TLBStats(); pr != 2+3*iters || mi != 3 {
		t.Fatalf("A/B/D rotation: %d probes, %d misses; want %d, 3", pr, mi, 2+3*iters)
	}
	if sh.GetWord(pD+4) != st.Union(a, b) || sh.Pages() != 3 {
		t.Fatal("rotation lost the destination tags")
	}
}

// TestShadowAllocatingWriteProbesOnce: a write that allocates its page
// is one TLB probe and one miss, through every write entry point.
func TestShadowAllocatingWriteProbesOnce(t *testing.T) {
	st, sh := newTestShadow()
	tag := st.Of(Source{File, "f"})
	sh.Set(0x1000, tag)
	sh.SetWord(0x2000, tag)
	sh.SetRange(0x3ffe, 4, tag) // two pages, two probes
	if pr, mi := sh.TLBStats(); pr != 4 || mi != 4 {
		t.Fatalf("allocating writes: %d probes, %d misses; want 4, 4", pr, mi)
	}
	if sh.Pages() != 4 {
		t.Fatalf("allocating writes made %d pages, want 4", sh.Pages())
	}
}
