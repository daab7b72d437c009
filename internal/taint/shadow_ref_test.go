package taint

import (
	"fmt"
	"math/rand"
	"testing"
)

// refShadow is the naive per-byte reference implementation of the
// Shadow semantics: a plain map from address to tag. The word-granular
// fast paths must be observationally identical to it.
type refShadow struct {
	store *Store
	tags  map[uint32]Tag
}

func newRefShadow(st *Store) *refShadow {
	return &refShadow{store: st, tags: make(map[uint32]Tag)}
}

func (r *refShadow) Get(addr uint32) Tag { return r.tags[addr] }

func (r *refShadow) Set(addr uint32, t Tag) {
	if t == Empty {
		delete(r.tags, addr)
		return
	}
	r.tags[addr] = t
}

func (r *refShadow) SetRange(addr, n uint32, t Tag) {
	for i := uint32(0); i < n; i++ {
		r.Set(addr+i, t)
	}
}

func (r *refShadow) GetRange(addr, n uint32) Tag {
	out := Empty
	for i := uint32(0); i < n; i++ {
		out = r.store.Union(out, r.Get(addr+i))
	}
	return out
}

func (r *refShadow) GetWord(addr uint32) Tag    { return r.GetRange(addr, 4) }
func (r *refShadow) SetWord(addr uint32, t Tag) { r.SetRange(addr, 4, t) }

func (r *refShadow) Copy(dst, src, n uint32) {
	if dst == src || n == 0 {
		return
	}
	if dst < src {
		for i := uint32(0); i < n; i++ {
			r.Set(dst+i, r.Get(src+i))
		}
		return
	}
	for i := n; i > 0; i-- {
		r.Set(dst+i-1, r.Get(src+i-1))
	}
}

func (r *refShadow) Clone() *refShadow {
	out := newRefShadow(r.store)
	for a, t := range r.tags {
		out.tags[a] = t
	}
	return out
}

// refWorld is the address window the property tests roam over: three
// pages plus both boundary straddles.
const refWindow = 3 * pageSize

// checkEquiv asserts the fast shadow and the reference agree on every
// byte of the window and on a sweep of word reads (both alignments).
func checkEquiv(t *testing.T, step string, sh *Shadow, ref *refShadow) {
	t.Helper()
	base := uint32(0x10000)
	for a := uint32(0); a < refWindow; a++ {
		if got, want := sh.Get(base+a), ref.Get(base+a); got != want {
			t.Fatalf("%s: byte %#x = %d, want %d", step, base+a, got, want)
		}
	}
	for a := uint32(0); a+4 <= refWindow; a += 3 { // hits all alignments
		if got, want := sh.GetWord(base+a), ref.GetWord(base+a); got != want {
			t.Fatalf("%s: word %#x = %d, want %d", step, base+a, got, want)
		}
	}
}

// tagsFor builds a small palette of tags, including Empty and a
// multi-source union.
func tagPalette(st *Store) []Tag {
	a := st.Of(Source{File, "a"})
	b := st.Of(Source{Socket, "b"})
	c := st.Of(Source{Binary, "c"})
	d := st.Of(Source{UserInput, "stdin"})
	return []Tag{Empty, a, b, c, d, st.Union(a, b), st.Union(c, d)}
}

// TestShadowEquivAlignedWords drives aligned word traffic and checks
// exact equivalence (the pure word-mode fast path).
func TestShadowEquivAlignedWords(t *testing.T) {
	st := NewStore()
	sh, ref := NewShadow(st), newRefShadow(st)
	tags := tagPalette(st)
	rng := rand.New(rand.NewSource(1))
	base := uint32(0x10000)
	for i := 0; i < 4000; i++ {
		a := base + uint32(rng.Intn(refWindow/4-1))*4
		tg := tags[rng.Intn(len(tags))]
		sh.SetWord(a, tg)
		ref.SetWord(a, tg)
	}
	checkEquiv(t, "aligned words", sh, ref)
	if sh.bytePages() != 0 {
		t.Errorf("aligned word traffic degraded %d pages to byte mode", sh.bytePages())
	}
}

// TestShadowEquivUnalignedWords mixes aligned and unaligned word
// accesses, including page-straddling ones.
func TestShadowEquivUnalignedWords(t *testing.T) {
	st := NewStore()
	sh, ref := NewShadow(st), newRefShadow(st)
	tags := tagPalette(st)
	rng := rand.New(rand.NewSource(2))
	base := uint32(0x10000)
	for i := 0; i < 4000; i++ {
		a := base + uint32(rng.Intn(refWindow-4))
		tg := tags[rng.Intn(len(tags))]
		if rng.Intn(2) == 0 {
			sh.SetWord(a, tg)
			ref.SetWord(a, tg)
		} else {
			if got, want := sh.GetWord(a), ref.GetWord(a); got != want {
				t.Fatalf("GetWord(%#x) = %d, want %d", a, got, want)
			}
		}
	}
	checkEquiv(t, "unaligned words", sh, ref)
}

// TestShadowEquivByteWordInterleave models MOVB traffic into
// word-tagged pages: the degrade path.
func TestShadowEquivByteWordInterleave(t *testing.T) {
	st := NewStore()
	sh, ref := NewShadow(st), newRefShadow(st)
	tags := tagPalette(st)
	rng := rand.New(rand.NewSource(3))
	base := uint32(0x10000)
	for i := 0; i < 6000; i++ {
		tg := tags[rng.Intn(len(tags))]
		switch rng.Intn(4) {
		case 0: // aligned word store
			a := base + uint32(rng.Intn(refWindow/4-1))*4
			sh.SetWord(a, tg)
			ref.SetWord(a, tg)
		case 1: // byte store (MOVB)
			a := base + uint32(rng.Intn(refWindow))
			sh.Set(a, tg)
			ref.Set(a, tg)
		case 2: // byte read
			a := base + uint32(rng.Intn(refWindow))
			if got, want := sh.Get(a), ref.Get(a); got != want {
				t.Fatalf("Get(%#x) = %d, want %d", a, got, want)
			}
		case 3: // word read, any alignment
			a := base + uint32(rng.Intn(refWindow-4))
			if got, want := sh.GetWord(a), ref.GetWord(a); got != want {
				t.Fatalf("GetWord(%#x) = %d, want %d", a, got, want)
			}
		}
	}
	checkEquiv(t, "byte/word interleave", sh, ref)
}

// TestShadowEquivRanges drives SetRange/GetRange/ClearRange with
// arbitrary offsets and lengths, crossing page boundaries.
func TestShadowEquivRanges(t *testing.T) {
	st := NewStore()
	sh, ref := NewShadow(st), newRefShadow(st)
	tags := tagPalette(st)
	rng := rand.New(rand.NewSource(4))
	base := uint32(0x10000)
	for i := 0; i < 1500; i++ {
		a := base + uint32(rng.Intn(refWindow-1))
		n := uint32(rng.Intn(2 * pageSize))
		if a+n > base+refWindow {
			n = base + refWindow - a
		}
		tg := tags[rng.Intn(len(tags))]
		switch rng.Intn(3) {
		case 0:
			sh.SetRange(a, n, tg)
			ref.SetRange(a, n, tg)
		case 1:
			sh.ClearRange(a, n)
			ref.SetRange(a, n, Empty)
		case 2:
			if got, want := sh.GetRange(a, n), ref.GetRange(a, n); got != want {
				t.Fatalf("GetRange(%#x,%d) = %d, want %d", a, n, got, want)
			}
		}
	}
	checkEquiv(t, "ranges", sh, ref)
}

// TestShadowEquivCopyOverlap checks Copy over overlapping ranges in
// both directions, across mixed-mode pages.
func TestShadowEquivCopyOverlap(t *testing.T) {
	st := NewStore()
	sh, ref := NewShadow(st), newRefShadow(st)
	tags := tagPalette(st)
	rng := rand.New(rand.NewSource(5))
	base := uint32(0x10000)
	// Seed mixed word/byte state.
	for i := 0; i < 2000; i++ {
		a := base + uint32(rng.Intn(refWindow))
		tg := tags[rng.Intn(len(tags))]
		if rng.Intn(2) == 0 && a&3 == 0 {
			sh.SetWord(a, tg)
			ref.SetWord(a, tg)
		} else {
			sh.Set(a, tg)
			ref.Set(a, tg)
		}
	}
	for i := 0; i < 300; i++ {
		src := base + uint32(rng.Intn(refWindow/2))
		n := uint32(rng.Intn(200))
		// Bias toward overlapping moves in both directions.
		dst := src + uint32(rng.Intn(300)) - 150
		if dst < base {
			dst = base
		}
		if dst+n > base+refWindow || src+n > base+refWindow {
			continue
		}
		sh.Copy(dst, src, n)
		ref.Copy(dst, src, n)
	}
	checkEquiv(t, "copy overlap", sh, ref)
}

// TestShadowEquivCloneDiverge clones mid-stream and checks parent and
// child diverge independently while both stay equivalent to their
// references.
func TestShadowEquivCloneDiverge(t *testing.T) {
	st := NewStore()
	sh, ref := NewShadow(st), newRefShadow(st)
	tags := tagPalette(st)
	base := uint32(0x10000)
	simple := func(s *Shadow, r *refShadow, seed int64, n int) {
		rr := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			a := base + uint32(rr.Intn(refWindow-4))
			tg := tags[rr.Intn(len(tags))]
			switch rr.Intn(3) {
			case 0:
				s.Set(a, tg)
				r.Set(a, tg)
			case 1:
				s.SetWord(a, tg)
				r.SetWord(a, tg)
			case 2:
				ln := uint32(rr.Intn(64))
				s.SetRange(a, ln, tg)
				r.SetRange(a, ln, tg)
			}
		}
	}
	simple(sh, ref, 60, 3000)
	child, childRef := sh.Clone(), ref.Clone()
	checkEquiv(t, "clone snapshot", child, childRef)
	// Diverge parent and child with different streams.
	simple(sh, ref, 61, 2000)
	simple(child, childRef, 62, 2000)
	checkEquiv(t, "parent after diverge", sh, ref)
	checkEquiv(t, "child after diverge", child, childRef)
}

// TestShadowEquivAliasingPages roams six pages that share TLB slots
// (0x40/0x44/0x48 and 0x41/0x45), so most accesses evict a slot
// another page was using, and checks mixed traffic — including words
// and ranges that run over into the next page — against the reference.
func TestShadowEquivAliasingPages(t *testing.T) {
	st := NewStore()
	sh, ref := NewShadow(st), newRefShadow(st)
	tags := tagPalette(st)
	rng := rand.New(rand.NewSource(7))
	pages := []uint32{0x40, 0x44, 0x48, 0x41, 0x45, 0x46}
	addr := func() uint32 {
		return pages[rng.Intn(len(pages))]<<pageShift + uint32(rng.Intn(pageSize))
	}
	for i := 0; i < 8000; i++ {
		tg := tags[rng.Intn(len(tags))]
		switch rng.Intn(6) {
		case 0: // aligned word store
			a := addr() &^ 3
			sh.SetWord(a, tg)
			ref.SetWord(a, tg)
		case 1: // byte store or unaligned word store
			a := addr()
			if rng.Intn(2) == 0 {
				sh.Set(a, tg)
				ref.Set(a, tg)
			} else {
				sh.SetWord(a, tg)
				ref.SetWord(a, tg)
			}
		case 2: // range store or clear
			a := addr()
			n := uint32(rng.Intn(64))
			sh.SetRange(a, n, tg)
			ref.SetRange(a, n, tg)
		case 3:
			a := addr()
			if got, want := sh.Get(a), ref.Get(a); got != want {
				t.Fatalf("Get(%#x) = %d, want %d", a, got, want)
			}
		case 4:
			a := addr()
			if got, want := sh.GetWord(a), ref.GetWord(a); got != want {
				t.Fatalf("GetWord(%#x) = %d, want %d", a, got, want)
			}
		case 5:
			a := addr()
			n := uint32(rng.Intn(64))
			if got, want := sh.GetRange(a, n), ref.GetRange(a, n); got != want {
				t.Fatalf("GetRange(%#x,%d) = %d, want %d", a, n, got, want)
			}
		}
	}
	for _, idx := range pages {
		for a := idx << pageShift; a < (idx+2)<<pageShift; a++ { // and the run-over page
			if got, want := sh.Get(a), ref.Get(a); got != want {
				t.Fatalf("byte %#x = %d, want %d", a, got, want)
			}
		}
	}
	if _, mi := sh.TLBStats(); mi == 0 {
		t.Fatal("no TLB misses: the pages did not contend for slots")
	}
}

// TestShadowClearRangeSkipsCleanPages asserts the satellite fix: an
// Empty-tag range over unallocated pages allocates nothing (and, by
// construction, no longer probes the page map per byte).
func TestShadowClearRangeSkipsCleanPages(t *testing.T) {
	st := NewStore()
	sh := NewShadow(st)
	sh.ClearRange(0, 16*pageSize)
	if sh.Pages() != 0 {
		t.Fatalf("ClearRange over clean memory allocated %d pages", sh.Pages())
	}
	sh.SetRange(5*pageSize, 2*pageSize, Empty)
	if sh.Pages() != 0 {
		t.Fatalf("SetRange(Empty) over clean memory allocated %d pages", sh.Pages())
	}
}

// TestShadowWordModeStaysWordMode asserts aligned traffic never pays
// the byte-mode cost, and that a MOVB write with the same tag does not
// degrade the page.
func TestShadowWordModeStaysWordMode(t *testing.T) {
	st := NewStore()
	sh := NewShadow(st)
	tg := st.Of(Source{File, "f"})
	for a := uint32(0); a < pageSize; a += 4 {
		sh.SetWord(a, tg)
	}
	sh.Set(8, tg) // same tag: must not degrade
	if sh.bytePages() != 0 {
		t.Fatal("same-tag byte write degraded the page")
	}
	other := st.Of(Source{Socket, "s"})
	sh.Set(8, other) // differing tag: must degrade, stay correct
	if sh.bytePages() != 1 {
		t.Fatal("differing byte write did not degrade the page")
	}
	if sh.Get(8) != other || sh.Get(9) != tg || sh.GetWord(8) != st.Union(tg, other) {
		t.Fatal("degraded page returned wrong tags")
	}
}

func BenchmarkShadowAlignedWords(b *testing.B) {
	st := NewStore()
	sh := NewShadow(st)
	tg := st.Of(Source{File, "bench"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := (uint32(i) * 4) & 0xFFFF
		sh.SetWord(a, tg)
		_ = sh.GetWord(a)
	}
}

func ExampleShadow_wordGranular() {
	st := NewStore()
	sh := NewShadow(st)
	f := st.Of(Source{File, "/etc/passwd"})
	sh.SetWord(0x1000, f)
	fmt.Println(st.String(sh.GetWord(0x1000)))
	// Output: {FILE:"/etc/passwd"}
}
