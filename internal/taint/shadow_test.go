package taint

import (
	"math/rand"
	"testing"
)

func newTestShadow() (*Store, *Shadow) {
	st := NewStore()
	return st, NewShadow(st)
}

func TestShadowDefaultEmpty(t *testing.T) {
	_, sh := newTestShadow()
	if got := sh.Get(0x1000); got != Empty {
		t.Errorf("Get on fresh shadow = %d", got)
	}
	if sh.Pages() != 0 {
		t.Errorf("fresh shadow has %d pages", sh.Pages())
	}
}

func TestShadowSetGet(t *testing.T) {
	st, sh := newTestShadow()
	tag := st.Of(Source{File, "f"})
	sh.Set(0x1234, tag)
	if got := sh.Get(0x1234); got != tag {
		t.Errorf("Get = %d, want %d", got, tag)
	}
	if got := sh.Get(0x1235); got != Empty {
		t.Errorf("neighbor byte = %d, want Empty", got)
	}
}

func TestShadowSetEmptyNoAlloc(t *testing.T) {
	_, sh := newTestShadow()
	sh.Set(0x5000, Empty)
	if sh.Pages() != 0 {
		t.Errorf("Set(Empty) allocated a page")
	}
}

func TestShadowRange(t *testing.T) {
	st, sh := newTestShadow()
	tag := st.Of(Source{Socket, "s"})
	sh.SetRange(0xFF0, 32, tag) // crosses a page boundary at 0x1000
	for i := uint32(0); i < 32; i++ {
		if sh.Get(0xFF0+i) != tag {
			t.Fatalf("byte %d not tagged", i)
		}
	}
	if sh.Get(0xFEF) != Empty || sh.Get(0xFF0+32) != Empty {
		t.Error("range bled outside its bounds")
	}
	if sh.Pages() != 2 {
		t.Errorf("pages = %d, want 2", sh.Pages())
	}
}

func TestShadowGetRangeUnions(t *testing.T) {
	st, sh := newTestShadow()
	a := st.Of(Source{File, "a"})
	b := st.Of(Source{Binary, "b"})
	sh.Set(100, a)
	sh.Set(102, b)
	got := sh.GetRange(100, 4)
	if got != st.Union(a, b) {
		t.Errorf("GetRange = %s", st.String(got))
	}
}

func TestShadowWordOps(t *testing.T) {
	st, sh := newTestShadow()
	tag := st.Of(Source{Hardware, "cpuid"})
	sh.SetWord(0x2000, tag)
	if sh.GetWord(0x2000) != tag {
		t.Error("GetWord != SetWord tag")
	}
	if sh.Get(0x2003) != tag || sh.Get(0x2004) != Empty {
		t.Error("SetWord bounds wrong")
	}
}

func TestShadowClone(t *testing.T) {
	st, sh := newTestShadow()
	tag := st.Of(Source{UserInput, "stdin"})
	sh.Set(0x3000, tag)
	cl := sh.Clone()
	if cl.Get(0x3000) != tag {
		t.Error("clone missing tag")
	}
	// Mutating the clone must not affect the original.
	other := st.Of(Source{Binary, "img"})
	cl.Set(0x3000, other)
	if sh.Get(0x3000) != tag {
		t.Error("clone mutation leaked into original")
	}
}

func TestShadowClearRangeAndReset(t *testing.T) {
	st, sh := newTestShadow()
	tag := st.Of(Source{File, "f"})
	sh.SetRange(0, 16, tag)
	sh.SetRange(4, 8, Empty)
	if sh.Get(3) != tag || sh.Get(4) != Empty || sh.Get(11) != Empty || sh.Get(12) != tag {
		t.Error("SetRange(Empty) bounds wrong")
	}
	sh.Reset()
	if sh.Pages() != 0 || sh.Get(0) != Empty {
		t.Error("Reset did not clear")
	}
}

// Property: a randomized sequence of Set operations is faithfully
// readable back (shadow behaves like a map from address to tag).
func TestShadowModelProperty(t *testing.T) {
	st, sh := newTestShadow()
	model := make(map[uint32]Tag)
	rng := rand.New(rand.NewSource(99))
	tags := []Tag{
		Empty,
		st.Of(Source{File, "a"}),
		st.Of(Source{Socket, "b"}),
		st.Of(Source{Binary, "c"}),
	}
	for i := 0; i < 5000; i++ {
		addr := uint32(rng.Intn(3 * pageSize))
		tag := tags[rng.Intn(len(tags))]
		sh.Set(addr, tag)
		model[addr] = tag
	}
	for addr, want := range model {
		if got := sh.Get(addr); got != want {
			t.Fatalf("addr %#x = %d, want %d", addr, got, want)
		}
	}
}

func BenchmarkShadowSetGet(b *testing.B) {
	st, sh := newTestShadow()
	tag := st.Of(Source{File, "bench"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addr := uint32(i) & 0xFFFF
		sh.Set(addr, tag)
		_ = sh.Get(addr)
	}
}

func BenchmarkUnionCached(b *testing.B) {
	st := NewStore()
	x := st.Of(Source{File, "x"})
	y := st.Of(Source{Socket, "y"})
	st.Union(x, y)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = st.Union(x, y)
	}
}
