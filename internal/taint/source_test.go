package taint

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSourceTypeString(t *testing.T) {
	cases := map[SourceType]string{
		None:      "NONE",
		UserInput: "USER_INPUT",
		File:      "FILE",
		Socket:    "SOCKET",
		Binary:    "BINARY",
		Hardware:  "HARDWARE",
		Unknown:   "UNKNOWN",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	if got := SourceType(200).String(); got != "SourceType(200)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

// ofAll is the tag of the set of srcs, folded from single-source tags
// with Union.
func ofAll(st *Store, srcs ...Source) Tag {
	out := Empty
	for _, s := range srcs {
		out = st.Union(out, st.Of(s))
	}
	return out
}

// hasType reports whether the set named by t has a source of type typ.
func hasType(st *Store, t Tag, typ SourceType) bool {
	for _, s := range st.Sources(t) {
		if s.Type == typ {
			return true
		}
	}
	return false
}

func TestEmptyTag(t *testing.T) {
	st := NewStore()
	if got := st.Sources(Empty); got != nil {
		t.Errorf("Sources(Empty) = %v, want nil", got)
	}
	if got := st.String(Empty); got != "{}" {
		t.Errorf("String(Empty) = %q", got)
	}
}

func TestOfInterning(t *testing.T) {
	st := NewStore()
	s := Source{File, "/etc/passwd"}
	a := st.Of(s)
	b := st.Of(s)
	if a != b {
		t.Errorf("Of interning failed: %d != %d", a, b)
	}
	if a == Empty {
		t.Error("Of returned Empty for a non-empty source")
	}
	got := st.Sources(a)
	if len(got) != 1 || got[0] != s {
		t.Errorf("Sources = %v, want [%v]", got, s)
	}
}

func TestOfAllCanonicalization(t *testing.T) {
	st := NewStore()
	a := Source{File, "a"}
	b := Source{Socket, "b"}
	t1 := ofAll(st, a, b)
	t2 := ofAll(st, b, a)
	t3 := ofAll(st, b, a, b, a) // duplicates
	if t1 != t2 || t2 != t3 {
		t.Errorf("order/duplicate independence failed: %d %d %d", t1, t2, t3)
	}
	if n := len(st.Sources(t1)); n != 2 {
		t.Errorf("%d sources, want 2", n)
	}
}

func TestUnionBasics(t *testing.T) {
	st := NewStore()
	a := st.Of(Source{File, "f"})
	b := st.Of(Source{Socket, "s"})
	u := st.Union(a, b)
	if u == a || u == b || u == Empty {
		t.Fatalf("Union produced a degenerate tag: %d", u)
	}
	if !hasType(st, u, File) || !hasType(st, u, Socket) {
		t.Errorf("union missing members: %s", st.String(u))
	}
	// Identity laws.
	if st.Union(a, Empty) != a || st.Union(Empty, a) != a {
		t.Error("Union with Empty is not identity")
	}
	if st.Union(a, a) != a {
		t.Error("Union is not idempotent")
	}
	// Commutativity through the cache.
	if st.Union(b, a) != u {
		t.Error("Union is not commutative")
	}
}

func TestUnionAbsorption(t *testing.T) {
	st := NewStore()
	a := st.Of(Source{File, "f"})
	b := st.Of(Source{Socket, "s"})
	u := st.Union(a, b)
	if st.Union(u, a) != u {
		t.Error("a∪b ∪ a != a∪b")
	}
	if st.Union(u, u) != u {
		t.Error("u ∪ u != u")
	}
}

func TestUnionAll(t *testing.T) {
	st := NewStore()
	tags := []Tag{
		st.Of(Source{File, "a"}),
		st.Of(Source{File, "b"}),
		st.Of(Source{Binary, "c"}),
		Empty,
	}
	u := Empty
	for _, tag := range tags {
		u = st.Union(u, tag)
	}
	if n := len(st.Sources(u)); n != 3 {
		t.Errorf("folded union has %d sources, want 3", n)
	}
}

func TestStoreStringFormat(t *testing.T) {
	st := NewStore()
	u := ofAll(st, Source{File, "f"}, Source{Binary, "b"})
	want := `{FILE:"f", BINARY:"b"}`
	if got := st.String(u); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestInvalidTagIsSafe(t *testing.T) {
	st := NewStore()
	bogus := Tag(9999)
	if st.Sources(bogus) != nil {
		t.Error("Sources(bogus) != nil")
	}
	if got := st.String(bogus); got != "{}" {
		t.Errorf("String(bogus) = %q", got)
	}
}

func TestUnionStats(t *testing.T) {
	st := NewStore()
	a := st.Of(Source{File, "f"})
	b := st.Of(Source{Socket, "s"})
	st.Union(a, b)
	st.Union(a, b) // cache hit
	sets, unions, hits := st.Stats()
	if sets < 3 {
		t.Errorf("sets = %d, want >= 3", sets)
	}
	if unions != 2 || hits != 1 {
		t.Errorf("unions = %d hits = %d, want 2/1", unions, hits)
	}
}

// Property: the union of two sets contains exactly the members of both.
func TestUnionProperty(t *testing.T) {
	st := NewStore()
	names := []string{"a", "b", "c", "d", "e"}
	types := []SourceType{UserInput, File, Socket, Binary, Hardware}
	mkTag := func(bits uint8) Tag {
		var srcs []Source
		for i := 0; i < 5; i++ {
			if bits&(1<<i) != 0 {
				srcs = append(srcs, Source{types[i], names[i]})
			}
		}
		return ofAll(st, srcs...)
	}
	f := func(x, y uint8) bool {
		x &= 0x1f
		y &= 0x1f
		u := st.Union(mkTag(x), mkTag(y))
		return u == mkTag(x|y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: union is associative for randomly constructed sets.
func TestUnionAssociativity(t *testing.T) {
	st := NewStore()
	rng := rand.New(rand.NewSource(42))
	randTag := func() Tag {
		n := rng.Intn(4)
		var srcs []Source
		for i := 0; i < n; i++ {
			srcs = append(srcs, Source{
				Type: SourceType(1 + rng.Intn(5)),
				Name: string(rune('a' + rng.Intn(6))),
			})
		}
		return ofAll(st, srcs...)
	}
	for i := 0; i < 500; i++ {
		a, b, c := randTag(), randTag(), randTag()
		if st.Union(st.Union(a, b), c) != st.Union(a, st.Union(b, c)) {
			t.Fatalf("associativity failed: %s %s %s",
				st.String(a), st.String(b), st.String(c))
		}
	}
}

// Property: Sources always returns a sorted, duplicate-free slice.
func TestCanonicalInvariant(t *testing.T) {
	st := NewStore()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		n := rng.Intn(6)
		var srcs []Source
		for j := 0; j < n; j++ {
			srcs = append(srcs, Source{
				Type: SourceType(1 + rng.Intn(5)),
				Name: string(rune('a' + rng.Intn(4))),
			})
		}
		tag := ofAll(st, srcs...)
		set := st.Sources(tag)
		if !sort.SliceIsSorted(set, func(a, b int) bool { return set[a].Less(set[b]) }) {
			t.Fatalf("set not sorted: %v", set)
		}
		for k := 1; k < len(set); k++ {
			if set[k] == set[k-1] {
				t.Fatalf("duplicate in set: %v", set)
			}
		}
	}
}

func TestWidthBudgetDegrades(t *testing.T) {
	st := NewStore()
	st.SetWidthBudget(4)
	// Union eight distinct files with one socket: 9 sources > budget 4.
	tag := Empty
	for i := 0; i < 8; i++ {
		tag = st.Union(tag, st.Of(Source{Type: File, Name: fmt.Sprintf("/tmp/f%d", i)}))
	}
	tag = st.Union(tag, st.Of(Source{Type: Socket, Name: "10.0.0.1:80"}))
	set := st.Sources(tag)
	if len(set) != 2 {
		t.Fatalf("degraded set = %v, want one wide source per type", set)
	}
	want := []Source{{Type: File, Name: WideName}, {Type: Socket, Name: WideName}}
	for i, s := range want {
		if set[i] != s {
			t.Errorf("set[%d] = %v, want %v", i, set[i], s)
		}
	}
	// Soundness: type-level membership survives degradation, so
	// type-keyed warnings cannot be lost.
	if !hasType(st, tag, File) || !hasType(st, tag, Socket) {
		t.Error("type membership lost under degradation")
	}
	if st.WideUnions() == 0 {
		t.Error("WideUnions counter not incremented")
	}
}

func TestWidthBudgetConverges(t *testing.T) {
	st := NewStore()
	st.SetWidthBudget(2)
	// Keep unioning fresh sources into an already-wide tag: the tag
	// must converge to a fixed point, not grow.
	tag := Empty
	var prev Tag
	for i := 0; i < 50; i++ {
		tag = st.Union(tag, st.Of(Source{Type: File, Name: fmt.Sprintf("f%d", i)}))
		tag = st.Union(tag, st.Of(Source{Type: Socket, Name: fmt.Sprintf("s%d", i)}))
		if i > 2 && tag != prev {
			// After the first degradation, unioning more of the same
			// types is absorbed: wide ∪ {fresh file} = wide.
			if i > 3 {
				t.Fatalf("wide tag did not converge: %s", st.String(tag))
			}
		}
		prev = tag
	}
	if got := len(st.Sources(tag)); got > 2 {
		t.Errorf("converged width = %d, want <= 2", got)
	}
	// The store's set table stays bounded relative to an unbudgeted
	// run, which would intern ~100 distinct growing sets.
	sets, _, _ := st.Stats()
	if sets > 120 {
		t.Errorf("interned %d sets; budget failed to bound growth", sets)
	}
}

func TestWidthBudgetDisabled(t *testing.T) {
	st := NewStore()
	tag := Empty
	for i := 0; i < 10; i++ {
		tag = st.Union(tag, st.Of(Source{Type: File, Name: fmt.Sprintf("f%d", i)}))
	}
	if len(st.Sources(tag)) != 10 || st.WideUnions() != 0 {
		t.Error("unbudgeted store degraded a set")
	}
}
