package taint

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// drainStores empties the store free list, so the next Release is the
// only store on it.
func drainStores() {
	for freeStores.Take() != nil {
	}
}

// recyclePalette is the sources the store fuzzer interns: several
// names per type, so a small width budget summarizes sets to wide
// sources.
var recyclePalette = [...]Source{
	{UserInput, "stdin"}, {UserInput, "argv"},
	{File, "/etc/passwd"}, {File, "/tmp/a"}, {File, "/tmp/b"},
	{Socket, "10.0.0.1:80"}, {Socket, "10.0.0.2:25"},
	{Binary, "/bin/ls"}, {Binary, "libc.so"},
	{Hardware, "cpuid"}, {Unknown, "?"},
}

// storeOps applies one random operation per 5 bytes of data to each of
// the stores: Of, Union, Union4 or SetWidthBudget, with operands drawn
// from the tags the first store has interned. It fails t if the stores
// return different tags.
func storeOps(t *testing.T, data []byte, sts ...*Store) {
	t.Helper()
	for ; len(data) >= 5; data = data[5:] {
		n, _, _ := sts[0].Stats()
		tag := func(b byte) Tag { return Tag(int(b) % n) }
		var got []Tag
		for _, st := range sts {
			var out Tag
			switch data[0] % 8 {
			case 0, 1:
				out = st.Of(recyclePalette[int(data[1])%len(recyclePalette)])
			case 2, 3, 4:
				out = st.Union(tag(data[1]), tag(data[2]))
			case 5, 6:
				out = st.Union4(tag(data[1]), tag(data[2]), tag(data[3]), tag(data[4]))
			case 7:
				st.SetWidthBudget(int(data[1]%5) - 1)
			}
			got = append(got, out)
		}
		for i, out := range got {
			if out != got[0] {
				t.Fatalf("op % x: store %d returned tag %d, store 0 returned %d", data[:5], i, out, got[0])
			}
		}
	}
}

// sameStore fails t unless got and want are observationally identical:
// every tag's sources and rendering, and every statistic.
func sameStore(t *testing.T, got, want *Store) {
	t.Helper()
	gs, gu, gh := got.Stats()
	ws, wu, wh := want.Stats()
	if gs != ws || gu != wu || gh != wh {
		t.Fatalf("Stats = (%d, %d, %d), want (%d, %d, %d)", gs, gu, gh, ws, wu, wh)
	}
	if got.FastHits() != want.FastHits() || got.WideUnions() != want.WideUnions() {
		t.Fatalf("FastHits, WideUnions = %d, %d, want %d, %d",
			got.FastHits(), got.WideUnions(), want.FastHits(), want.WideUnions())
	}
	if g, w := got.WidthHistogram(), want.WidthHistogram(); !maps.Equal(g, w) {
		t.Fatalf("WidthHistogram = %v, want %v", g, w)
	}
	for tag := Tag(0); int(tag) <= ws; tag++ {
		if !slices.Equal(got.Sources(tag), want.Sources(tag)) || got.String(tag) != want.String(tag) {
			t.Fatalf("tag %d = %s, want %s", tag, got.String(tag), want.String(tag))
		}
	}
}

// FuzzStoreRecycle: a store that ran an unrelated prefix of
// operations, was released and taken back behaves exactly like a new
// store under the same operations. The first byte picks how many of
// the operations form the prefix.
func FuzzStoreRecycle(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	// The prefix unions tags 1 and 2, then the sequence interns two
	// other sources under the same numbers and unions them again: a
	// cache slot that survived the release would answer with the
	// prefix's tag 3, which the new store has not interned.
	f.Add([]byte{3,
		0, 0, 0, 0, 0,
		0, 2, 0, 0, 0,
		2, 1, 2, 0, 0,
		0, 5, 0, 0, 0,
		0, 7, 0, 0, 0,
		2, 1, 2, 0, 0,
		5, 1, 1, 2, 2,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ops := data[1:]
		if len(ops) > 5*1000 {
			ops = ops[:5*1000] // at most 3000 unions: the store stays recyclable
		}
		n := 5 * (int(data[0]) % (len(ops)/5 + 1))
		prefix, rest := ops[:n], ops[n:]
		drainStores()
		old := NewStore()
		storeOps(t, prefix, old)
		old.Release()
		recycled := NewStore()
		if recycled != old {
			t.Fatal("released store was not recycled")
		}
		fresh := NewStore()
		if fresh == old {
			t.Fatal("the free list handed the recycled store out twice")
		}
		storeOps(t, rest, fresh, recycled)
		sameStore(t, recycled, fresh)
	})
}

// TestStoreReleaseEmpties: a released store comes back with every map,
// the set table, the union cache, the counters and the width budget
// as a new store has them.
func TestStoreReleaseEmpties(t *testing.T) {
	drainStores()
	st := NewStore()
	st.SetWidthBudget(2)
	a, b, c := st.Of(recyclePalette[0]), st.Of(recyclePalette[2]), st.Of(recyclePalette[5])
	st.Union(st.Union(a, b), c)
	st.Union(a, b)
	st.Release()
	if got := NewStore(); got != st {
		t.Fatal("released store was not recycled")
	}
	if st.ucache != [unionCacheSize]unionEntry{} {
		t.Fatal("released store kept a union cache slot")
	}
	if len(st.unions) != 0 || len(st.singles) != 0 || len(st.index) != 1 || st.index[""] != Empty ||
		len(st.sets) != 1 || st.sets[0] != nil {
		t.Fatalf("released store kept %d unions, %d singles, %d index keys, %d sets",
			len(st.unions), len(st.singles), len(st.index), len(st.sets))
	}
	if st.sets[:cap(st.sets)][1] != nil {
		t.Fatal("released store's set table still holds a dropped set")
	}
	if st.unionN != 0 || st.hitN != 0 || st.fastN != 0 || st.wideN != 0 || st.widthBudget != 0 {
		t.Fatal("released store kept a counter or its width budget")
	}
}

// TestStoreOutgrownNotRecycled: a store whose union map outgrew the
// union cache is left to the GC, not put on the free list.
func TestStoreOutgrownNotRecycled(t *testing.T) {
	drainStores()
	st := NewStore()
	var tags []Tag
	for i := 0; i < 100; i++ {
		tags = append(tags, st.Of(Source{File, string(rune('a' + i))}))
	}
	for i := range tags {
		for j := i + 1; j < len(tags); j++ {
			st.Union(tags[i], tags[j])
		}
	}
	if len(st.unions) <= unionCacheSize {
		t.Fatalf("setup: %d unions do not outgrow the %d-slot cache", len(st.unions), unionCacheSize)
	}
	st.Release()
	if len(freeStores) != 0 {
		t.Fatal("an outgrown store went on the free list")
	}
	if NewStore() == st {
		t.Fatal("NewStore handed out an outgrown store")
	}
}
