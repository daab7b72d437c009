package harrier

import (
	"testing"

	"repro/internal/taint"
	"repro/internal/vos"
)

// loopProg runs its loop block 5 times, so a block counter a recycled
// cache left pointing at the last run's counter would read wrong.
const loopProg = `
.text
_start:
    mov esi, 5
loop:
    dec esi
    cmp esi, 0
    jnz loop
    mov ebx, 0
    mov eax, 1
    int 0x80
`

// TestReleaseOnce: Release hands the store and the block cache back
// once and drops both; a second Release hands back nothing, so no two
// later monitors share either. Block frequencies stay readable, and a
// monitor that takes the released block cache counts from zero.
func TestReleaseOnce(t *testing.T) {
	for freeBBCaches.Take() != nil {
	}
	w := newWorld(t)
	w.install(t, "/bin/loop", loopProg)
	w.run(t, vos.ProcSpec{Path: "/bin/loop"})
	freq := map[uint32]int64{}
	for addr := uint32(0x08048000); addr < 0x08048100; addr += 4 {
		freq[addr] = w.h.BBFrequency("/bin/loop", addr)
	}
	ran5 := false
	for _, n := range freq {
		ran5 = ran5 || n == 5
	}
	if !ran5 {
		t.Fatalf("no block ran 5 times: %v", freq)
	}
	cache := w.h.bbCache

	w.h.Release()
	if w.h.Store != nil || w.h.bbCache != nil {
		t.Fatal("released monitor still holds its store or block cache")
	}
	w.h.Release()
	if n := len(freeBBCaches); n != 1 {
		t.Fatalf("%d block caches free after two releases, want 1", n)
	}
	if a, b := taint.NewStore(), taint.NewStore(); a == b {
		t.Fatal("two new stores are one: a second Release put the store back again")
	}
	for addr, n := range freq {
		if got := w.h.BBFrequency("/bin/loop", addr); got != n {
			t.Fatalf("block %#x reads %d after Release, %d before", addr, got, n)
		}
	}

	w2 := newWorld(t)
	if w2.h.bbCache != cache {
		t.Fatal("released block cache was not recycled")
	}
	w2.install(t, "/bin/loop", loopProg)
	w2.run(t, vos.ProcSpec{Path: "/bin/loop"})
	for addr, n := range freq {
		if got := w2.h.BBFrequency("/bin/loop", addr); got != n {
			t.Fatalf("block %#x: %d on the recycled cache, %d on a new one", addr, got, n)
		}
	}
}
