package corpus

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	hth "repro"
	"repro/internal/guestlib"
	"repro/internal/image"
)

// imageHash deep-hashes every field of img: sections with their
// instructions and bytes, symbols (fmt prints map keys sorted),
// relocations, imports and natives.
func imageHash(img *image.Image) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", *img)
	return h.Sum64()
}

// imageLedger records the hash of every image a scenario's Setup
// installs, the first time that image is seen. Concurrent sweeps feed
// it from many workers.
type imageLedger struct {
	mu     sync.Mutex
	hashes map[*image.Image]uint64
	drift  []string
}

// wrap returns setup followed by a walk of the world's filesystem that
// records each installed image. An image seen before (one every world
// shares) must still hash as it did when first recorded.
func (l *imageLedger) wrap(setup func(*hth.System)) func(*hth.System) {
	return func(sys *hth.System) {
		if setup != nil {
			setup(sys)
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		for _, p := range sys.OS.FS.Paths() {
			f, _ := sys.OS.FS.Lookup(p)
			if f.Image == nil {
				continue
			}
			sum := imageHash(f.Image)
			if prev, seen := l.hashes[f.Image]; !seen {
				l.hashes[f.Image] = sum
			} else if prev != sum {
				l.drift = append(l.drift, fmt.Sprintf("%s (%s) changed between jobs", p, f.Image.Name))
			}
		}
	}
}

// TestSharedImagesImmutable is the guard for the image.Image contract:
// the guest libraries are built once per process and installed into
// every guest world, so no run may write to them. It hashes the shared
// guestlib images and every image any corpus scenario installs
// (in-house assembly, corpus shared objects, decoded ELF fixtures),
// then runs a full batch sweep and a sharded service sweep — fork,
// execve and .import resolution over the same images — and requires
// every hash to be unchanged.
func TestSharedImagesImmutable(t *testing.T) {
	if testing.Short() {
		t.Skip("two full corpus sweeps")
	}
	libc, ld := guestlib.Libc(), guestlib.Ld()
	libcSum, ldSum := imageHash(libc), imageHash(ld)

	l := &imageLedger{hashes: map[*image.Image]uint64{}}
	scs := All()
	wrapped := make([]*Scenario, len(scs))
	for i, sc := range scs {
		c := *sc
		c.Setup = l.wrap(sc.Setup)
		wrapped[i] = &c
	}

	for _, o := range RunAll(wrapped, 4) {
		if o.Err != nil {
			t.Fatalf("batch %s: %v", o.Scenario.Name, o.Err)
		}
	}

	for _, o := range serviceSweep(t, wrapped) {
		if o.Err != nil {
			t.Fatalf("service %s: %v", o.Scenario.Name, o.Err)
		}
	}

	if guestlib.Libc() != libc || guestlib.Ld() != ld {
		t.Fatal("guestlib rebuilt its images: they are no longer process-wide")
	}
	if imageHash(libc) != libcSum || imageHash(ld) != ldSum {
		t.Error("a sweep mutated libc.so or ld-linux.so")
	}
	for _, d := range l.drift {
		t.Error(d)
	}
	names := map[string]bool{}
	elf := false
	for img, sum := range l.hashes {
		names[img.Name] = true
		if img.BuildID != "" {
			elf = true
		}
		if imageHash(img) != sum {
			t.Errorf("a sweep mutated image %s", img.Name)
		}
	}
	if _, ok := l.hashes[libc]; !ok {
		t.Error("no world installed the shared libc.so")
	}
	for _, n := range []string{guestlib.LdName, "libcrypto.so", "libreadline.so", "libX11.so"} {
		if !names[n] {
			t.Errorf("no scenario installed %s", n)
		}
	}
	if !elf {
		t.Error("no scenario installed a decoded ELF image")
	}
}
