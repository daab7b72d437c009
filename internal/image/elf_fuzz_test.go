package image

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fixture loads a checked-in ELF fixture binary (built by the real
// GNU toolchain; see internal/corpus/testdata/elf/build.sh).
func fixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "corpus", "testdata", "elf", name))
	if err != nil {
		t.Skipf("fixture %s unavailable: %v", name, err)
	}
	return data
}

// FuzzELFParse is the malformed-upload gate: whatever bytes arrive,
// the ELF frontend must either produce a valid image or fail with a
// typed error wrapping ErrBadImage — it must never panic (a crafted
// upload would take a service worker down) and never return a
// half-decoded image.
func FuzzELFParse(f *testing.F) {
	trojan := func() []byte {
		data, err := os.ReadFile(filepath.Join("..", "corpus", "testdata", "elf", "trojan"))
		if err != nil {
			return nil
		}
		return data
	}()
	if trojan != nil {
		f.Add(trojan)
		f.Add(trojan[:52])            // bare Ehdr
		f.Add(trojan[:len(trojan)/2]) // mid-file truncation
		mut := append([]byte(nil), trojan...)
		mut[0x20] ^= 0xFF // e_shoff
		f.Add(mut)
	}
	f.Add([]byte(ELFMagic))
	f.Add([]byte{})
	// The NOBITS-bomb shape: a tiny file declaring a huge .bss.
	f.Add(miniELF(testShdr{
		name: 1, typ: elfSHTNobits, flags: elfSHFAlloc | elfSHFWrite,
		addr: 0xFFFFF000, size: 0xF0000000,
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !IsELF(data) {
			return
		}
		img, err := DecodeELF("/fuzz", data)
		if err != nil {
			if !errors.Is(err, ErrBadImage) {
				t.Fatalf("structural failure does not wrap ErrBadImage: %v", err)
			}
			return
		}
		if err := img.Validate(); err != nil {
			t.Fatalf("decoded image fails validation: %v", err)
		}
	})
}

// TestDecodeELFFixtures pins the happy path on the real binaries.
func TestDecodeELFFixtures(t *testing.T) {
	for _, name := range []string{"trojan", "benign"} {
		data := fixture(t, name)
		img, err := Decode("/bin/"+name, data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !img.HasEntry() {
			t.Errorf("%s: no entry symbol", name)
		}
		if section(img, ".text") == nil {
			t.Errorf("%s: no .text section", name)
		}
		if _, ok := img.Symbols["_start"]; !ok {
			t.Errorf("%s: _start missing from symbol table", name)
		}
	}
}

// TestDecodeELFTruncations sweeps every prefix of a real binary: all
// must fail typed (or decode, for prefixes that happen to stay
// structurally whole) without panicking.
func TestDecodeELFTruncations(t *testing.T) {
	data := fixture(t, "trojan")
	for n := 0; n < len(data); n += 7 {
		if _, err := DecodeELF("/trunc", data[:n]); err != nil && !errors.Is(err, ErrBadImage) {
			t.Fatalf("len %d: error does not wrap ErrBadImage: %v", n, err)
		}
	}
}
