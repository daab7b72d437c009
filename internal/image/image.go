// Package image defines the synthetic binary format used by the HTH
// simulator in place of ELF: named sections of code or data, a symbol
// table, relocations, imported shared objects and named native
// routines. The loader (internal/loader) maps images into a process,
// applying the BINARY data source to every mapped byte (paper §7.3.2:
// "when the data is being read from a binary and mapped to memory,
// Harrier will tag that data with the BINARY data source").
package image

import (
	"fmt"

	"repro/internal/isa"
)

// SectionKind distinguishes executable from data sections.
type SectionKind uint8

// Section kinds.
const (
	Text SectionKind = iota
	Data
	ROData
)

// String names the section kind.
func (k SectionKind) String() string {
	switch k {
	case Text:
		return "text"
	case Data:
		return "data"
	case ROData:
		return "rodata"
	}
	return "?"
}

// Section is one contiguous region of an image: instructions for Text
// sections, raw bytes otherwise.
type Section struct {
	Name   string
	Kind   SectionKind
	Instrs []isa.Instr // Text only
	Data   []byte      // Data/ROData only
	// Addr, when non-zero, pins the section at a fixed guest address
	// instead of the loader's contiguous auto-layout. The ELF frontend
	// pins data sections at their link-time virtual addresses so
	// absolute data references in translated code stay valid; the
	// in-house text frontend always auto-lays-out (Addr == 0).
	Addr uint32
}

// Size returns the section's size in guest address units.
func (s *Section) Size() uint32 {
	if s.Kind == Text {
		return uint32(len(s.Instrs)) * isa.InstrSize
	}
	return uint32(len(s.Data))
}

// Symbol locates a named entity: instruction index for text symbols,
// byte offset for data symbols.
type Symbol struct {
	Section int // index into Image.Sections
	Offset  int // instruction index (text) or byte offset (data)
}

// OperandSlot selects which operand of an instruction a relocation
// patches.
type OperandSlot uint8

// Operand slots.
const (
	SlotA OperandSlot = iota
	SlotB
)

// Reloc records a symbolic reference inside a text section: the
// loader adds the symbol's runtime address to the operand's Imm field.
type Reloc struct {
	Section int
	Instr   int
	Slot    OperandSlot
	Symbol  string
}

// DataReloc records a symbolic word inside a data section (.word sym):
// the loader stores the symbol's runtime address at the offset.
type DataReloc struct {
	Section int
	Offset  int
	Symbol  string
	Addend  uint32
}

// Image is one loadable binary: an executable or a shared object.
//
// An Image is read-only once the frontend that built it returns (asm
// assembly, ELF decode, DecodeAs). The guest libraries are single
// process-wide Images that every guest world installs, and one decoded
// upload is reused across a job's attempts. So the loader, the virtual
// filesystem, secbin and every other consumer may only read an Image.
// The loader copies Instrs before it relocates them, and writes data
// sections into guest memory, never back. Code that needs a different
// image builds a new one.
type Image struct {
	Name     string // path identity, e.g. "/bin/ls" or "libc.so"
	Entry    string // entry symbol for executables (usually "_start")
	Sections []Section
	Symbols  map[string]Symbol
	Relocs   []Reloc
	DataRels []DataReloc
	Imports  []string // shared objects this image needs, e.g. "libc.so"
	Natives  []string // native routine names, indexed by Instr.Native
	// BuildID is the toolchain-stamped identity of the binary (the hex
	// NT_GNU_BUILD_ID for ELF images; empty for in-house images).
	BuildID string
}

// New returns an empty image with the given name.
func New(name string) *Image {
	return &Image{Name: name, Symbols: make(map[string]Symbol)}
}

// Validate checks internal consistency: symbol and relocation targets
// in range, entry symbol present when set, native indices bound.
func (im *Image) Validate() error {
	for name, sym := range im.Symbols {
		if sym.Section < 0 || sym.Section >= len(im.Sections) {
			return fmt.Errorf("image %s: symbol %q references section %d of %d",
				im.Name, name, sym.Section, len(im.Sections))
		}
		sec := &im.Sections[sym.Section]
		limit := len(sec.Data)
		if sec.Kind == Text {
			limit = len(sec.Instrs)
		}
		if sym.Offset < 0 || sym.Offset > limit {
			return fmt.Errorf("image %s: symbol %q offset %d out of range",
				im.Name, name, sym.Offset)
		}
	}
	for _, r := range im.Relocs {
		if r.Section < 0 || r.Section >= len(im.Sections) ||
			im.Sections[r.Section].Kind != Text ||
			r.Instr < 0 || r.Instr >= len(im.Sections[r.Section].Instrs) {
			return fmt.Errorf("image %s: bad relocation %+v", im.Name, r)
		}
	}
	for _, r := range im.DataRels {
		if r.Section < 0 || r.Section >= len(im.Sections) ||
			im.Sections[r.Section].Kind == Text ||
			r.Offset < 0 || r.Offset+4 > len(im.Sections[r.Section].Data) {
			return fmt.Errorf("image %s: bad data relocation %+v", im.Name, r)
		}
	}
	if im.Entry != "" {
		if _, ok := im.Symbols[im.Entry]; !ok {
			return fmt.Errorf("image %s: entry symbol %q undefined", im.Name, im.Entry)
		}
	}
	for secIdx := range im.Sections {
		sec := &im.Sections[secIdx]
		if sec.Kind != Text {
			continue
		}
		for i, in := range sec.Instrs {
			if in.Op == isa.NATIVE && (in.Native < 0 || in.Native >= len(im.Natives)) {
				return fmt.Errorf("image %s: instruction %d native index %d out of range",
					im.Name, i, in.Native)
			}
		}
	}
	return nil
}

// HasEntry reports whether the image defines its entry symbol (Entry,
// defaulting to "_start") — i.e. whether it can start a process.
func (im *Image) HasEntry() bool {
	entry := im.Entry
	if entry == "" {
		entry = "_start"
	}
	_, ok := im.Symbols[entry]
	return ok
}

// Section returns the named section, or nil.
func (im *Image) Section(name string) *Section {
	for i := range im.Sections {
		if im.Sections[i].Name == name {
			return &im.Sections[i]
		}
	}
	return nil
}

// TextSymbols returns instruction-index -> name maps per text section,
// used by the loader to label spans for disassembly and routine hooks.
// When several symbols share an offset (the ELF frontend's synthetic
// ".text" section symbol aliases the first real label) the winner is
// deterministic: real names beat dot-prefixed section names, then the
// lexicographically smaller name wins.
func (im *Image) TextSymbols(section int) map[int]string {
	out := map[int]string{}
	for name, sym := range im.Symbols {
		if sym.Section != section {
			continue
		}
		if cur, taken := out[sym.Offset]; taken && !preferName(name, cur) {
			continue
		}
		out[sym.Offset] = name
	}
	return out
}

// preferName reports whether a should displace b as the display name
// for a shared symbol offset.
func preferName(a, b string) bool {
	aDot := len(a) > 0 && a[0] == '.'
	bDot := len(b) > 0 && b[0] == '.'
	if aDot != bDot {
		return bDot
	}
	return a < b
}

// Size returns the total mapped size of the image.
func (im *Image) Size() uint32 {
	var n uint32
	for i := range im.Sections {
		n += im.Sections[i].Size()
	}
	return n
}
