// Package loader maps images into a process address space: it lays
// out sections, resolves symbols and relocations across imported
// shared objects, binds native routines, and — when a taint shadow is
// attached — tags every mapped byte with the BINARY data source of its
// image, implementing the paper's loader events (§7.3.2): hardcoded
// data is found because it entered memory from a binary.
package loader

import (
	"fmt"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/taint"
)

// Base addresses follow the classic Linux i386 layout the paper's
// warnings show: executables low, shared objects high.
const (
	ExecBase = 0x08048000
	LibBase  = 0x40000000
	alignTo  = 0x1000
)

// Env supplies the loader's external needs: how to find a shared
// object by name, the native routine registry, and an optional load
// notification (Harrier's image-level instrumentation, paper Table 3).
type Env struct {
	Resolve func(name string) (*image.Image, error)
	Natives map[string]func(*isa.CPU)
	OnLoad  func(li *Loaded)
}

// Loaded describes one image mapped into a process.
type Loaded struct {
	Image        *image.Image
	Base         uint32
	SectionBases []uint32
	Spans        []*isa.Span
	End          uint32
}

// SymbolAddr returns the runtime address of a symbol defined by this
// image.
func (li *Loaded) SymbolAddr(name string) (uint32, bool) {
	sym, ok := li.Image.Symbols[name]
	if !ok {
		return 0, false
	}
	base := li.SectionBases[sym.Section]
	if li.Image.Sections[sym.Section].Kind == image.Text {
		return base + uint32(sym.Offset)*isa.InstrSize, true
	}
	return base + uint32(sym.Offset), true
}

// EntryAddr returns the runtime address of the image's entry symbol.
func (li *Loaded) EntryAddr() (uint32, error) {
	entry := li.Image.Entry
	if entry == "" {
		entry = "_start"
	}
	addr, ok := li.SymbolAddr(entry)
	if !ok {
		return 0, fmt.Errorf("loader: image %s has no entry symbol %q", li.Image.Name, entry)
	}
	return addr, nil
}

// Map tracks the images loaded into one process.
type Map struct {
	loaded  map[string]*Loaded
	order   []*Loaded
	libNext uint32
	natives map[string]int // native name -> cpu.Natives index
	started bool           // the root (executable) load has begun
}

// NewMap returns an empty per-process image map.
func NewMap() *Map {
	return &Map{
		loaded:  make(map[string]*Loaded),
		libNext: LibBase,
		natives: make(map[string]int),
	}
}

// Loaded returns the previously loaded image of that name, if any.
func (m *Map) Loaded(name string) (*Loaded, bool) {
	li, ok := m.loaded[name]
	return li, ok
}

// Clone shares the loaded images (they are immutable after load) for
// fork(): the child sees the same mappings.
func (m *Map) Clone() *Map {
	out := &Map{
		loaded:  make(map[string]*Loaded, len(m.loaded)),
		order:   append([]*Loaded(nil), m.order...),
		libNext: m.libNext,
		natives: make(map[string]int, len(m.natives)),
		started: m.started,
	}
	for k, v := range m.loaded {
		out.loaded[k] = v
	}
	for k, v := range m.natives {
		out.natives[k] = v
	}
	return out
}

// Load maps img (and, recursively, its imports) into the process whose
// CPU is given. The image that initiates the first Load on a map is
// treated as the executable and placed at ExecBase; shared objects are
// placed in the library region. When the CPU carries a taint shadow,
// every mapped data byte is tagged BINARY:<image name>.
func (m *Map) Load(cpu *isa.CPU, img *image.Image, env *Env) (*Loaded, error) {
	root := !m.started
	m.started = true
	return m.load(cpu, img, env, root)
}

func (m *Map) load(cpu *isa.CPU, img *image.Image, env *Env, root bool) (*Loaded, error) {
	if li, ok := m.loaded[img.Name]; ok {
		return li, nil
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}

	// Imports first, so their symbols are available for relocation.
	var deps []*Loaded
	for _, dep := range img.Imports {
		depImg, err := resolveDep(env, dep)
		if err != nil {
			return nil, fmt.Errorf("loader: %s imports %s: %w", img.Name, dep, err)
		}
		li, err := m.load(cpu, depImg, env, false)
		if err != nil {
			return nil, err
		}
		deps = append(deps, li)
	}

	li := &Loaded{Image: img}
	if root {
		li.Base = ExecBase
	} else {
		li.Base = m.libNext
	}

	// Pinned sections (Section.Addr != 0: the ELF frontend keeps data
	// at its link-time virtual addresses) claim their ranges first;
	// the contiguous page-aligned auto-layout cursor then starts past
	// the base and past every pinned range, so the two never collide.
	// Images with no pinned sections — every in-house image — take the
	// exact layout they always have.
	li.SectionBases = make([]uint32, len(img.Sections))
	addr := li.Base
	lo, hi := li.Base, li.Base
	for i := range img.Sections {
		sec := &img.Sections[i]
		if sec.Addr == 0 {
			continue
		}
		li.SectionBases[i] = sec.Addr
		// The end address is computed in uint64: Addr and Size are
		// image-controlled, and a section pinned near the top of the
		// address space would wrap a uint32 sum to a small value that
		// slips past every overlap check and the auto-layout cursor
		// bump below, silently aliasing other mapped memory.
		end64 := uint64(sec.Addr) + uint64(sec.Size())
		if end64 > 0xFFFFFFFF {
			return nil, fmt.Errorf("loader: image %s: section %s range [%#x,%#x) exceeds the 32-bit address space: %w",
				img.Name, sec.Name, sec.Addr, end64, image.ErrBadImage)
		}
		end := uint32(end64)
		if sec.Addr < lo {
			lo = sec.Addr
		}
		if end > hi {
			hi = end
		}
		if a := align(end); a > addr {
			addr = a
		}
		// A pinned range colliding with an already-mapped image is a
		// malformed or adversarial layout: fail the load, don't
		// silently clobber another image's memory.
		for _, prev := range m.order {
			if sec.Addr < prev.End && prev.Base < end {
				return nil, fmt.Errorf("loader: image %s: section %s at %#x overlaps %s [%#x,%#x)",
					img.Name, sec.Name, sec.Addr, prev.Image.Name, prev.Base, prev.End)
			}
		}
		for j := 0; j < i; j++ {
			prev := &img.Sections[j]
			if prev.Addr == 0 || prev.Size() == 0 || sec.Size() == 0 {
				continue
			}
			if sec.Addr < prev.Addr+prev.Size() && prev.Addr < end {
				return nil, fmt.Errorf("loader: image %s: pinned sections %s and %s overlap",
					img.Name, prev.Name, sec.Name)
			}
		}
	}
	for i := range img.Sections {
		if img.Sections[i].Addr != 0 {
			continue
		}
		li.SectionBases[i] = addr
		addr += align(img.Sections[i].Size())
	}
	if addr > hi {
		hi = addr
	}
	li.Base = lo
	li.End = hi
	if !root {
		m.libNext = align(hi)
	}

	m.loaded[img.Name] = li
	m.order = append(m.order, li)

	// Map data sections; tag BINARY (paper §7.3.2: loader events).
	var binTag taint.Tag
	if cpu.Shadow != nil {
		binTag = cpu.Shadow.Store().Of(taint.Source{Type: taint.Binary, Name: img.Name})
	}
	for i := range img.Sections {
		sec := &img.Sections[i]
		if sec.Kind == image.Text {
			continue
		}
		cpu.Mem.WriteBytes(li.SectionBases[i], sec.Data)
		if cpu.Shadow != nil && len(sec.Data) > 0 {
			cpu.Shadow.SetRange(li.SectionBases[i], li.tagLen(i), binTag)
		}
	}

	// Symbol resolution scope: this image, then its imports in order.
	resolve := func(name string) (uint32, error) {
		if a, ok := li.SymbolAddr(name); ok {
			return a, nil
		}
		for _, dep := range deps {
			if a, ok := dep.SymbolAddr(name); ok {
				return a, nil
			}
		}
		return 0, fmt.Errorf("loader: image %s: undefined symbol %q", img.Name, name)
	}

	// Build text spans with relocations and native bindings applied.
	for i := range img.Sections {
		sec := &img.Sections[i]
		if sec.Kind != image.Text {
			continue
		}
		instrs := append([]isa.Instr(nil), sec.Instrs...)
		// Bind natives: rewrite image-local indices to the CPU table.
		for j := range instrs {
			if instrs[j].Op != isa.NATIVE {
				continue
			}
			name := img.Natives[instrs[j].Native]
			idx, ok := m.natives[name]
			if !ok {
				fn, found := env.Natives[name]
				if !found {
					return nil, fmt.Errorf("loader: image %s needs native routine %q", img.Name, name)
				}
				idx = len(cpu.Natives)
				cpu.Natives = append(cpu.Natives, isa.Native{Name: name, Fn: fn})
				m.natives[name] = idx
			}
			instrs[j].Native = idx
		}
		// Apply text relocations for this section.
		for _, r := range img.Relocs {
			if r.Section != i {
				continue
			}
			addr, err := resolve(r.Symbol)
			if err != nil {
				return nil, err
			}
			op := &instrs[r.Instr].A
			if r.Slot == image.SlotB {
				op = &instrs[r.Instr].B
			}
			op.Imm += addr
		}
		span := isa.NewSpan(li.SectionBases[i], img.Name, instrs, img.TextSymbols(i))
		li.Spans = append(li.Spans, span)
		if err := cpu.Code.Add(span); err != nil {
			return nil, fmt.Errorf("loader: mapping %s: %w", img.Name, err)
		}
	}

	// Apply data relocations.
	for _, r := range img.DataRels {
		addr, err := resolve(r.Symbol)
		if err != nil {
			return nil, err
		}
		cpu.Mem.Store32(li.SectionBases[r.Section]+uint32(r.Offset), addr+r.Addend)
		if cpu.Shadow != nil {
			cpu.Shadow.SetWord(li.SectionBases[r.Section]+uint32(r.Offset), binTag)
		}
	}

	if env.OnLoad != nil {
		env.OnLoad(li)
	}
	return li, nil
}

// tagLen returns how many bytes from the base of data section i the
// loader tags BINARY: the section's length, rounded up to a whole word
// when the rest of its last word is free — inside the image's range
// and in no other section of the image. A section whose length is not
// a multiple of 4 then leaves its shadow page in word mode instead of
// splitting its last word between two tags and degrading the page to
// byte mode. The pad holds no data; its tag only ever reaches a guest
// that reads past the section's end. Auto-laid sections start on page
// boundaries, so the rule always holds for them; an ELF layout that
// packs another section into that word keeps the exact length.
func (li *Loaded) tagLen(i int) uint32 {
	n := li.Image.Sections[i].Size()
	end := uint64(li.SectionBases[i]) + uint64(n)
	pad := (4 - end&3) & 3
	if pad == 0 || end+pad > uint64(li.End) {
		return n
	}
	for j := range li.Image.Sections {
		other := &li.Image.Sections[j]
		if j == i || other.Size() == 0 {
			continue
		}
		lo := uint64(li.SectionBases[j])
		if lo < end+pad && end < lo+uint64(other.Size()) {
			return n
		}
	}
	return n + uint32(pad)
}

func resolveDep(env *Env, name string) (*image.Image, error) {
	if env.Resolve == nil {
		return nil, fmt.Errorf("no resolver configured")
	}
	return env.Resolve(name)
}

func align(n uint32) uint32 {
	return (n + alignTo - 1) &^ (alignTo - 1)
}
