package image

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func validImage() *Image {
	im := New("/bin/x")
	im.Sections = []Section{
		{Name: ".text", Kind: Text, Instrs: []isa.Instr{{Op: isa.HLT}}},
		{Name: ".data", Kind: Data, Data: []byte{1, 2, 3, 4}},
	}
	im.Symbols["_start"] = Symbol{Section: 0, Offset: 0}
	im.Symbols["d"] = Symbol{Section: 1, Offset: 0}
	im.Entry = "_start"
	return im
}

func TestValidateOK(t *testing.T) {
	if err := validImage().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateBadSymbolSection(t *testing.T) {
	im := validImage()
	im.Symbols["bad"] = Symbol{Section: 9, Offset: 0}
	if err := im.Validate(); err == nil || !strings.Contains(err.Error(), "bad") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateBadSymbolOffset(t *testing.T) {
	im := validImage()
	im.Symbols["bad"] = Symbol{Section: 0, Offset: 5}
	if err := im.Validate(); err == nil {
		t.Error("no error for out-of-range offset")
	}
	// Offset == limit is allowed (end labels).
	im2 := validImage()
	im2.Symbols["end"] = Symbol{Section: 1, Offset: 4}
	if err := im2.Validate(); err != nil {
		t.Errorf("end label rejected: %v", err)
	}
}

func TestValidateBadReloc(t *testing.T) {
	im := validImage()
	im.Relocs = []Reloc{{Section: 1, Instr: 0, Symbol: "d"}} // data section
	if err := im.Validate(); err == nil {
		t.Error("reloc into data section accepted")
	}
	im2 := validImage()
	im2.Relocs = []Reloc{{Section: 0, Instr: 5, Symbol: "d"}}
	if err := im2.Validate(); err == nil {
		t.Error("reloc instr out of range accepted")
	}
}

func TestValidateBadDataReloc(t *testing.T) {
	im := validImage()
	im.DataRels = []DataReloc{{Section: 1, Offset: 2, Symbol: "d"}} // 2+4 > 4
	if err := im.Validate(); err == nil {
		t.Error("data reloc overrun accepted")
	}
}

func TestValidateMissingEntry(t *testing.T) {
	im := validImage()
	im.Entry = "nope"
	if err := im.Validate(); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateNativeIndex(t *testing.T) {
	im := validImage()
	im.Sections[0].Instrs = []isa.Instr{{Op: isa.NATIVE, Native: 0}}
	if err := im.Validate(); err == nil {
		t.Error("unbound native accepted")
	}
	im.Natives = []string{"fn"}
	if err := im.Validate(); err != nil {
		t.Errorf("bound native rejected: %v", err)
	}
}

func TestSectionLookupAndSize(t *testing.T) {
	im := validImage()
	if section(im, ".text") == nil || section(im, ".data") == nil {
		t.Error("Section lookup failed")
	}
	if section(im, ".bss") != nil {
		t.Error("found nonexistent section")
	}
	if got := im.Sections[0].Size(); got != isa.InstrSize {
		t.Errorf("text size = %d", got)
	}
	if got := im.Sections[1].Size(); got != 4 {
		t.Errorf("data size = %d", got)
	}
}

func TestTextSymbols(t *testing.T) {
	im := validImage()
	syms := im.TextSymbols(0)
	if syms[0] != "_start" {
		t.Errorf("TextSymbols = %v", syms)
	}
	if _, ok := syms[1]; ok {
		t.Error("data symbol leaked into text symbols")
	}
}

func TestSectionKindString(t *testing.T) {
	if Text.String() != "text" || Data.String() != "data" || ROData.String() != "rodata" {
		t.Error("kind strings wrong")
	}
}

// section returns img's section called name, or nil.
func section(img *Image, name string) *Section {
	for i := range img.Sections {
		if img.Sections[i].Name == name {
			return &img.Sections[i]
		}
	}
	return nil
}
