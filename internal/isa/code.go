package isa

import (
	"fmt"
	"sort"
)

// Span is a contiguous run of executable code belonging to one image.
// Instruction i sits at guest address Base + i*InstrSize. Spans are
// immutable once built (the simulator does not support self-modifying
// code; the paper notes PIN handles it but the prototype relies on it
// only for completeness).
type Span struct {
	Base   uint32
	Instrs []Instr
	Image  string // name of the owning image, e.g. "/bin/ls" or "libc.so"

	// Symbols maps instruction index -> routine name for addresses
	// that are entry points of named routines (used for routine-level
	// instrumentation and disassembly).
	Symbols map[int]string

	// BBLeader[i] is the instruction index of the basic-block leader
	// of instruction i; computed by AnalyzeBlocks.
	BBLeader []int

	// meta[i] packs the per-instruction dispatch bits the fetch loop
	// consults every cycle, so one byte load replaces a leader-slice
	// lookup and an opcode-table lookup on the hot path.
	meta []uint8

	// summaries[i] is the instrumentation layer's slot for the basic
	// block led by instruction i (nil = none): Harrier's compiled trace,
	// or its marker for a block that compiled to nothing. The slice is
	// allocated lazily on the first SetBBSummary, so spans that never
	// promote a block cost one nil pointer. The slots hold opaque
	// values: the ISA only stores and dispatches them (see
	// Hooks.OnBBSummary); their meaning belongs to the monitor.
	summaries []any
}

// Span meta bits.
const (
	metaLeader = 1 << 0 // instruction leads its basic block
	metaData   = 1 << 1 // opcode moves data (Op.MovesData)
)

// NewSpan builds a span and computes its basic-block structure.
func NewSpan(base uint32, image string, instrs []Instr, symbols map[int]string) *Span {
	s := &Span{Base: base, Image: image, Instrs: instrs, Symbols: symbols}
	if s.Symbols == nil {
		s.Symbols = map[int]string{}
	}
	s.analyzeBlocks()
	return s
}

// End returns the first address past the span.
func (s *Span) End() uint32 { return s.Base + uint32(len(s.Instrs))*InstrSize }

// Contains reports whether addr falls inside the span and is
// instruction-aligned.
func (s *Span) Contains(addr uint32) bool {
	return addr >= s.Base && addr < s.End() && (addr-s.Base)%InstrSize == 0
}

// Index returns the instruction index of addr within the span.
func (s *Span) Index(addr uint32) int { return int((addr - s.Base) / InstrSize) }

// Addr returns the guest address of instruction index i.
func (s *Span) Addr(i int) uint32 { return s.Base + uint32(i)*InstrSize }

// analyzeBlocks computes basic-block leaders: instruction 0, every
// branch target inside the span, and every instruction following a
// control transfer (paper §7.4: a basic block is a sequence of
// instructions ending with a control transfer).
func (s *Span) analyzeBlocks() {
	n := len(s.Instrs)
	leader := make([]bool, n)
	if n == 0 {
		s.BBLeader = nil
		s.meta = nil
		return
	}
	leader[0] = true
	for i, in := range s.Instrs {
		if in.Op.IsControlTransfer() && i+1 < n {
			leader[i+1] = true
		}
		switch in.Op {
		case JMP, JZ, JNZ, JL, JLE, JG, JGE, CALL:
			if in.A.Kind == ImmOperand && s.Contains(in.A.Imm) {
				leader[s.Index(in.A.Imm)] = true
			}
		}
	}
	// Routine entry points are leaders too (callers may enter here
	// from other spans).
	for idx := range s.Symbols {
		if idx >= 0 && idx < n {
			leader[idx] = true
		}
	}
	s.BBLeader = make([]int, n)
	s.meta = make([]uint8, n)
	cur := 0
	for i := 0; i < n; i++ {
		if leader[i] {
			cur = i
			s.meta[i] |= metaLeader
		}
		s.BBLeader[i] = cur
		if s.Instrs[i].Op.MovesData() {
			s.meta[i] |= metaData
		}
	}
}

// BBSummary returns the slot value installed for the block led by
// instruction i, or nil.
func (s *Span) BBSummary(i int) any {
	if s.summaries == nil || i < 0 || i >= len(s.summaries) {
		return nil
	}
	return s.summaries[i]
}

// SetBBSummary installs (or replaces) the slot value for the block led
// by instruction i. The slot array is allocated on first
// use.
func (s *Span) SetBBSummary(i int, v any) {
	if i < 0 || i >= len(s.Instrs) {
		return
	}
	if s.summaries == nil {
		s.summaries = make([]any, len(s.Instrs))
	}
	s.summaries[i] = v
}

// DropSummaries empties every slot, returning how many were occupied.
// The monitor calls it when the code its slots were compiled from is
// about to be unmapped (execve).
func (s *Span) DropSummaries() int {
	n := 0
	for i, v := range s.summaries {
		if v != nil {
			n++
			s.summaries[i] = nil
		}
	}
	return n
}

// NumBlocks returns the number of distinct basic blocks in the span.
func (s *Span) NumBlocks() int {
	n := 0
	for i, l := range s.BBLeader {
		if i == l {
			n++
		}
	}
	return n
}

// Disassemble renders the span as readable assembly, one instruction
// per line, with addresses and routine labels.
func (s *Span) Disassemble() string {
	out := ""
	for i, in := range s.Instrs {
		if name, ok := s.Symbols[i]; ok {
			out += fmt.Sprintf("%s:\n", name)
		}
		out += fmt.Sprintf("  %08x  %s\n", s.Addr(i), in)
	}
	return out
}

// CodeMap resolves guest addresses to spans. Lookups cache the last
// span hit, since execution is overwhelmingly local.
type CodeMap struct {
	spans []*Span // sorted by Base
	last  *Span
}

// NewCodeMap returns an empty code map.
func NewCodeMap() *CodeMap { return &CodeMap{} }

// Add registers a span. Spans must not overlap; an overlap — a
// malformed or adversarial image whose layout collides with an
// already-mapped one — is reported as an error for the loader to
// surface as a structured load failure, never as a crash.
func (cm *CodeMap) Add(s *Span) error {
	for _, o := range cm.spans {
		if s.Base < o.End() && o.Base < s.End() {
			return fmt.Errorf("isa: overlapping code spans %#x (%s) and %#x (%s)",
				s.Base, s.Image, o.Base, o.Image)
		}
	}
	cm.spans = append(cm.spans, s)
	sort.Slice(cm.spans, func(i, j int) bool { return cm.spans[i].Base < cm.spans[j].Base })
	cm.last = nil
	return nil
}

// Find resolves addr to its span and instruction index.
func (cm *CodeMap) Find(addr uint32) (*Span, int, bool) {
	if s := cm.last; s != nil && s.Contains(addr) {
		return s, s.Index(addr), true
	}
	i := sort.Search(len(cm.spans), func(i int) bool { return cm.spans[i].End() > addr })
	if i < len(cm.spans) && cm.spans[i].Contains(addr) {
		cm.last = cm.spans[i]
		return cm.spans[i], cm.spans[i].Index(addr), true
	}
	return nil, 0, false
}

// Spans returns the registered spans in base order.
func (cm *CodeMap) Spans() []*Span { return cm.spans }

// SymbolAddr looks up a routine name across all spans.
func (cm *CodeMap) SymbolAddr(name string) (uint32, bool) {
	for _, s := range cm.spans {
		for idx, n := range s.Symbols {
			if n == name {
				return s.Addr(idx), true
			}
		}
	}
	return 0, false
}

// Symbolize resolves a code address to a symbolic frame,
// "image:symbol+0xdelta" (the +delta suffix is omitted at the symbol
// itself), using the nearest preceding routine symbol of the owning
// span. It reports false when no span covers addr or the span carries
// no symbol at or before it — callers fall back to the raw address.
// Unlike Find it never touches the lookup cache, so renderers may call
// it while the owning CPU is executing.
func (cm *CodeMap) Symbolize(addr uint32) (string, bool) {
	i := sort.Search(len(cm.spans), func(i int) bool { return cm.spans[i].End() > addr })
	if i >= len(cm.spans) || !cm.spans[i].Contains(addr) {
		return "", false
	}
	s := cm.spans[i]
	idx := s.Index(addr)
	best := -1
	for j := range s.Symbols {
		if j <= idx && j > best {
			best = j
		}
	}
	if best < 0 {
		return "", false
	}
	if delta := uint32(idx-best) * InstrSize; delta != 0 {
		return fmt.Sprintf("%s:%s+%#x", s.Image, s.Symbols[best], delta), true
	}
	return fmt.Sprintf("%s:%s", s.Image, s.Symbols[best]), true
}

// Clone returns a code map sharing the same (immutable) spans. The
// clone's cache is independent.
func (cm *CodeMap) Clone() *CodeMap {
	return &CodeMap{spans: append([]*Span(nil), cm.spans...)}
}

// Reset drops all spans (execve()).
func (cm *CodeMap) Reset() {
	cm.spans = nil
	cm.last = nil
}
