package harrier

import "repro/internal/isa"

// CompileTrace compiles the trace headed by instruction leader of s
// exactly as promotion would, returning nil when it compiles to
// nothing (the head is pinned). It exists for external tests that need
// the corpus, which imports this package.
func (h *Harrier) CompileTrace(s *isa.Span, leader int) any {
	if tr := h.compileTrace(s, leader, false); tr != nil {
		return tr
	}
	return nil
}

// CleanEligible reports whether a trace CompileTrace returned carries
// a clean-tier footprint.
func CleanEligible(tr any) bool { return tr.(*blockTrace).clean.ok }
