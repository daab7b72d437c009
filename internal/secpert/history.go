package secpert

import (
	"fmt"
	"strings"
)

// History is Secpert's cross-session memory (paper §10, future work
// items 6 and 8): it records which files monitored programs created
// in previous sessions — so that a file downloaded in one execution
// and executed in a later one escalates to High — and which warnings
// the user explicitly approved, which are suppressed on repetition to
// reduce false positives.
//
// A History outlives individual Secpert instances: create one, pass
// it through Config.History to every session, and call
// Secpert.FinishSession at the end of each run to commit the
// session's observations.
type History struct {
	// writtenFiles maps file path -> the session ordinal that wrote
	// it (for the explanation line).
	writtenFiles map[string]int
	// approved holds keys of warnings the user allowed.
	approved map[string]bool
	sessions int
}

// NewHistory returns an empty cross-session memory.
func NewHistory() *History {
	return &History{
		writtenFiles: make(map[string]int),
		approved:     make(map[string]bool),
	}
}

// WrittenIn reports whether a previous session wrote the file, and in
// which session.
func (h *History) WrittenIn(path string) (int, bool) {
	s, ok := h.writtenFiles[path]
	return s, ok
}

// warningKey canonicalizes a warning for approval matching: the rule
// plus the message head.
func warningKey(w *Warning) string {
	head := w.Message
	if i := strings.IndexByte(head, '\n'); i >= 0 {
		head = head[:i]
	}
	return w.Rule + "|" + head
}

// Approve records the user's decision to allow this warning; future
// sessions suppress identical warnings (future work item 8: "reduce
// the number of false positives ... using user feedback and an
// adaptive policy").
func (h *History) Approve(w *Warning) {
	h.approved[warningKey(w)] = true
}

// Approved reports whether an identical warning was approved before.
func (h *History) Approved(w *Warning) bool {
	return h.approved[warningKey(w)]
}

// commit merges one session's observations.
func (h *History) commit(files []string) {
	h.sessions++
	for _, f := range files {
		if _, seen := h.writtenFiles[f]; !seen {
			h.writtenFiles[f] = h.sessions
		}
	}
}

// FinishSession commits this run's observations into the configured
// History. Call once, after the guest finished. Safe to call without
// a History configured.
func (s *Secpert) FinishSession() {
	if s.cfg.History == nil {
		return
	}
	s.cfg.History.commit(s.sessionWrites)
	s.sessionWrites = nil
}

// Suppressed returns how many warnings were silenced by prior user
// approval this session.
func (s *Secpert) Suppressed() int { return s.suppressed }

// historyLine renders the escalation explanation for check_execve.
func historyLine(path string, session int) string {
	return fmt.Sprintf(
		"%s was created by a monitored program in a previous session (session %d)", path, session)
}
