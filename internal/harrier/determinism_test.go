package harrier_test

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/harrier"
)

// TestTraceCompileDeterministic is the trace compiler's property test:
// compiling each leader of every corpus span twice against the same
// monitor yields deep-equal traces — mops, per-mop info, chained
// blocks and clean-tier footprint — or nothing both times. The
// guarantee is what makes re-promotion after an execve demotion (and
// re-pinning of shared spans) sound.
func TestTraceCompileDeterministic(t *testing.T) {
	compiled, pinned, clean := 0, 0, 0
	for _, sc := range corpus.All() {
		res, err := sc.RunWith(nil)
		if err != nil || res == nil || res.Process == nil {
			continue
		}
		h := harrier.New(harrier.DefaultConfig(), nil)
		for _, s := range res.Process.CPU.Code.Spans() {
			for i := range s.Instrs {
				if s.BBLeader[i] != i {
					continue
				}
				t1, t2 := h.CompileTrace(s, i), h.CompileTrace(s, i)
				if (t1 == nil) != (t2 == nil) {
					t.Fatalf("%s %s+%d: compile verdict flapped: %v then %v",
						sc.Name, s.Image, i, t1 != nil, t2 != nil)
				}
				if t1 == nil {
					pinned++
					continue
				}
				compiled++
				if harrier.CleanEligible(t1) {
					clean++
				}
				if !reflect.DeepEqual(t1, t2) {
					t.Errorf("%s %s+%d: nondeterministic trace compile:\n  first:  %+v\n  second: %+v",
						sc.Name, s.Image, i, t1, t2)
				}
			}
		}
	}
	if compiled == 0 || clean == 0 {
		t.Fatalf("%d traces compiled, %d clean-eligible across the corpus; property test is vacuous", compiled, clean)
	}
	t.Logf("corpus leaders: %d traced (%d clean-eligible), %d pinned", compiled, clean, pinned)
}
