package corpus

import (
	"testing"

	hth "repro"
)

// TestCleanTierDifferentialSweep is the clean tier's correctness gate,
// one rung above TestTraceDifferentialSweep: the full corpus (ELF
// fixtures included) runs at the interpreter tier, with traces, and
// with traces plus the clean tier, and the sweep signatures must match
// the interpreter's element-wise in every cell. Detections, reported
// tag sets, warning order and guest faults are therefore bit-identical
// whether a block executes instrumented (interpreter, trace) or
// demoted to the uninstrumented clean variant — the tier can only ever
// skip transfer that was proven a no-op, never a detection.
func TestCleanTierDifferentialSweep(t *testing.T) {
	scs := All()
	cell := func(promoteThreshold, cleanThreshold int) []RunOutcome {
		return runAll(scs, 0, func(_ *Scenario, cfg *hth.Config) {
			cfg.Monitor.PromoteThreshold = promoteThreshold
			cfg.Monitor.CleanThreshold = cleanThreshold
		})
	}
	ref := SweepSignature(cell(0, 0))
	var clean []RunOutcome
	for _, c := range []struct {
		name           string
		cleanThreshold int
	}{
		{"traces", 0},
		{"traces+clean", 1},
	} {
		outs := cell(1, c.cleanThreshold)
		got := SweepSignature(outs)
		for i := range ref {
			if ref[i] != got[i] {
				t.Errorf("%s divergence:\n  interp: %s\n  %s: %s", c.name, ref[i], c.name, got[i])
			}
		}
		if c.cleanThreshold > 0 {
			clean = outs
		}
	}
	// The clean cell must actually have demoted traces — and the
	// re-instrumentation seam must have fired somewhere — or the
	// comparison proves nothing.
	hits, reinst := 0, 0
	for _, o := range clean {
		if o.Result == nil {
			continue
		}
		if o.Result.Stats.CleanHits > 0 {
			hits++
		}
		if o.Result.Stats.Reinstrumented > 0 {
			reinst++
		}
	}
	if hits == 0 {
		t.Fatal("traces+clean: no scenario took the clean tier; differential sweep is vacuous")
	}
	t.Logf("traces+clean: clean tier exercised by %d/%d scenarios, re-instrumentation by %d",
		hits, len(clean), reinst)
}
