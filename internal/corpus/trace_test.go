package corpus

import (
	"testing"

	hth "repro"
)

// TestTraceDifferentialSweep is the trace tier's correctness gate,
// mirroring TestTierDifferentialSweep one rung up the ladder: the full
// corpus runs with the trace tier disabled (summary tier only) and
// with aggressive trace promotion, crossed with provenance recording
// on and off, and the sweep signatures must match element-wise in
// every cell. Detections, reported tag sets and injected faults are
// therefore bit-identical whether blocks execute in the interpreter,
// as summaries, or as compiled traces. The traces' tag-free loop is
// exercised by TestCleanTierDifferentialSweep and
// FuzzCleanReinstrument.
func TestTraceDifferentialSweep(t *testing.T) {
	scs := All()
	cell := func(traceThreshold int, prov bool) []RunOutcome {
		return RunAllWith(scs, 0, func(_ *Scenario, cfg *hth.Config) {
			cfg.Monitor.PromoteThreshold = 1
			cfg.Monitor.TraceThreshold = traceThreshold
			cfg.Provenance = prov
		})
	}
	base := cell(0, false)
	ref := SweepSignature(base)
	for _, c := range []struct {
		name           string
		traceThreshold int
		prov           bool
	}{
		{"traces", 2, false},
		{"traces+prov", 2, true},
		{"prov-only", 0, true},
	} {
		got := SweepSignature(cell(c.traceThreshold, c.prov))
		for i := range ref {
			if ref[i] != got[i] {
				t.Errorf("%s divergence:\n  base: %s\n  %s: %s", c.name, ref[i], c.name, got[i])
			}
		}
	}
	// The traced cells must actually have exercised the trace tier, or
	// the comparison proves nothing.
	traced := cell(2, false)
	hits := 0
	for _, o := range traced {
		if o.Result != nil && o.Result.Stats.TraceHits > 0 {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no scenario took the trace tier; differential sweep is vacuous")
	}
	t.Logf("trace tier exercised by %d/%d scenarios", hits, len(traced))
}
