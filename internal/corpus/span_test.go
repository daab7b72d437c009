package corpus

import (
	"testing"

	hth "repro"
)

// TestSpanDifferentialSweep is the span plane's inertness gate: the
// full corpus runs with lifecycle spans off (the default) and on, and
// the sweep signatures must match element-wise. Span recording samples
// wall clocks and publishes events, but it must never perturb what the
// monitor observes — detections, tag sets, warning order, step counts —
// or the observability layer has become part of the experiment.
func TestSpanDifferentialSweep(t *testing.T) {
	scs := All()
	base := SweepSignature(RunAll(scs, 0))
	spanned := SweepSignature(runAll(scs, 0, func(_ *Scenario, cfg *hth.Config) {
		cfg.Spans = true
	}))
	for i := range base {
		if base[i] != spanned[i] {
			t.Errorf("span-armed divergence:\n  off: %s\n  on:  %s", base[i], spanned[i])
		}
	}
}
