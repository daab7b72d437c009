package corpus

import (
	"testing"

	hth "repro"
)

// TestProvenanceDifferentialSweep is the provenance acceptance gate:
// recording provenance must be a pure observer. The full corpus runs
// four ways — provenance off/on crossed with the interpreter and
// trace tiers — and the sweep signatures (steps, outcome, problems,
// faults, warning-text hash) must match element-wise across all four.
// On top of bit-identity, every warning emitted with provenance on
// must carry a non-empty causal chain, and warnings with provenance
// off must carry none.
func TestProvenanceDifferentialSweep(t *testing.T) {
	scs := All()
	sweep := func(prov bool, threshold int) []RunOutcome {
		return runAll(scs, 0, func(_ *Scenario, cfg *hth.Config) {
			cfg.Provenance = prov
			cfg.Monitor.PromoteThreshold = threshold
		})
	}
	off0 := sweep(false, 0)
	off1 := sweep(false, 1)
	on0 := sweep(true, 0)
	on1 := sweep(true, 1)

	base := SweepSignature(off0)
	for name, other := range map[string][]RunOutcome{
		"tiered":            off1,
		"provenance":        on0,
		"provenance+tiered": on1,
	} {
		sig := SweepSignature(other)
		for i := range base {
			if base[i] != sig[i] {
				t.Errorf("%s sweep diverged from baseline:\n  baseline: %s\n  %s: %s",
					name, base[i], name, sig[i])
			}
		}
	}

	// Chains: always present with provenance on, never without.
	warned := 0
	for _, outs := range [][]RunOutcome{on0, on1} {
		for _, o := range outs {
			if o.Result == nil {
				continue
			}
			for _, w := range o.Result.Warnings {
				warned++
				if len(w.Chain) == 0 {
					t.Errorf("%s: warning %q has no provenance chain", o.Scenario.Name, w.Rule)
				}
			}
		}
	}
	for _, o := range append(append([]RunOutcome(nil), off0...), off1...) {
		if o.Result == nil {
			continue
		}
		for _, w := range o.Result.Warnings {
			if len(w.Chain) != 0 {
				t.Errorf("%s: provenance-off warning %q carries a chain %v", o.Scenario.Name, w.Rule, w.Chain)
			}
		}
	}

	// Non-vacuity: the sweeps must have warned and taken the trace tier.
	if warned == 0 {
		t.Fatal("no warnings across provenance sweeps; chain check is vacuous")
	}
	traced := 0
	for _, o := range on1 {
		if o.Result != nil && o.Result.Stats.TraceHits > 0 {
			traced++
		}
	}
	if traced == 0 {
		t.Fatal("no scenario took the trace tier with provenance on; differential is vacuous")
	}
}
