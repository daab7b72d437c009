package corpus

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/pprof"

	hth "repro"
	"repro/internal/chaos"
	"repro/internal/pool"
)

// RunOutcome is the result of one scenario in a RunAll sweep.
type RunOutcome struct {
	Scenario *Scenario
	Result   *hth.Result
	Err      error
	// Problems holds the Check() discrepancies; empty with a nil Err
	// means the scenario reproduced the paper's row.
	Problems []string
}

// Reproduced reports whether the scenario ran and matched expectation.
func (o *RunOutcome) Reproduced() bool {
	return o.Err == nil && len(o.Problems) == 0
}

// RunAll executes the scenarios on a pool of the given width
// (parallelism <= 0 selects GOMAXPROCS) and returns one outcome per
// scenario, in input order. Every scenario builds a private
// hth.System, and the shared registry is read-only, so concurrent
// runs share no mutable state: a sweep's outcomes are identical at
// any parallelism, including 1.
func RunAll(scenarios []*Scenario, parallelism int) []RunOutcome {
	return runAll(scenarios, parallelism, nil)
}

// chaosMaxSteps bounds guest execution during fault-injecting sweeps:
// an injected error can send a guest's retry loop spinning, and the
// run must become a structured vos.ErrBudget outcome quickly instead
// of burning the full default budget under taint tracking. The cap is
// a virtual-instruction count, so chaos sweeps stay deterministic.
const chaosMaxSteps = 2_000_000

// RunAllChaos is RunAll under a chaos plan: every scenario runs with a
// fault injector seeded from plan.Derive(scenario name), so the
// per-scenario fault streams do not depend on worker scheduling and
// the whole sweep is reproducible from (plan, corpus) alone.
//
// Zero-rate plans leave the scenario configuration untouched apart
// from the (inert) injector, so their sweeps are bit-identical to
// RunAll. Fault-injecting plans additionally tighten the step budget
// to chaosMaxSteps.
func RunAllChaos(scenarios []*Scenario, parallelism int, plan chaos.Plan) []RunOutcome {
	return RunAllChaosWith(scenarios, parallelism, plan, nil)
}

// RunAllChaosWith is RunAllChaos with an additional per-scenario
// configuration hook, applied after the chaos wiring. The chaos gate
// uses it to assert that the tiered and interpreter taint engines
// stay signature-identical under an active fault plan.
func RunAllChaosWith(scenarios []*Scenario, parallelism int, plan chaos.Plan, tweak func(*Scenario, *hth.Config)) []RunOutcome {
	return runAll(scenarios, parallelism, func(sc *Scenario, cfg *hth.Config) {
		derived := plan.Derive(sc.Name)
		cfg.Chaos = &derived
		if plan.Rate > 0 && (cfg.MaxSteps == 0 || cfg.MaxSteps > chaosMaxSteps) {
			cfg.MaxSteps = chaosMaxSteps
		}
		if tweak != nil {
			tweak(sc, cfg)
		}
	})
}

// runAll fans the sweep out on an internal/pool worker pool — the
// same substrate the analysis service runs its jobs on — with an unbounded
// queue (every scenario must execute) and per-task panic containment
// already provided by runScenario. extra, if non-nil, is a per-scenario
// configuration hook applied after the scenario's own tweaks: it is
// how the differential sweeps pin engine knobs corpus rows do not own.
func runAll(scenarios []*Scenario, parallelism int, extra func(*Scenario, *hth.Config)) []RunOutcome {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(scenarios) {
		parallelism = len(scenarios)
	}
	out := make([]RunOutcome, len(scenarios))
	p := pool.New(pool.Options{Workers: parallelism})
	for i := range scenarios {
		i := i
		sc := scenarios[i]
		p.Submit(pool.Task{Run: func() {
			// Label the worker's profile samples with the scenario,
			// so a CPU/heap profile of a sweep attributes cost to
			// individual corpus rows.
			pprof.Do(context.Background(),
				pprof.Labels("hth.scenario", sc.Name, "hth.table", sc.Table),
				func(context.Context) { out[i] = runScenario(sc, extra) })
		}})
	}
	p.Close()
	return out
}

// runScenario executes one scenario, containing any panic — from the
// scenario's own Setup/Tweak/Check hooks, or anything hth's own run
// boundary did not already convert — as a structured outcome error.
// One crashing scenario therefore never takes down a sweep or its
// worker goroutine.
func runScenario(sc *Scenario, extra func(*Scenario, *hth.Config)) (o RunOutcome) {
	o.Scenario = sc
	defer func() {
		if r := recover(); r != nil {
			o.Result = nil
			o.Problems = nil
			o.Err = fmt.Errorf("corpus: scenario %s panicked: %v", sc.Name, r)
		}
	}()
	var hook func(*hth.Config)
	if extra != nil {
		hook = func(cfg *hth.Config) { extra(sc, cfg) }
	}
	o.Result, o.Err = sc.RunWith(hook)
	if o.Err == nil {
		o.Problems = sc.Check(o.Result)
	}
	return o
}

// SweepSignature reduces a sweep to one line per scenario capturing
// its observable detection behaviour: executed steps, outcome,
// problem count, injected-fault count, and an FNV-64a hash of the
// full warning text. Two sweeps whose signatures match element-wise
// produced bit-identical detections, so zero-rate chaos runs can be
// checked against their baseline cheaply.
func SweepSignature(outs []RunOutcome) []string {
	sig := make([]string, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			sig[i] = fmt.Sprintf("%s: error %v", o.Scenario.Name, o.Err)
			continue
		}
		h := fnv.New64a()
		for _, w := range o.Result.Warnings {
			io.WriteString(h, w.String())
			io.WriteString(h, "\x00")
		}
		sig[i] = fmt.Sprintf("%s: steps=%d outcome=%q problems=%d faults=%d warnhash=%016x",
			o.Scenario.Name, o.Result.TotalSteps, Outcome(o.Result),
			len(o.Problems), len(o.Result.Chaos), h.Sum64())
	}
	return sig
}
