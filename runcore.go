package hth

import (
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/harrier"
	"repro/internal/obs"
	"repro/internal/secpert"
	"repro/internal/vos"
)

// runCore is the one normalized setup/teardown path behind System.Run
// and Session: budget application, chaos wiring, the observability
// bus, monitor+policy construction, and Result assembly each exist
// exactly once here.
type runCore struct {
	sys    *System
	cfg    Config
	bus    *obs.Bus
	sec    *secpert.Secpert
	h      *harrier.Harrier
	inj    *chaos.Injector
	flight *obs.Flight
	prov   *obs.Provenance

	// Span tracing (Config.Spans): the recorder holding this run's
	// phase spans, the parent every phase span hangs under, the root
	// span this core opened itself (0 when an embedding service owns
	// the trace root), and the per-tier execution-time attributor.
	spans      *obs.SpanRecorder
	spanParent uint64
	spanRoot   uint64
	tt         *obs.TierTimer
	// tierNs is tt's per-tier totals, flushed once as finish begins so
	// Result assembly is never charged to the last tier; the tier.*
	// spans and the harrier.span.tier_ns.* gauges both report it.
	tierNs [len(obs.TierNames)]int64
}

// newRunCore normalizes the configuration and arms the system:
// instruction/wall/descriptor budgets, the event bus (attached to
// every layer, or detached when no observers are configured), the
// chaos injector, and — unless Unmonitored — a fresh Secpert+Harrier
// pair with the engine's text taps wired onto the bus.
func newRunCore(s *System, cfg Config) *runCore {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 50_000_000
	}
	rc := &runCore{sys: s, cfg: cfg}
	os := s.OS
	os.SetMaxSteps(cfg.MaxSteps)
	// Long-lived sinks shared across pooled runs latch their first
	// write error; clear it here so Result.ObserverErr reports this
	// run's health, not a previous run's.
	obs.ResetErrs(cfg.Observers)
	// The flight recorder rides the same bus as user observers. A run
	// with no observers and no FlightPath stays on the nil bus: publish
	// sites pay one nil-check and nothing else.
	sinks := cfg.Observers
	if cfg.FlightPath != "" {
		rc.flight = obs.NewFlight(0)
		sinks = append(append([]Observer(nil), cfg.Observers...), rc.flight)
	}
	if len(sinks) > 0 {
		rc.bus = obs.NewBus(sinks...)
		rc.bus.SetClock(func() uint64 { return os.Clock })
	}
	os.SetBus(rc.bus) // nil detaches a previous run's bus
	if cfg.Deadline > 0 {
		os.SetDeadline(cfg.Deadline)
	}
	if cfg.MaxOpenFDs != 0 {
		os.SetMaxOpenFDs(cfg.MaxOpenFDs)
	}
	if cfg.Chaos != nil {
		rc.inj = chaos.New(*cfg.Chaos)
		rc.inj.SetBus(rc.bus)
		os.SetInjector(rc.inj)
	}
	// Span tracing: a run either grafts its phase spans under an
	// embedding service's job trace (spanRec set, publish hook already
	// installed by the service) or owns a fresh trace rooted at a
	// "run" span mirrored onto this run's own bus.
	var instSpan uint64
	if cfg.Spans {
		rec, parent := cfg.spanRec, cfg.spanParent
		if rec == nil {
			rec = obs.NewSpanRecorder("run")
			if rc.bus != nil {
				bus := rc.bus
				rec.SetPublish(func(e obs.Event) {
					e.Layer = obs.LayerRun
					bus.Publish(e)
				})
			}
		}
		if parent == 0 {
			parent = rec.StartSpan(0, "run")
			rc.spanRoot = parent
		}
		rc.spans, rc.spanParent = rec, parent
		instSpan = rec.StartSpan(parent, "instrument")
	}
	if !cfg.Unmonitored {
		rc.sec = secpert.New(cfg.Policy, cfg.Advisor)
		rc.wireSecpert()
		rc.h = harrier.New(cfg.Monitor, rc.sec)
		rc.h.SetBus(rc.bus)
		if cfg.Provenance {
			rc.prov = obs.NewProvenance(0)
			rc.h.SetProvenance(rc.prov)
			rc.sec.SetChainResolver(rc.h.ProvenanceChains)
			if cfg.Symbolize {
				// Resolve block addresses against every live process's
				// code map at render time, so chains cite
				// "image:symbol+delta" frames for any image that carries
				// symbols (ELF symtabs, source labels). Resolution is
				// read-only (CodeMap.Symbolize never touches the lookup
				// cache) and a miss falls back to the raw address.
				rc.prov.SetSymbolizer(func(addr uint32) (string, bool) {
					for _, p := range os.Processes() {
						if frame, ok := p.CPU.Code.Symbolize(addr); ok {
							return frame, true
						}
					}
					return "", false
				})
			}
		}
	}
	if rc.spans != nil {
		if rc.h != nil {
			rc.tt = obs.NewTierTimer()
			rc.h.SetTierTimer(rc.tt)
		}
		rc.spans.EndSpan(instSpan, "ok")
	}
	return rc
}

// abort tears down a core whose run never happened: the bus is closed,
// flushing observers.
func (rc *runCore) abort() {
	if rc.spans != nil {
		rc.spans.EndSpan(rc.spanRoot, "error")
	}
	rc.bus.Close() // nil-safe
}

// wireSecpert taps the expert engine's text output onto the bus: the
// fire trace and warning printout as sec.text events, the assert echo
// as sec.assert events, which the CLIPSText and CLIPSTranscript sinks
// render back to bytes. Without a bus the engine renders nothing.
func (rc *runCore) wireSecpert() {
	if rc.bus == nil {
		return
	}
	rc.sec.SetOutput(obs.TextWriter(rc.bus, obs.LayerSecpert, obs.KindSecText))
	rc.sec.SetAssertEcho(obs.TextWriter(rc.bus, obs.LayerSecpert, obs.KindSecAssert))
	rc.sec.SetBus(rc.bus)
}

// start launches one program under this core's monitor (if any),
// publishing the run.start event.
func (rc *runCore) start(spec RunSpec) (*vos.Process, error) {
	var loadSpan uint64
	if rc.spans != nil {
		loadSpan = rc.spans.StartSpan(rc.spanParent, "load")
	}
	if rc.bus != nil {
		rc.bus.Publish(obs.Event{
			Layer: obs.LayerRun, Kind: obs.KindRunStart, Str: spec.Path,
		})
	}
	pspec := vos.ProcSpec{
		Path:  spec.Path,
		Argv:  spec.Argv,
		Env:   spec.Env,
		Stdin: spec.Stdin,
	}
	if rc.h != nil {
		pspec.Monitor = rc.h
		pspec.Store = rc.h.Store
	}
	p, err := rc.sys.OS.StartProcess(pspec)
	if rc.spans != nil {
		status := "ok"
		if err != nil {
			status = "error"
		}
		rc.spans.EndSpan(loadSpan, status)
	}
	return p, err
}

// finish assembles the Result, publishes the end-of-run metric events,
// and closes the bus.
func (rc *runCore) finish(root *vos.Process, runErr error, wall time.Duration) *Result {
	if rc.tt != nil {
		rc.tierNs = rc.tt.Flush()
	}
	os := rc.sys.OS
	res := &Result{
		Console:    append([]byte(nil), os.Console...),
		Process:    root,
		TotalSteps: os.TotalSteps,
		RunErr:     runErr,
	}
	if rc.h != nil {
		rc.sec.FinishSession() // commit cross-session history, if any
		res.Warnings = rc.sec.Warnings()
		res.Stats = rc.h.Stats()
		res.Events = rc.h.EventLog()
		res.Secpert = rc.sec
		res.monitor = rc.h
	}
	if rc.inj != nil {
		res.Chaos = rc.inj.Faults()
	}
	if rc.spans != nil {
		// The execute span is synthesized from the wall time the caller
		// measured around the scheduler, with per-tier children carved
		// out of it from the TierTimer's transition-sampled totals (laid
		// end to end — attribution, not a literal timeline). The report
		// span covers Result assembly, which just happened above.
		execEnd := rc.spans.Now()
		execStart := execEnd - wall.Nanoseconds()
		es := rc.spans.AddSpan(rc.spanParent, "execute", execStart, execEnd, runOutcome(runErr))
		if rc.tt != nil {
			cur := execStart
			for i, name := range obs.TierNames {
				rc.spans.AddSpan(es, "tier."+name, cur, cur+rc.tierNs[i], "")
				cur += rc.tierNs[i]
			}
		}
		rc.spans.AddSpan(rc.spanParent, "report", execEnd, rc.spans.Now(), "ok")
		rc.spans.EndSpan(rc.spanRoot, runOutcome(runErr)) // no-op for service-owned traces
		res.Spans = rc.spans
	}
	if rc.bus != nil {
		rc.publishRunEnd(runErr, wall)
		res.ObserverErr = rc.bus.Close()
	}
	res.Provenance = rc.prov
	// Automatic black-box dump: anything abnormal — a warning, a
	// scheduler outcome, a guest fault, or an injected chaos fault —
	// flushes the flight ring to disk for post-mortem replay.
	if rc.flight != nil && (len(res.Warnings) > 0 || runErr != nil ||
		(root != nil && root.Fault != nil) || len(res.Chaos) > 0) {
		if err := rc.flight.DumpFile(rc.cfg.FlightPath); err != nil && res.ObserverErr == nil {
			res.ObserverErr = err
		}
	}
	return res
}

// publishRunEnd emits the end-of-run snapshot: a final taint-substrate
// sample, the shadow-TLB totals across the process tree, the taint-set
// width distribution, Harrier's instrumentation counters, and the
// closing run.end event. Everything except the wall-clock operand of
// run.end is a deterministic function of the guest execution.
func (rc *runCore) publishRunEnd(runErr error, wall time.Duration) {
	os := rc.sys.OS
	if rc.h != nil {
		_, unions, hits := rc.h.Store.Stats()
		rc.bus.Publish(obs.Event{
			Layer: obs.LayerHarrier, Kind: obs.KindTaintSample,
			Num: unions, Num2: hits,
		})
		var probes, misses uint64
		for _, p := range os.Processes() {
			if sh := p.CPU.Shadow; sh != nil {
				pr, mi := sh.TLBStats()
				probes += pr
				misses += mi
			}
		}
		if probes > 0 {
			rc.bus.Publish(obs.Event{
				Layer: obs.LayerHarrier, Kind: obs.KindTaintTLB,
				Num: probes, Num2: misses,
			})
		}
		widths := rc.h.Store.WidthHistogram()
		ws := make([]int, 0, len(widths))
		for w := range widths {
			ws = append(ws, w)
		}
		sort.Ints(ws)
		for _, w := range ws {
			rc.bus.Publish(obs.Event{
				Layer: obs.LayerRun, Kind: obs.KindMetricBucket,
				Str: "taint.width", Num: uint64(w), Num2: widths[w],
			})
		}
		st := rc.h.Stats()
		for _, g := range [...]struct {
			name string
			v    uint64
		}{
			{"harrier.instructions", st.Instructions},
			{"harrier.blocks", st.Blocks},
			{"harrier.access_events", st.AccessEvents},
			{"harrier.io_events", st.IOEvents},
			{"harrier.tier.pinned", st.TierPinned},
			{"harrier.tier.trace_demoted", st.TierTraceDemoted},
			{"harrier.trace.compiled", st.TraceCompiled},
			{"harrier.trace.hits", st.TraceHits},
			{"harrier.trace.side_exits", st.TraceSideExits},
			{"harrier.clean.hits", st.CleanHits},
			{"harrier.clean.demoted", st.CleanDemoted},
			{"harrier.clean.reinstrumented", st.Reinstrumented},
		} {
			rc.bus.Publish(obs.Event{
				Layer: obs.LayerRun, Kind: obs.KindMetric,
				Str: g.name, Num: g.v,
			})
		}
	}
	if rc.tt != nil {
		// Per-tier execution wall time, as attributed by the TierTimer.
		// All four gauges are always published (even when zero) so a
		// span-armed run's event count stays deterministic.
		for i, name := range obs.TierNames {
			rc.bus.Publish(obs.Event{
				Layer: obs.LayerRun, Kind: obs.KindMetric,
				Str: "harrier.span.tier_ns." + name, Num: uint64(rc.tierNs[i]),
			})
		}
	}
	rc.bus.Publish(obs.Event{
		Layer: obs.LayerRun, Kind: obs.KindRunEnd,
		Num: os.TotalSteps, Num2: uint64(wall.Nanoseconds()),
		Str: runOutcome(runErr),
	})
}

// runOutcome names a scheduler outcome for run.end events.
func runOutcome(err error) string {
	switch err {
	case nil:
		return "clean"
	case vos.ErrDeadlock:
		return "deadlock"
	case vos.ErrBudget:
		return "budget"
	case vos.ErrDeadline:
		return "deadline"
	}
	return "error"
}
