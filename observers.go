package hth

import (
	"io"

	"repro/internal/obs"
)

// Observer consumes the structured event stream of a run: syscall
// enter/exit with virtual timestamps, scheduler decisions, fd
// lifecycle, taint-substrate samples, BB counter rollovers, rule
// fires, warnings, and injected chaos faults. Observers are attached
// by appending to Config.Observers and invoked synchronously in event
// order; see the obs package for the event taxonomy.
type Observer = obs.Sink

// Event is one observation delivered to an Observer.
type Event = obs.Event

// Metrics is the counters/histograms registry sink: append one to
// Config.Observers and read m.Snapshot() once the run returns.
type Metrics = obs.Metrics

// MetricsSnapshot is a JSON-ready view of a Metrics registry.
type MetricsSnapshot = obs.Snapshot

// JSONL returns an Observer streaming the run trace to w as JSON
// Lines, one event per line. Replay and filter it with
// `hth-trace -replay`.
func JSONL(w io.Writer) Observer { return obs.JSONL(w) }

// NewMetrics returns an empty metrics registry Observer. One registry
// may be shared across runs; counts accumulate.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// CLIPSText returns an Observer rendering Secpert's CLIPS-style fire
// trace and warning printout to w, exactly the bytes the engine
// writes, in order. It is how `hth -verbose` prints the trace.
func CLIPSText(w io.Writer) Observer { return obs.CLIPSText(w) }

// CLIPSTranscript is CLIPSText plus the Appendix-A.1 assert echo: a
// "CLIPS> (assert ...)" line before every event fact Secpert judges
// (`hth -verbose -trace`).
func CLIPSTranscript(w io.Writer) Observer { return obs.CLIPSTranscript(w) }

// Provenance is the per-source causal chain recorder (see
// Config.Provenance).
type Provenance = obs.Provenance
