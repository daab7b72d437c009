package harrier

import (
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vos"
)

// Tier state machine: the interpreter → trace → clean ladder. Every
// block starts in the interpreter tier (per-instruction Hooks.OnInstr
// dispatch). When its frequency counter — the one Collect_BB_Frequency
// already maintains — reaches Config.PromoteThreshold, the block is
// compiled once, as the head of a superblock trace (trace.go):
//
//   - a trace   -> the *blockTrace lands in the span's slot and every
//     later entry runs it through the Hooks.OnBBSummary fast path;
//   - nothing   -> (the head's first instruction is one no trace can
//     consume: CALL, RET, INT, ...) a tierPinned marker lands in the
//     slot, recording that compilation was attempted and must not be
//     retried: the block stays in the interpreter tier.
//
// A scheduler quantum that runs out inside a trace stops the run on
// the exact instruction and the next slice resumes it there. Whenever
// a trace's footprint and entry tags are provably clean it runs bare,
// on the clean tier (cleantier.go).
//
// Demotion happens on execve: the process's code map is about to be
// torn down, so PreExec drops every trace installed on its spans
// (spans can be shared with a forked parent, which simply re-promotes
// on its next hot entry — the trigger fires whenever the counter is
// past the threshold and the slot is empty; compilation is
// deterministic, so it yields the same trace). Exited processes need
// no demotion: their spans die with them, and spans shared with live
// relatives remain valid because spans are immutable.

// tierPinned marks a block whose trace compiled to nothing:
// permanently interpreter-tier, never recompiled (until the slot is
// dropped).
type tierPinned struct{}

// maybePromote is the tier transition, called from collectBBFrequency
// once the counter passes the threshold and the slot is empty.
// Out of line: the interpreter tier pays one compare per block entry.
//
//go:noinline
func (h *Harrier) maybePromote(c *isa.CPU, s *isa.Span, leader int, key bbKey) {
	p := c.Ctx.(*vos.Process)
	tr := h.compileTrace(s, leader, s.Image == p.Path)
	if tr == nil {
		s.SetBBSummary(leader, tierPinned{})
		h.stats.TierPinned++
		return
	}
	s.SetBBSummary(leader, tr)
	h.stats.TraceCompiled++
	if h.bus != nil {
		h.bus.Publish(obs.Event{
			Time: p.OS.Clock, Layer: obs.LayerHarrier, Kind: obs.KindBBTrace,
			PID: int32(p.PID), Num: uint64(key.addr), Num2: uint64(len(tr.mops)),
			Str: key.image,
		})
	}
}

// onBBSummary is the Hooks.OnBBSummary handler: a *blockTrace this
// Harrier compiled executes outright — the fetch loop skips the
// covered instructions entirely — and s == nil offers one back to
// resume a budget stop (isa.TraceResume). Anything else (a pinned
// marker, a foreign trace) is declined to the interpreter tier.
func (h *Harrier) onBBSummary(c *isa.CPU, s *isa.Span, leader int, slot any) (isa.SummaryAction, error) {
	tr, ok := slot.(*blockTrace)
	if !ok || tr.owner != h || c.Shadow == nil {
		return isa.SummaryDecline, nil
	}
	if s == nil {
		return h.resumeTrace(c, tr)
	}
	return h.enterTrace(c, tr)
}

// PreExec implements vos.PreExecMonitor: execve is about to tear down
// p's code map, so every trace compiled against its spans is dropped.
// Traces owned by this Harrier count as demotions; pinned markers are
// dropped too (a span surviving via a forked relative may re-attempt
// compilation — compilation is deterministic, so it pins again).
func (h *Harrier) PreExec(p *vos.Process) {
	for _, s := range p.CPU.Code.Spans() {
		for i := range s.Instrs {
			if tr, ok := s.BBSummary(i).(*blockTrace); ok && tr.owner == h {
				h.stats.TierTraceDemoted++
			}
		}
		s.DropSummaries()
	}
}
