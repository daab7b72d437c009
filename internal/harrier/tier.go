package harrier

import (
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vos"
)

// Tier state machine. Every block starts in the interpreter tier
// (per-instruction Hooks.OnInstr dispatch). When its frequency
// counter — the one Collect_BB_Frequency already maintains — reaches
// Config.PromoteThreshold, the block is compiled once:
//
//   - compilable  -> a *blockSummary lands in the span's summary slot
//     and subsequent entries take the Hooks.OnBBSummary fast path;
//   - unmodelable -> a tierPinned marker lands in the slot, recording
//     that compilation was attempted and must not be retried: the
//     block stays in the interpreter tier permanently.
//
// A summarized block that stays hot climbs once more: when its counter
// reaches Config.TraceThreshold, the summary-tier handler compiles a
// superblock trace (trace.go) rooted at the block and installs it in
// the same slot, keeping the summary as the trace head. From then on
// every entry runs the trace: a scheduler quantum that runs out inside
// it stops the run on the exact instruction and the next slice resumes
// it there, so the summary is never applied in its place. A block
// whose trace compilation yields nothing is pinned at the summary tier
// via blockSummary.traceTried.
//
// Demotion happens on execve: the process's code map is about to be
// torn down, so PreExec drops every summary installed on its spans
// (spans can be shared with a forked parent, which simply re-promotes
// on its next hot entry — the trigger fires whenever the counter is
// past the threshold and the slot is empty). Exited processes need no
// demotion: their spans die with them, and spans shared with live
// relatives remain valid because spans are immutable.

// tierPinned marks a block whose compilation failed: permanently
// interpreter-tier, never recompiled (until the slot is dropped).
type tierPinned struct{}

// blockSummary is an installed summary plus the apply-time context
// that lets the fast path skip collectBBFrequency entirely: the
// block's frequency counter, its attribution key, and whether it
// belongs to the application image.
type blockSummary struct {
	Summary
	owner      *Harrier
	ctr        *int64
	key        bbKey
	isApp      bool
	traceTried bool

	// clean is the fourth-tier demotion state (see cleantier.go):
	// footprint eligibility plus cached clean verdicts.
	clean cleanState
}

// maybePromote is the tier transition, called from collectBBFrequency
// once the counter passes the threshold and the slot is empty.
// Out of line: the interpreter tier pays one compare per block entry.
//
//go:noinline
func (h *Harrier) maybePromote(c *isa.CPU, s *isa.Span, leader int, key bbKey, ctr *int64) {
	sum, ok := compileBlock(h.Store, s, leader, h.binTag(s.Image), h.hwTag)
	if !ok {
		s.SetBBSummary(leader, tierPinned{})
		h.stats.TierPinned++
		return
	}
	p := c.Ctx.(*vos.Process)
	bs := &blockSummary{
		Summary: *sum,
		owner:   h,
		ctr:     ctr,
		key:     key,
		isApp:   s.Image == p.Path,
	}
	if h.cleanThreshold > 0 {
		// A summary's addresses are entry-relative by construction, so
		// eligibility only depends on the footprint caps.
		bs.clean.initFootprint(sum.ops)
	}
	s.SetBBSummary(leader, bs)
	h.stats.TierPromoted++
	if h.bus != nil {
		h.bus.Publish(obs.Event{
			Time: p.OS.Clock, Layer: obs.LayerHarrier, Kind: obs.KindBBPromote,
			PID: int32(p.PID), Num: uint64(key.addr), Num2: uint64(len(sum.ops)),
			Str: key.image,
		})
	}
}

// onBBSummary is the Hooks.OnBBSummary handler: the whole-block (or
// whole-trace) fast path. A *blockSummary entry may first climb to the
// trace tier if its counter has reached the trace threshold; otherwise
// the summary is applied and the fetch loop executes the block with
// OnBB/OnInstr suppressed. A *blockTrace entry executes the compiled
// trace outright — the fetch loop skips the covered instructions
// entirely — and s == nil offers one back to resume a budget stop
// (isa.TraceResume).
func (h *Harrier) onBBSummary(c *isa.CPU, s *isa.Span, leader int, summary any) (isa.SummaryAction, error) {
	switch sum := summary.(type) {
	case *blockSummary:
		if sum.owner != h || c.Shadow == nil {
			return isa.SummaryDecline, nil
		}
		if h.traceThreshold > 0 && !sum.traceTried && *sum.ctr >= h.traceThreshold {
			sum.traceTried = true
			if tr := h.maybeTrace(c, s, leader, sum); tr != nil {
				s.SetBBSummary(leader, tr)
				return h.enterTrace(c, tr)
			}
		}
		if h.applySummary(c, sum) {
			return isa.SummaryClean, nil
		}
		return isa.SummaryBlock, nil
	case *blockTrace:
		if sum.head.owner != h || c.Shadow == nil {
			return isa.SummaryDecline, nil
		}
		if s == nil {
			return h.resumeTrace(c, sum)
		}
		return h.enterTrace(c, sum)
	}
	return isa.SummaryDecline, nil
}

// applySummary reproduces exactly what one interpreter-tier traversal
// of the block performs — the frequency count, the last-app
// attribution, the instrumented-instruction statistics with their
// sampling boundary, and the taint transfer. It returns true when the
// clean tier served the entry: every observable side effect above
// still happened, but the transfer was proven a no-op and skipped
// (the caller answers SummaryClean so the block runs uninstrumented).
func (h *Harrier) applySummary(c *isa.CPU, sum *blockSummary) bool {
	h.stats.Blocks++
	ctr := sum.ctr
	*ctr++
	if h.prov != nil {
		// Same execution point as the interpreter tier's scan (block
		// entry, before any of the block's transfers apply), so the
		// attribution stream is tier-independent up to the tier flag.
		p := c.Ctx.(*vos.Process)
		h.provBlockScan(c, p.OS.Clock, int32(p.PID), sum.key.addr, sum.key.image, true)
	}
	if h.bus != nil && uint64(*ctr)&(bbRollQuantum-1) == 0 {
		h.publishBBRoll(c, sum, *ctr)
	}
	if sum.isApp {
		p := c.Ctx.(*vos.Process)
		if p.PID != h.appCachePID {
			h.flushApp()
			h.appCachePID = p.PID
		}
		h.appCacheKey = sum.key
	}
	// Batch-increment the instrumented-instruction counter; publish a
	// taint sample whenever the batch crosses the same quantum boundary
	// the per-instruction increment would have hit.
	old := h.stats.Instructions
	h.stats.Instructions = old + sum.nData
	if h.bus != nil && old>>taintSampleShift != h.stats.Instructions>>taintSampleShift {
		h.publishTaintSample(c)
	}
	if sum.clean.ok && *ctr >= h.cleanThreshold && h.cleanThreshold > 0 &&
		h.cleanProbeSum(c, sum) {
		h.stats.CleanHits++
		if h.tt != nil {
			h.tt.Touch(obs.TierClean)
		}
		return true
	}
	h.stats.TierHits++
	if h.tt != nil {
		h.tt.Touch(obs.TierSummary)
	}
	h.applyOps(c, sum.ops)
	return false
}

// publishBBRoll emits the rollover event for a summary-tier counter;
// out of line to keep the accept path lean.
//
//go:noinline
func (h *Harrier) publishBBRoll(c *isa.CPU, sum *blockSummary, n int64) {
	p := c.Ctx.(*vos.Process)
	h.bus.Publish(obs.Event{
		Time: p.OS.Clock, Layer: obs.LayerHarrier, Kind: obs.KindBBRoll,
		PID: int32(p.PID), Num: uint64(sum.key.addr), Num2: uint64(n),
		Str: sum.key.image,
	})
}

// PreExec implements vos.PreExecMonitor: execve is about to tear down
// p's code map, so every summary compiled against its spans is
// dropped. Summaries and traces owned by this Harrier count as
// demotions; pinned markers are dropped too (a span surviving via a
// forked relative may re-attempt compilation — compilation is
// deterministic, so it pins again).
func (h *Harrier) PreExec(p *vos.Process) {
	for _, s := range p.CPU.Code.Spans() {
		for i := range s.Instrs {
			switch sum := s.BBSummary(i).(type) {
			case *blockSummary:
				if sum.owner == h {
					h.stats.TierDemoted++
				}
			case *blockTrace:
				if sum.head.owner == h {
					h.stats.TierTraceDemoted++
				}
			}
		}
		s.DropSummaries()
	}
}
