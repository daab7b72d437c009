package harrier

import (
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/taint"
	"repro/internal/vos"
)

// This file is the top rung of the tiered taint engine's ladder
// (interpreter → trace → clean): the *clean tier*, the dynamic form of
// taint-scoped partial instrumentation (PAPERS.md, Thakur 2024), and
// the engine's one way of skipping taint work: hot code that never
// goes near a tag should not pay for transferring one.
//
// The proof is value-INDEPENDENT, so a loop that walks a moving
// pointer stays demoted. A trace is demotable when its whole memory
// footprint is expressible as entry-register + displacement (the
// symbolic address pass the trace compiler runs over its whole path,
// footprint.go). At entry, the footprint resolves to a small set of
// shadow pages; if every one of those pages holds no tainted byte,
// every load in the trace reads the Empty tag — so each mop's transfer
// can be checked for no-op-ness against the entry register tags
// alone, one compare or union per mop, with zero shadow traffic:
//
//   - a load into a register is a no-op iff the register is untainted;
//   - a store of a register or immediate is a no-op iff the stored
//     tag is Empty (writing Empty over a clean page changes nothing);
//   - memory-to-memory moves over clean pages move Empty to Empty;
//   - register-to-register moves and unions are no-ops iff the
//     destination already carries the result.
//
// Each verified op leaves the tag state exactly as it found it, so by
// induction the entry tags stay valid for the whole list and any
// executed *prefix* of it — which is what makes the proof sound for
// traces, whose side exits and budget stops run prefixes. A budget
// stop's remainder, resumed in a later slice, continues bare only
// while the flip generation and source epoch stamped at the stop
// still hold (resumeTrace): then nothing the proof rests on moved in
// between, and prefix plus remainder is one proven run. A passing
// proof is cached as a cleanEnt keyed on (shadow, entry register
// tags, resolved page set) and the trace runs UNINSTRUMENTED: no
// shadow lookups, no unions, no per-instruction hooks — concrete
// semantics only (runTraceBare).
//
// Re-instrumentation is the correctness bar. A cached verdict can rot
// only when taint *arrives* at one of its footprint pages, and a page
// can only become tainted through a zero→nonzero population flip — the
// event taint.Shadow.FlipGen counts and Shadow.OnPageFlip reports
// synchronously. Every cleanEnt snapshots the flip generation (and
// Harrier's taint-source epoch, advanced by the vos TaintSource seam
// and by the flip listener); a probe whose snapshot is stale
// re-checks its pages directly via Shadow.PageClean and either
// refreshes or drops the entry (stats.Reinstrumented) — so the first
// block entry after taint lands is back on the instrumented tier,
// before a single mop of it executes. Detections can therefore never
// be lost: the uninstrumented variant only ever runs under a live
// proof that the instrumented variant would have done nothing.
const (
	// cleanMaxFoot caps the footprint *intervals* a demotable trace
	// may carry — about one per base register (plus absolute operands),
	// each covering [lo,hi] of the displacements off that base, so an
	// unrolled superblock trace with hundreds of operands still
	// resolves in a handful of steps. cleanMaxPages caps the distinct
	// shadow pages a resolved footprint may touch; a footprint wider
	// than the page budget fails resolution and the trace simply runs
	// with its full transfer.
	cleanMaxFoot  = 10
	cleanMaxPages = 4
	// cleanWays is how many cached verdicts (distinct entry-tag /
	// page-set states) one block holds.
	cleanWays = 4
	// cleanMaxStrikes bounds failed demotion attempts per block: a
	// block whose proof keeps failing stops burning probe work.
	cleanMaxStrikes = 8
	// cleanPageShift converts an address to its shadow-page index;
	// must match taint.Shadow's page geometry (4 KiB).
	cleanPageShift = 12
)

// fpEnt is a slice of a trace's footprint in entry-relative form:
// every byte it covers lies in [entry value + lo, entry value + hi] of
// its base register. Offsets are signed (a push reaches below the
// entry ESP); for traceNoBase they are the absolute addresses. The
// interval is a conservative cover — untouched bytes between two
// operands are included — which is sound (it only ever demands MORE
// pages be clean) and keeps the footprint size O(bases), not
// O(operands). Accesses off one base farther apart than the page
// budget get intervals of their own, since one interval spanning
// them could never resolve.
type fpEnt struct {
	base   uint8 // entry register index, or traceNoBase for absolute
	lo, hi int64
}

// cleanEnt is one cached clean verdict: with this shadow, these entry
// register tags and this resolved page set — all of them clean as of
// the snapshotted flip generation and source epoch — the block's
// whole taint transfer is a no-op.
type cleanEnt struct {
	sh    *taint.Shadow
	flip  uint64
	src   uint64
	nPg   int
	pages [cleanMaxPages]uint32
	tags  [isa.NumRegs]taint.Tag
}

// cleanState is the demotion state embedded in a blockTrace. ok is
// decided once at compile time (footprint expressible and within
// caps); ways fill as entry states prove clean and are replaced
// round-robin.
type cleanState struct {
	ok        bool
	announced bool // KindBBClean published (once per block)
	strikes   int8
	n         int // live ways
	rr        int // round-robin victim when full
	fp        []fpEnt
	ways      [cleanWays]cleanEnt
}

// initFootprint decides demotion eligibility from the entry-relative
// accesses the trace compiler's symbolic pass recorded over its whole
// path (footprint.go): every access widens an interval of its base
// register, so the footprint stays small no matter how far the trace
// compiler unrolled.
func (cs *cleanState) initFootprint(acc []memAccess) {
	fp := make([]fpEnt, 0, cleanMaxFoot)
next:
	for _, a := range acc {
		lo := int64(int32(a.disp))
		if a.base == traceNoBase {
			lo = int64(a.disp)
		}
		hi := lo
		if a.wide {
			hi += 3
		}
		for i := range fp {
			e := &fp[i]
			if e.base != a.base {
				continue
			}
			if nlo, nhi := min(e.lo, lo), max(e.hi, hi); nhi-nlo < cleanMaxPages<<cleanPageShift {
				e.lo, e.hi = nlo, nhi
				continue next
			}
		}
		if len(fp) == cleanMaxFoot {
			return // over the cap: ineligible, cs.ok stays false
		}
		fp = append(fp, fpEnt{base: a.base, lo: lo, hi: hi})
	}
	cs.fp = fp
	cs.ok = true
}

// addPage dedups pg into pages[:n], returning the new length and
// false when the distinct-page cap is hit.
func addPage(pages *[cleanMaxPages]uint32, n int, pg uint32) (int, bool) {
	for k := 0; k < n; k++ {
		if pages[k] == pg {
			return n, true
		}
	}
	if n == cleanMaxPages {
		return n, false
	}
	pages[n] = pg
	return n + 1, true
}

// resolvePages maps the footprint onto concrete shadow-page indices
// using the entry register values: each interval contributes every
// page from its first byte to its last. pages beyond the returned
// count stay zero, so whole-array compares between probes are exact.
func (cs *cleanState) resolvePages(c *isa.CPU, pages *[cleanMaxPages]uint32) (int, bool) {
	n := 0
	ok := true
	for i := range cs.fp {
		e := &cs.fp[i]
		var base int64
		if e.base != traceNoBase {
			base = int64(c.Regs[e.base])
		}
		first := (base + e.lo) >> cleanPageShift
		last := (base + e.hi) >> cleanPageShift
		if first < 0 || last >= 1<<(32-cleanPageShift) || last-first >= cleanMaxPages {
			return 0, false // wraps the address space, or wider than the page budget
		}
		for pg := first; pg <= last; pg++ {
			if n, ok = addPage(pages, n, uint32(pg)); !ok {
				return 0, false
			}
		}
	}
	return n, true
}

// lookup probes the cached ways for (sh, entry tags, page set). A hit
// with fresh epochs returns immediately; a hit with stale epochs
// re-checks the pages directly — still clean refreshes the snapshot,
// taint on a page drops the way (the re-instrumentation event).
// Returns whether a valid way matched.
func (cs *cleanState) lookup(h *Harrier, c *isa.CPU, sh *taint.Shadow, pages *[cleanMaxPages]uint32, nPg int) bool {
	for e := 0; e < cs.n; e++ {
		w := &cs.ways[e]
		if w.sh != sh || w.nPg != nPg || w.pages != *pages || w.tags != c.RegTags {
			continue
		}
		if w.flip == sh.FlipGen() && w.src == h.cleanEpoch {
			return true
		}
		for k := 0; k < nPg; k++ {
			if !sh.PageClean(pages[k]) {
				// Taint reached the footprint: drop the way and fall
				// back to the instrumented tier before anything runs.
				h.stats.Reinstrumented++
				cs.n--
				cs.ways[e] = cs.ways[cs.n]
				cs.ways[cs.n] = cleanEnt{}
				if cs.rr >= cleanWays {
					cs.rr = 0
				}
				if cs.strikes < cleanMaxStrikes {
					cs.strikes++
				}
				return false
			}
		}
		w.flip, w.src = sh.FlipGen(), h.cleanEpoch
		return true
	}
	return false
}

// install caches a fresh verdict, publishing the demotion event the
// first time this block ever goes clean.
func (cs *cleanState) install(h *Harrier, c *isa.CPU, sh *taint.Shadow, pages *[cleanMaxPages]uint32, nPg int, key bbKey) {
	var w *cleanEnt
	if cs.n < cleanWays {
		w = &cs.ways[cs.n]
		cs.n++
	} else {
		w = &cs.ways[cs.rr]
		cs.rr = (cs.rr + 1) % cleanWays
	}
	*w = cleanEnt{
		sh: sh, flip: sh.FlipGen(), src: h.cleanEpoch,
		nPg: nPg, pages: *pages, tags: c.RegTags,
	}
	cs.strikes = 0
	h.stats.CleanDemoted++
	if !cs.announced {
		cs.announced = true
		if h.bus != nil {
			if p := procOf(c); p != nil {
				h.bus.Publish(obs.Event{
					Time: p.OS.Clock, Layer: obs.LayerHarrier, Kind: obs.KindBBClean,
					PID: int32(p.PID), Num: uint64(key.addr), Num2: uint64(nPg),
					Str: key.image,
				})
			}
		}
	}
}

// cleanProbeTrace decides whether this trace entry runs on the clean
// tier: a cached-way hit, or a fresh proof over the mop program (per
// instruction, in program order, so it holds for every prefix a side
// exit or budget stop runs).
func (h *Harrier) cleanProbeTrace(c *isa.CPU, tr *blockTrace) bool {
	cs := &tr.clean
	sh := c.Shadow
	var pages [cleanMaxPages]uint32
	nPg, ok := cs.resolvePages(c, &pages)
	if !ok {
		return false
	}
	if cs.lookup(h, c, sh, &pages, nPg) {
		return true
	}
	if cs.strikes >= cleanMaxStrikes {
		return false
	}
	for k := 0; k < nPg; k++ {
		if !sh.PageClean(pages[k]) {
			cs.strikes++
			return false
		}
	}
	if !h.cleanMopsNoop(tr.mops, &c.RegTags) {
		cs.strikes++
		return false
	}
	cs.install(h, c, sh, &pages, nPg, tr.key)
	return true
}

// cleanMopsNoop is the trace-side proof: every mop's taint transfer
// (see runTraceTaint) checked for no-op-ness against the entry tags
// under the clean-footprint assumption. Because the check is per
// instruction in program order and value-independent, it holds for
// every executed prefix — side exits, budget stops and faults
// included.
func (h *Harrier) cleanMopsNoop(mops []mop, tags *[isa.NumRegs]taint.Tag) bool {
	st := h.Store
	for i := range mops {
		op := &mops[i]
		switch op.code {
		case mBBEnter, mBr, mNop, mCmpRR, mCmpRI, mCmpRM, mCmpMR, mCmpMI, mCmpMM:
			// no taint effect
		case mMovRR, mMovbRR:
			if tags[op.reg] != tags[op.reg2] {
				return false
			}
		case mMovRI, mMovbRI:
			if tags[op.reg] != op.tag {
				return false
			}
		case mMovRM, mMovbRM, mPopR:
			if tags[op.reg] != taint.Empty {
				return false
			}
		case mMovMR, mMovbMR, mAluMR, mPushR:
			if tags[op.reg] != taint.Empty {
				return false
			}
		case mMovMI, mMovbMI, mAluMI, mPushI:
			// stores a compile-time BINARY tag: never clean
			return false
		case mMovMM, mMovbMM, mAluMM, mPushM, mAluRM:
			// loads union/store Empty over clean pages: no-op
		case mLea:
			t := op.tag
			if op.base2 != traceNoBase {
				t = st.Union(t, tags[op.base2])
			}
			if tags[op.reg] != t {
				return false
			}
		case mZeroR:
			if tags[op.reg] != taint.Empty {
				return false
			}
		case mAluRR:
			if tags[op.reg] != st.Union(tags[op.reg], tags[op.reg2]) {
				return false
			}
		case mAluRI:
			if tags[op.reg] != st.Union(tags[op.reg], op.tag) {
				return false
			}
		case mUnR:
			if isa.Op(op.aop) == isa.INC || isa.Op(op.aop) == isa.DEC {
				if tags[op.reg] != st.Union(tags[op.reg], op.tag) {
					return false
				}
			}
		case mUnM:
			if isa.Op(op.aop) == isa.INC || isa.Op(op.aop) == isa.DEC {
				return false // unions a BINARY tag into memory
			}
			// NOT/NEG re-store the loaded tag: Empty over a clean page
		case mCpuid:
			for _, r := range [...]uint8{uint8(isa.EAX), uint8(isa.EBX), uint8(isa.ECX), uint8(isa.EDX)} {
				if tags[r] != h.hwTag {
					return false
				}
			}
		case mRdtsc:
			if tags[isa.EAX] != h.hwTag || tags[isa.EDX] != h.hwTag {
				return false
			}
		default:
			return false // unknown mop: never demote
		}
	}
	return true
}

// TaintSource implements vos.TaintSourceMonitor: the kernel is about
// to deposit external data into guest memory. Advancing the source
// epoch forces every cached clean verdict to re-validate its pages on
// its next probe — defense in depth around the shadow's own page-flip
// seam, which fires when the deposit is actually tagged.
func (h *Harrier) TaintSource(p *vos.Process, sc *vos.SyscallCtx) {
	h.cleanEpoch++
}

// onPageFlip is the taint.Shadow listener: a page just went
// zero→nonzero, so any clean verdict whose footprint includes it is
// stale. The epoch bump invalidates lazily — the next probe of every
// entry re-checks its pages — which flushes affected entries strictly
// before the next block boundary, since probes happen at block entry.
func (h *Harrier) onPageFlip(idx uint32) {
	h.cleanEpoch++
}
