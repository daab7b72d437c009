// Package harrier implements Harrier, the HTH run-time monitor (paper
// §7). Harrier attaches to a process tree on the virtual OS and
// instruments it at every granularity of paper Table 3:
//
//   - instruction: Track_DataFlow — taint propagation through every
//     data-moving instruction, with immediates tagged BINARY:<image>
//     and CPUID/RDTSC outputs tagged HARDWARE;
//   - basic block: Collect_BB_Frequency — per-block execution counts
//     with last-application-BB attribution across shared objects
//     (paper Figure 3);
//   - routine: the gethostbyname/gethostbyaddr short-circuit (§7.2);
//   - OS: Monitor_SystemCalls — synchronous pre-execution events sent
//     to Secpert, whose verdict can kill the process;
//   - image: loader events tag mapped binaries (done by the loader
//     when a shadow is attached).
package harrier

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/freelist"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/secpert"
	"repro/internal/taint"
	"repro/internal/vos"
)

// Sampling quanta for the hot-path bus publishes: a basic-block
// counter publishes a bb.roll event each time it crosses a multiple of
// bbRollQuantum, and the dataflow loop publishes a taint.sample /
// taint.tlb pair every taintSampleQuantum instrumented instructions.
// Both checks sit behind the bus nil-check, so a disabled bus pays one
// branch per site.
const (
	bbRollQuantum      = 4096
	taintSampleShift   = 16
	taintSampleQuantum = 1 << taintSampleShift
)

// Config selects which Harrier modules run; the defaults enable
// everything, matching the paper's prototype. The ablation benches
// toggle these.
type Config struct {
	// Dataflow enables instruction-level taint tracking. Without it
	// information-flow analysis degrades to nothing (the mw macro
	// benchmark runs this way, §8.4.2).
	Dataflow bool
	// CloneRateWindow is the width (virtual ticks) of the sliding
	// window used for the clone-rate measurement (§4.2).
	CloneRateWindow uint64
	// KeepEventLog records every event sent to Secpert with its
	// verdict (the EventAnalyzer transcript, paper Figure 6).
	KeepEventLog bool
	// TagWidthBudget caps how many distinct sources one taint set may
	// carry before it degrades to per-type wide sources (see
	// taint.Store.SetWidthBudget). 0 = unlimited. Degradation is an
	// over-approximation: type-keyed warnings are never lost.
	TagWidthBudget int
	// PromoteThreshold is the tiered taint engine's promotion point
	// (interpreter → trace → clean, see tier.go): a basic block whose
	// frequency counter reaches it is compiled into a superblock trace —
	// hot blocks chained across predicted edges and executed (taint
	// transfer fused with concrete semantics) in a single hook call
	// instead of one OnInstr dispatch per instruction (see trace.go).
	// 0 disables tiering — every block stays in the interpreter tier.
	// Tiering requires Dataflow; detections and reported tag sets are
	// bit-identical across tiers.
	PromoteThreshold int
	// TraceThreshold is ignored: a hot block compiles straight to a
	// trace at PromoteThreshold. The field is kept only because the
	// cmd/hth-load benchmark still sets it.
	TraceThreshold int
	// CleanThreshold arms the clean tier — taint-scoped partial
	// instrumentation (see cleantier.go): a trace whose footprint pages
	// and entry register tags are provably clean runs UNINSTRUMENTED
	// (no shadow lookups, no transfer, no hooks), re-instrumenting the
	// moment taint reaches its footprint (the shadow page-flip seam /
	// vos taint-source seam). Armed traces probe the clean tier at
	// every entry. 0 disables the tier. Requires tiering
	// (PromoteThreshold > 0).
	CleanThreshold int
}

// DefaultConfig enables all modules.
func DefaultConfig() Config {
	return Config{
		Dataflow:         true,
		CloneRateWindow:  20_000,
		KeepEventLog:     true,
		PromoteThreshold: 64,
		CleanThreshold:   64,
	}
}

// bbKey identifies a basic block: owning image and leader address.
type bbKey struct {
	image string
	addr  uint32
}

// bbCacheSize is the width of the direct-mapped block-counter cache;
// a power of two so the leader index masks down without a division.
const bbCacheSize = 256

type bbCacheEnt struct {
	key bbKey
	ctr *int64
}

// bbCache is the block-counter cache: 256 × 32 B, holding pointers.
type bbCache [bbCacheSize]bbCacheEnt

// freeBBCaches holds the block-counter caches of released monitors, at
// most 16 (128 KiB), as many as the taint store list holds. Get clears
// one before reuse, so no stale counter of an earlier run counts into a
// new one.
var freeBBCaches = freelist.New[bbCache](16)

// Stats counts Harrier's instrumentation work, for the §9 performance
// evaluation. The Taint* fields snapshot the taint store's interning
// statistics at the time Stats() is called, so benchmark harnesses can
// track the fast-path caches across PRs.
type Stats struct {
	Instructions uint64 // instructions instrumented for data flow
	Blocks       uint64 // basic-block entries counted
	AccessEvents uint64 // resource-access events sent to Secpert
	IOEvents     uint64 // I/O events sent to Secpert

	// Trace tier counters (see tier.go, trace.go). TraceHits is
	// included in Blocks: each chained block entry inside a trace
	// counts exactly as the interpreter tier would count it.
	TierPinned       uint64 // hot blocks whose trace compiled to nothing, pinned to interpreter
	TraceCompiled    uint64 // superblock traces compiled
	TraceHits        uint64 // block entries served inside a trace
	TraceSideExits   uint64 // trace runs ended by a mispredicted branch
	GateSkips        uint64 // always 0 since the gate was removed; kept for cmd/hth-load
	TierTraceDemoted uint64 // traces dropped by execve invalidation

	// Clean tier counters (see cleantier.go). CleanHits is included in
	// Blocks — a clean entry counts the block exactly as every other
	// tier does — and is disjoint from TraceHits: each block entry is
	// credited to exactly one tier.
	CleanDemoted   uint64 // clean verdicts proved and cached
	CleanHits      uint64 // block entries served uninstrumented
	Reinstrumented uint64 // clean verdicts flushed by taint reaching their footprint

	TaintSets       int    // distinct source sets interned
	TaintUnions     uint64 // union operations performed
	TaintUnionHits  uint64 // union cache hits (direct-mapped + map)
	TaintFastHits   uint64 // union hits served by the direct-mapped cache
	TaintWideUnions uint64 // sets degraded under the tag width budget
}

// Harrier is one monitor instance, observing one process tree and
// feeding one Secpert.
type Harrier struct {
	Store *taint.Store
	cfg   Config
	sec   *secpert.Secpert

	binTags map[string]taint.Tag
	hwTag   taint.Tag

	// One-entry binTag cache: trackDataFlow resolves the BINARY tag of
	// the executing image on every immediate operand, and execution
	// stays within one image for long stretches. Image strings come
	// from Span.Image, so the == compare is a pointer check in the
	// common case.
	binCacheImage string
	binCacheTag   taint.Tag

	bbFreq  map[bbKey]*int64
	lastApp map[int]bbKey // pid -> last application BB

	// Hot-path caches for collectBBFrequency: a direct-mapped cache of
	// block counters indexed by leader address (bbFreq never deletes,
	// so cached *int64 pointers stay valid for the run), and a
	// write-behind entry for the lastApp map. appCachePID/appCacheKey
	// hold the freshest attribution for the most recently scheduled
	// process; the map is only written when the running PID changes
	// (flushApp), so straight-line execution never touches it.
	// appCachePID is -1 when the cache is empty. Readers must check
	// the cache before the map.
	bbCache     *bbCache
	appCachePID int
	appCacheKey bbKey

	// tierThreshold caches Config.PromoteThreshold as the counter's
	// type, non-zero only when the config supports tiering (Dataflow).
	// One int64 compare per block entry.
	tierThreshold int64
	// cleanThreshold caches Config.CleanThreshold the same way.
	// cleanEpoch is the monitor-side invalidation clock of the clean
	// tier: advanced by the vos taint-source seam and the shadow
	// page-flip listener; cached clean verdicts snapshot it and
	// re-validate their pages when it moves (see cleantier.go).
	cleanThreshold int64
	cleanEpoch     uint64

	cloneCount int64
	cloneTimes []uint64
	memBytes   int64 // total heap growth across the tree (SYS_brk)
	log        []LogEntry

	// natSave holds the input-name tag captured at native-routine
	// entry for the short-circuit (§7.2).
	natSave map[int]taint.Tag

	stats Stats
	bus   *obs.Bus
	tt    *obs.TierTimer

	// Provenance recording (see provenance.go): the attached recorder
	// and the tag → provenance-ID resolution cache. Both nil/empty
	// unless SetProvenance armed them; every hot-path site guards with
	// one prov nil-check.
	prov    *obs.Provenance
	provIDs map[taint.Tag][]obs.ProvID
}

var _ vos.Monitor = (*Harrier)(nil)

// New builds a Harrier feeding sec. The returned monitor carries its
// own taint store; pass it as both Monitor and Store in vos.ProcSpec.
func New(cfg Config, sec *secpert.Secpert) *Harrier {
	st := taint.NewStore()
	st.SetWidthBudget(cfg.TagWidthBudget)
	h := &Harrier{
		Store:       st,
		cfg:         cfg,
		sec:         sec,
		binTags:     make(map[string]taint.Tag),
		hwTag:       st.Of(taint.Source{Type: taint.Hardware, Name: "cpuid"}),
		bbFreq:      make(map[bbKey]*int64),
		lastApp:     make(map[int]bbKey),
		natSave:     make(map[int]taint.Tag),
		bbCache:     freeBBCaches.Get(),
		appCachePID: -1,
	}
	if cfg.Dataflow && cfg.PromoteThreshold > 0 {
		h.tierThreshold = int64(cfg.PromoteThreshold)
		if cfg.CleanThreshold > 0 {
			h.cleanThreshold = int64(cfg.CleanThreshold)
		}
	}
	return h
}

// Release hands the monitor's taint store and block-counter cache back
// for reuse by later monitors, and drops both, so the monitor has no
// route to state another run now owns: a later use of either panics
// on nil. Every shadow over the store must be released first. Counters
// and attribution (BBFrequency, the event log) stay readable; Stats
// does not. A second call does nothing.
func (h *Harrier) Release() {
	if h.Store == nil {
		return
	}
	h.Store.Release()
	freeBBCaches.Put(h.bbCache)
	h.Store, h.bbCache = nil, nil
}

// SetBus attaches the observability bus. BB counter rollovers and
// periodic taint-substrate samples publish into it.
func (h *Harrier) SetBus(b *obs.Bus) { h.bus = b }

// SetTierTimer attaches the per-tier execution-time attributor. Every
// block dispatch touches the timer with the tier that served it; the
// timer samples the clock only on tier transitions, so a run that
// settles on one tier pays one integer compare per dispatch — and a
// run without a timer pays one nil-check.
func (h *Harrier) SetTierTimer(t *obs.TierTimer) { h.tt = t }

// publishTaintSample emits the periodic taint-substrate snapshot: the
// cumulative union/cache counters plus the executing shadow's TLB
// counters. Out of line so the dataflow hot loop only carries the
// sampling branch.
func (h *Harrier) publishTaintSample(c *isa.CPU) {
	_, unions, hits := h.Store.Stats()
	h.bus.Publish(obs.Event{
		Layer: obs.LayerHarrier, Kind: obs.KindTaintSample,
		Num: unions, Num2: hits,
	})
	if c.Shadow != nil {
		probes, misses := c.Shadow.TLBStats()
		h.bus.Publish(obs.Event{
			Layer: obs.LayerHarrier, Kind: obs.KindTaintTLB,
			Num: probes, Num2: misses,
		})
	}
}

// Stats returns instrumentation counters, including a snapshot of the
// taint store's interning statistics.
func (h *Harrier) Stats() Stats {
	out := h.stats
	out.TaintSets, out.TaintUnions, out.TaintUnionHits = h.Store.Stats()
	out.TaintFastHits = h.Store.FastHits()
	out.TaintWideUnions = h.Store.WideUnions()
	return out
}

// BBFrequency returns the execution count of the block at addr in the
// named image.
func (h *Harrier) BBFrequency(image string, addr uint32) int64 {
	if ctr := h.bbFreq[bbKey{image, addr}]; ctr != nil {
		return *ctr
	}
	return 0
}

func (h *Harrier) binTag(image string) taint.Tag {
	if image == h.binCacheImage && image != "" {
		return h.binCacheTag
	}
	t, ok := h.binTags[image]
	if !ok {
		t = h.Store.Of(taint.Source{Type: taint.Binary, Name: image})
		h.binTags[image] = t
	}
	h.binCacheImage, h.binCacheTag = image, t
	return t
}

// Started installs the CPU hooks on a monitored root process.
func (h *Harrier) Started(p *vos.Process) {
	hooks := isa.Hooks{OnBB: h.collectBBFrequency}
	if h.cfg.Dataflow {
		hooks.OnInstr = h.trackDataFlow
		hooks.OnInstrData = true
		hooks.OnNativePre = h.nativePre
		hooks.OnNativePost = h.nativePost
	}
	if h.tierThreshold > 0 {
		hooks.OnTraceSlot = h.onTraceSlot
	}
	p.CPU.Hooks = hooks
	if h.cleanThreshold > 0 && p.CPU.Shadow != nil {
		p.CPU.Shadow.OnPageFlip(h.onPageFlip)
	}
}

// Forked: the child inherits the parent's hooks via CPU.Clone; only
// bookkeeping is needed. Clone-rate attribution (cloneCount,
// cloneTimes) is deliberately tree-global, not per-PID (paper §4.2
// measures the process tree), so fork copies only the last-app-BB
// attribution.
func (h *Harrier) Forked(parent, child *vos.Process) {
	if bb, ok := h.lastAppOf(parent.PID); ok {
		h.lastApp[child.PID] = bb
	}
	// The child's shadow is a fresh Clone: listeners don't ride along,
	// so the clean tier's flip seam must be re-installed per shadow.
	if h.cleanThreshold > 0 && child.CPU.Shadow != nil {
		child.CPU.Shadow.OnPageFlip(h.onPageFlip)
	}
}

// Execed resets per-program attribution state: the process is now a
// different program. Any native-routine tag captured before the exec
// is stale and dropped with it.
func (h *Harrier) Execed(p *vos.Process) {
	h.dropPID(p.PID)
}

// Exited drops per-process state.
func (h *Harrier) Exited(p *vos.Process) {
	h.dropPID(p.PID)
}

// dropPID removes every piece of per-PID state Harrier keeps, and
// invalidates the attribution cache if it points at that PID. Keeping
// all PID-keyed maps behind one helper is what guarantees no state
// leaks across a forking guest's lifetime (see TestExitedDropsPIDState).
func (h *Harrier) dropPID(pid int) {
	delete(h.lastApp, pid)
	delete(h.natSave, pid)
	if h.appCachePID == pid {
		h.appCachePID = -1
	}
}

// collectBBFrequency is the Collect_BB_Frequency analysis of paper
// Figure 5: count the block and remember the last *application* block
// so that events raised inside shared objects are attributed to the
// application code that initiated the call path (Figure 3).
//
// Two caches keep the hot path off the maps: a direct-mapped counter
// cache indexed by leader address absorbs loops that bounce between a
// handful of blocks (bbCache), and the last-app attribution only
// needs a map write when it changes (appCache*).
func (h *Harrier) collectBBFrequency(c *isa.CPU, s *isa.Span, leader int) {
	h.stats.Blocks++
	if h.tt != nil {
		h.tt.Touch(obs.TierInterp)
	}
	p := c.Ctx.(*vos.Process)
	key := bbKey{s.Image, s.Addr(leader)}
	e := &h.bbCache[(key.addr/isa.InstrSize)&(bbCacheSize-1)]
	ctr := e.ctr
	if ctr == nil || e.key != key {
		ctr = h.bbFreq[key]
		if ctr == nil {
			ctr = new(int64)
			h.bbFreq[key] = ctr
		}
		e.key, e.ctr = key, ctr
	}
	*ctr++
	if h.prov != nil {
		h.provBlockScan(c, p.OS.Clock, int32(p.PID), key.addr, key.image, false)
	}
	// Tier promotion: a hot block with an empty slot compiles exactly
	// once per slot lifetime (an empty trace pins the slot, a trace
	// moves subsequent entries onto the OnTraceSlot path; an execve
	// invalidation empties the slot and re-arms the trigger).
	if h.tierThreshold > 0 && *ctr >= h.tierThreshold && s.TraceSlot(leader) == nil {
		h.maybePromote(c, s, leader, key)
	}
	if h.bus != nil && uint64(*ctr)&(bbRollQuantum-1) == 0 {
		h.bus.Publish(obs.Event{
			Time: p.OS.Clock, Layer: obs.LayerHarrier, Kind: obs.KindBBRoll,
			PID: int32(p.PID), Num: uint64(key.addr), Num2: uint64(*ctr),
			Str: key.image,
		})
	}
	if s.Image == p.Path {
		if p.PID != h.appCachePID {
			h.flushApp()
			h.appCachePID = p.PID
		}
		h.appCacheKey = key
	}
}

// flushApp spills the write-behind lastApp entry into the map; called
// before the cache is repointed at another PID.
func (h *Harrier) flushApp() {
	if h.appCachePID >= 0 {
		h.lastApp[h.appCachePID] = h.appCacheKey
	}
}

// lastAppOf returns the last application BB recorded for pid,
// consulting the write-behind cache first.
func (h *Harrier) lastAppOf(pid int) (bbKey, bool) {
	if pid == h.appCachePID {
		return h.appCacheKey, true
	}
	bb, ok := h.lastApp[pid]
	return bb, ok
}

// context returns the (frequency, address) attribution for an event
// raised by process p: the last application basic block.
func (h *Harrier) context(p *vos.Process) (int64, string) {
	bb, ok := h.lastAppOf(p.PID)
	if !ok {
		return 0, ""
	}
	return h.BBFrequency(bb.image, bb.addr), fmt.Sprintf("%x", bb.addr)
}

// sourcesAt reads the source set of a guest memory range.
func (h *Harrier) sourcesAt(p *vos.Process, addr, n uint32) []taint.Source {
	if p.CPU.Shadow == nil || n == 0 {
		return nil
	}
	return h.Store.Sources(p.CPU.Shadow.GetRange(addr, n))
}

func (h *Harrier) decision(d secpert.Decision) vos.Verdict {
	if d == secpert.Terminate {
		return vos.Kill
	}
	return vos.Continue
}

// sendAccess forwards an access event to Secpert, logging it with the
// verdict.
func (h *Harrier) sendAccess(ev *events.Access) vos.Verdict {
	d := h.sec.HandleAccess(ev)
	h.logAccess(ev, d)
	return h.decision(d)
}

// sendIO forwards an I/O event to Secpert, logging it with the
// verdict.
func (h *Harrier) sendIO(ev *events.IO) vos.Verdict {
	d := h.sec.HandleIO(ev)
	h.logIO(ev, d)
	return h.decision(d)
}
