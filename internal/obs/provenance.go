package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Provenance records where tainted data came from and which code
// carried it: one bounded edge list per taint source, grown at the
// source's entry point (a read/recv tagging a buffer, an image map, a
// CPUID), at every basic-block entry that observes the source live in
// a register (both the interpreter and the trace tier attribute at
// block granularity), at translation short-circuits (gethostbyname),
// and at exit points (write/send/execve). The per-source chain renders
// as the causal path a warning cites:
//
//	FILE:"/.pwsafe.dat" → read fd 3 @t=144 → bb 0x401034 (×7) → send fd 4 @t=310
//
// The recorder is keyed by source *labels* (taint.Source.String()
// form) so this package stays independent of the taint substrate.
// Recording never mutates taint state: a run with provenance enabled
// produces bit-identical detections and tag sets to one without.
//
// A Provenance is safe for concurrent use; the simulator records from
// its single thread while readers (Result consumers, exporters)
// snapshot chains.
type Provenance struct {
	mu        sync.Mutex
	maxHops   int
	ids       map[string]ProvID
	traces    []*SourceTrace
	symbolize func(addr uint32) (string, bool)
}

// ProvID is the stable identifier a taint source receives when it
// first enters the recorder; IDs are assigned densely in intern order,
// which is deterministic for a deterministic guest.
type ProvID uint32

// HopKind classifies one edge of a provenance chain.
type HopKind uint8

// Hop kinds, in causal order.
const (
	// HopEntry is data entering the monitored world: a read/recv
	// tagging memory, an image map, hardware output, process input.
	HopEntry HopKind = iota
	// HopBlock is the source observed live in a register at a
	// basic-block entry; consecutive entries of the same block merge
	// into one hop with a count (the "×312" notation).
	HopBlock
	// HopXfer is a translation short-circuit carrying the tag across
	// a native routine (paper §7.2: gethostbyname).
	HopXfer
	// HopExit is data crossing an exit point: write/send/execve.
	HopExit
)

var hopKindNames = [...]string{
	HopEntry: "entry",
	HopBlock: "block",
	HopXfer:  "xfer",
	HopExit:  "exit",
}

// String names the hop kind.
func (k HopKind) String() string {
	if int(k) < len(hopKindNames) {
		return hopKindNames[k]
	}
	return "hop?"
}

// Hop is one recorded propagation edge.
type Hop struct {
	Kind HopKind
	// Time is the virtual clock at the first occurrence.
	Time uint64
	// PID is the guest process the hop was observed in.
	PID int32
	// Addr is the block leader address (HopBlock only).
	Addr uint32
	// Detail is the rendered operand: "read fd 3", "gethostbyname",
	// "write fd 1", or the owning image for block hops.
	Detail string
	// Tier marks a block hop served by a compiled (trace) tier.
	Tier bool
	// Count is how many consecutive identical occurrences this hop
	// absorbed (≥ 1).
	Count uint64
}

// SourceTrace is the recorded history of one taint source.
type SourceTrace struct {
	ID    ProvID
	Label string
	Hops  []Hop
	// Dropped counts block/xfer hops not recorded because the
	// per-source bound was reached. Entry and exit hops are never
	// dropped: a chain always keeps its end points.
	Dropped uint64
}

// DefaultMaxHops is the per-source edge-list bound applied when
// NewProvenance is given a non-positive limit.
const DefaultMaxHops = 32

// NewProvenance builds a recorder bounding each source's edge list to
// maxHops interior (block/xfer) hops; maxHops <= 0 applies
// DefaultMaxHops.
func NewProvenance(maxHops int) *Provenance {
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	return &Provenance{maxHops: maxHops, ids: make(map[string]ProvID)}
}

// Intern returns the stable ID for a source label, assigning one on
// first sight.
func (p *Provenance) Intern(label string) ProvID {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id, ok := p.ids[label]; ok {
		return id
	}
	id := ProvID(len(p.traces))
	p.ids[label] = id
	p.traces = append(p.traces, &SourceTrace{ID: id, Label: label})
	return id
}

// Len reports how many sources have been interned.
func (p *Provenance) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.traces)
}

// record merges h into the trace's last hop when it repeats it, else
// appends it. Interior hops respect the bound; entry/exit hops always
// land (chains keep their end points).
func (p *Provenance) record(id ProvID, h Hop) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) >= len(p.traces) {
		return
	}
	tr := p.traces[id]
	if n := len(tr.Hops); n > 0 {
		last := &tr.Hops[n-1]
		if last.Kind == h.Kind && last.Addr == h.Addr &&
			last.Detail == h.Detail && last.Tier == h.Tier {
			last.Count++
			return
		}
	}
	interior := h.Kind == HopBlock || h.Kind == HopXfer
	if interior && p.interiorLen(tr) >= p.maxHops {
		tr.Dropped++
		return
	}
	h.Count = 1
	tr.Hops = append(tr.Hops, h)
}

func (p *Provenance) interiorLen(tr *SourceTrace) int {
	n := 0
	for i := range tr.Hops {
		if k := tr.Hops[i].Kind; k == HopBlock || k == HopXfer {
			n++
		}
	}
	return n
}

// Entry records a data-entry hop.
func (p *Provenance) Entry(id ProvID, t uint64, pid int32, detail string) {
	p.record(id, Hop{Kind: HopEntry, Time: t, PID: pid, Detail: detail})
}

// EnsureEntry records an entry hop only when the trace is still empty:
// the lazy, synthesized entry for sources that are first observed in
// flight (image maps, process input) rather than at an explicit tag
// site.
func (p *Provenance) EnsureEntry(id ProvID, t uint64, pid int32, detail string) {
	p.mu.Lock()
	empty := int(id) < len(p.traces) && len(p.traces[id].Hops) == 0
	p.mu.Unlock()
	if empty {
		p.Entry(id, t, pid, detail)
	}
}

// Block records the source live in a register at a basic-block entry.
// image is kept on the hop (for exporters); tier marks a compiled
// (trace) tier.
func (p *Provenance) Block(id ProvID, t uint64, pid int32, addr uint32, image string, tier bool) {
	p.record(id, Hop{Kind: HopBlock, Time: t, PID: pid, Addr: addr, Detail: image, Tier: tier})
}

// Xfer records a translation hop.
func (p *Provenance) Xfer(id ProvID, t uint64, pid int32, detail string) {
	p.record(id, Hop{Kind: HopXfer, Time: t, PID: pid, Detail: detail})
}

// Exit records an exit-point hop.
func (p *Provenance) Exit(id ProvID, t uint64, pid int32, detail string) {
	p.record(id, Hop{Kind: HopExit, Time: t, PID: pid, Detail: detail})
}

// SetSymbolizer installs a code-address resolver consulted when
// rendering block hops: it returns the "image:symbol+0xdelta" frame
// for a block leader address, or reports false to keep the raw
// address. A symbolizer changes only how chains render, never what is
// recorded; with none installed (the default) the output is
// byte-identical to earlier releases.
func (p *Provenance) SetSymbolizer(fn func(addr uint32) (string, bool)) {
	p.mu.Lock()
	p.symbolize = fn
	p.mu.Unlock()
}

// renderHop formats one hop as a chain segment; callers hold p.mu.
func (p *Provenance) renderHop(h *Hop) string {
	var b strings.Builder
	if h.Kind == HopBlock {
		if p.symbolize != nil {
			if frame, ok := p.symbolize(h.Addr); ok {
				fmt.Fprintf(&b, "bb %s", frame)
			} else {
				fmt.Fprintf(&b, "bb 0x%x", h.Addr)
			}
		} else {
			fmt.Fprintf(&b, "bb 0x%x", h.Addr)
		}
		switch {
		case h.Tier && h.Count > 1:
			fmt.Fprintf(&b, " (tier ×%d)", h.Count)
		case h.Tier:
			b.WriteString(" (tier)")
		case h.Count > 1:
			fmt.Fprintf(&b, " (×%d)", h.Count)
		}
		return b.String()
	}
	b.WriteString(h.Detail)
	fmt.Fprintf(&b, " @t=%d", h.Time)
	if h.Count > 1 {
		fmt.Fprintf(&b, " (×%d)", h.Count)
	}
	return b.String()
}

// chainLocked renders one trace; callers hold p.mu.
func (p *Provenance) chainLocked(tr *SourceTrace) string {
	var b strings.Builder
	b.WriteString(tr.Label)
	for i := range tr.Hops {
		b.WriteString(" → ")
		b.WriteString(p.renderHop(&tr.Hops[i]))
	}
	if tr.Dropped > 0 {
		fmt.Fprintf(&b, " [+%d hops elided]", tr.Dropped)
	}
	return b.String()
}

// Chain renders the causal chain of one source.
func (p *Provenance) Chain(id ProvID) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) >= len(p.traces) {
		return ""
	}
	return p.chainLocked(p.traces[id])
}

// ChainOf renders the chain for a source label, reporting whether the
// source was ever recorded.
func (p *Provenance) ChainOf(label string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id, ok := p.ids[label]
	if !ok {
		return "", false
	}
	return p.chainLocked(p.traces[id]), true
}

// Traces returns an independent copy of every source trace, in ID
// (intern) order.
func (p *Provenance) Traces() []SourceTrace {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SourceTrace, len(p.traces))
	for i, tr := range p.traces {
		cp := *tr
		cp.Hops = append([]Hop(nil), tr.Hops...)
		out[i] = cp
	}
	return out
}

// Chains renders every recorded source's chain, in ID order.
func (p *Provenance) Chains() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.traces))
	for i, tr := range p.traces {
		out[i] = p.chainLocked(tr)
	}
	return out
}

// WriteChromeTrace emits the recorded chains in Chrome trace_event
// JSON: one track (tid) per source, named by its label, with every hop
// an instant event at its virtual timestamp. Load the output in
// Perfetto or chrome://tracing. The output is deterministic for a
// deterministic guest (IDs are intern-ordered, hops are recorded
// in causal order, and no wall-clock value is emitted).
func (p *Provenance) WriteChromeTrace(w io.Writer) error {
	c := newChromeWriter(w, "ns")
	for _, tr := range p.Traces() {
		tid := uint64(tr.ID)
		c.begin("thread_name", "", "M", tid)
		c.uint("ts", 0)
		c.args()
		c.str("name", tr.Label)
		c.end()
		for i := range tr.Hops {
			h := &tr.Hops[i]
			name := h.Detail
			if h.Kind == HopBlock {
				name = fmt.Sprintf("bb 0x%x", h.Addr)
			}
			c.begin(name, "", "i", tid)
			c.uint("ts", h.Time)
			c.str("s", "t")
			c.args()
			c.str("kind", h.Kind.String())
			if h.Count > 1 {
				c.uint("count", h.Count)
			}
			if h.Tier {
				c.flag("tier")
			}
			if h.PID != 0 {
				c.int("guest_pid", int64(h.PID))
			}
			if h.Kind == HopBlock && h.Detail != "" {
				c.str("image", h.Detail)
			}
			c.end()
		}
	}
	return c.close()
}
