package harrier

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/taint"
	"repro/internal/vos"
)

// Provenance plumbing: when a recorder is attached, every taint source
// receives a stable provenance ID at its entry point (read/recv buffer
// tagging, image maps, CPUID/RDTSC, process input) and accumulates a
// bounded hop list — block-granular register sightings from BOTH
// execution tiers (interpreter and trace), translation short-circuits, and exit events — that
// renders as the causal chain a warning cites.
//
// Everything here is read-only with respect to taint state: recording
// observes tags, never creates or unions them, which is what keeps
// detections and tag sets bit-identical whether the recorder is
// attached or not (see TestProvenanceDifferentialSweep). Every hot
// path guards with one `h.prov != nil` branch, so a run without
// provenance pays a single predictable compare per site.

// SetProvenance attaches (or with nil detaches) a provenance recorder.
func (h *Harrier) SetProvenance(p *obs.Provenance) {
	h.prov = p
	if p != nil && h.provIDs == nil {
		h.provIDs = make(map[taint.Tag][]obs.ProvID)
	}
}

// Provenance returns the attached recorder (nil when detached).
func (h *Harrier) Provenance() *obs.Provenance { return h.prov }

// provEntryDetail names the synthesized entry hop of a source first
// observed in flight rather than at an explicit tag site.
func provEntryDetail(t taint.SourceType) string {
	switch t {
	case taint.Binary:
		return "image map"
	case taint.Hardware:
		return "hardware"
	case taint.UserInput:
		return "process input"
	case taint.File:
		return "file read"
	case taint.Socket:
		return "socket read"
	}
	return "observed"
}

// provIDsOf resolves (and caches) the provenance IDs of a tag's
// sources, synthesizing an entry hop for sources the recorder has not
// seen at an explicit entry point. Tags are interned per run and
// never reassigned, so the cache needs no invalidation.
func (h *Harrier) provIDsOf(t taint.Tag, now uint64, pid int32) []obs.ProvID {
	if ids, ok := h.provIDs[t]; ok {
		return ids
	}
	srcs := h.Store.Sources(t)
	ids := make([]obs.ProvID, len(srcs))
	for i, s := range srcs {
		id := h.prov.Intern(s.String())
		h.prov.EnsureEntry(id, now, pid, provEntryDetail(s.Type))
		ids[i] = id
	}
	h.provIDs[t] = ids
	return ids
}

// provBlockScan records every source currently live in a register as
// having reached this basic block. Called at block entry from both
// tiers — collectBBFrequency (interpreter) and traceBlockEnter (trace,
// tier=true) — at the same execution point, so the hop stream is
// tier-independent up to the tier flag.
func (h *Harrier) provBlockScan(c *isa.CPU, now uint64, pid int32, addr uint32, image string, tier bool) {
	for r := isa.EAX; r < isa.NumRegs; r++ {
		t := c.RegTags[r]
		if t == taint.Empty {
			continue
		}
		for _, id := range h.provIDsOf(t, now, pid) {
			h.prov.Block(id, now, pid, addr, image, tier)
		}
	}
}

// provRead records the explicit entry hop of a read/recv that tagged
// guest memory from a descriptor's source.
func (h *Harrier) provRead(p *vos.Process, sc *vos.SyscallCtx, src taint.Source) {
	verb, fdn := "read", sc.FD
	if sc.Sock != nil {
		verb, fdn = "recv", sc.Sock.FD
	}
	id := h.prov.Intern(src.String())
	h.prov.Entry(id, p.OS.Clock, int32(p.PID), fmt.Sprintf("%s fd %d", verb, fdn))
}

// provHardware records the explicit entry of hardware-produced data
// (CPUID/RDTSC outputs).
func (h *Harrier) provHardware(c *isa.CPU, what string) {
	p := procOf(c)
	if p == nil {
		return
	}
	now, pid := p.OS.Clock, int32(p.PID)
	for _, id := range h.provIDsOf(h.hwTag, now, pid) {
		h.prov.Entry(id, now, pid, what)
	}
}

// provXfer records a translation short-circuit (§7.2) carrying a tag
// across a native routine.
func (h *Harrier) provXfer(p *vos.Process, t taint.Tag, name string) {
	now, pid := p.OS.Clock, int32(p.PID)
	for _, id := range h.provIDsOf(t, now, pid) {
		h.prov.Xfer(id, now, pid, name)
	}
}

// provExit records srcs crossing an exit point (write/send/execve/
// connect), described by detail. Recorded before the event reaches
// Secpert so a warning's chain already ends at the exit that fired it.
func (h *Harrier) provExit(p *vos.Process, srcs []taint.Source, detail string) {
	now, pid := p.OS.Clock, int32(p.PID)
	for _, s := range srcs {
		id := h.prov.Intern(s.String())
		h.prov.EnsureEntry(id, now, pid, provEntryDetail(s.Type))
		h.prov.Exit(id, now, pid, detail)
	}
}

// ProvenanceChains renders one causal chain per source, preserving
// source order and skipping sources the recorder never saw. This is
// the resolver Secpert consults at warning time (SetChainResolver).
func (h *Harrier) ProvenanceChains(srcs []taint.Source) []string {
	if h.prov == nil {
		return nil
	}
	var out []string
	for _, s := range srcs {
		if ch, ok := h.prov.ChainOf(s.String()); ok {
			out = append(out, ch)
		}
	}
	return out
}
