package harrier

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/taint"
)

// FuzzCleanReinstrument is the clean tier's re-instrumentation oracle:
// the same pseudo-random multi-block programs as FuzzTraceApply run
// once under the interpreter tier and once with traces installed at
// every leader and CleanThreshold=1, so traces demote to the
// uninstrumented clean variant as soon as their footprint proves
// taint-free. Midway through — at a block boundary, the only
// architectural point where tiers are comparable — an external taint
// source floods pages inside the program's working window. The clean
// run's cached verdicts now cover stale pages; the page-flip seam
// (wired by hand here, as vos.Started would) must invalidate them
// before the next entry runs uninstrumented. Any verdict that survives
// the flip shows up as a shadow or register-tag divergence.
func FuzzCleanReinstrument(f *testing.F) {
	// The countdown loop: the block that demotes, re-validates after
	// the flip, and must come back instrumented.
	f.Add([]byte{
		0x00, 0x09, 0x48, 0x08,
		0x10, 0x01, 0x00, 0x00,
		0x19, 0x00, 0x00, 0x01,
	}, uint16(24))
	f.Add([]byte{0x02, 0x00, 0x00, 0x10, 0x18, 0x00, 0x00, 0x00}, uint16(1))
	f.Add([]byte{0x05, 0x09, 0x00, 0x20, 0x1a, 0x05, 0x00, 0x08}, uint16(3))
	f.Add([]byte{0x14, 0x03, 0x00, 0x00, 0x15, 0x01, 0x00, 0x00}, uint16(100))
	f.Add([]byte{0x09, 0x11, 0x00, 0x00, 0x16, 0x00, 0x00, 0x00, 0x1b, 0x02, 0x00, 0x00}, uint16(7))

	f.Fuzz(func(t *testing.T, data []byte, injectAt uint16) {
		span := buildFuzzSpan(data, traceFuzzOps)
		// The clean tier arms only on top of tiering, so its switches
		// are on too; the hooks below are still wired by hand. The
		// traces carry clean-tier footprints because the compiling
		// Harrier has the tier armed.
		h := New(Config{Dataflow: true, PromoteThreshold: 1, CleanThreshold: 1}, nil)
		if installTraces(h, span) == 0 {
			return // nothing compiled: the clean tier can't engage
		}

		const bound = 4096
		inject := uint64(injectAt)%(bound/2) + 1

		// The injected source: 16 bytes on one page plus 4 on the next,
		// landing inside the compared window the programs work in.
		tag := h.Store.Of(taint.Source{Type: taint.Socket, Name: "fuzz:recv"})
		var seed byte
		for _, b := range data {
			seed ^= b
		}
		base := uint32(seed) << 5 // 0..0x1FE0: pages 0-2 with the +0x1000 echo

		run := func(c *isa.CPU) (faulted, injected bool) {
			halted, f := runToBoundary(c, span, inject)
			if halted {
				return f, false
			}
			c.Shadow.SetRange(base, 16, tag)
			c.Shadow.SetRange(base+0x1000, 4, tag)
			_, f = runToBoundary(c, span, bound)
			return f, true
		}

		cA := newFuzzCPU(span, h.Store, data)
		cA.Hooks.OnInstr = h.trackDataFlow
		cA.Hooks.OnInstrData = true
		faultA, injA := run(cA)

		cB := newFuzzCPU(span, h.Store, data)
		cB.Hooks.OnInstr = h.trackDataFlow
		cB.Hooks.OnInstrData = true
		cB.Hooks.OnTraceSlot = h.onTraceSlot
		cB.Shadow.OnPageFlip(h.onPageFlip) // the seam vos.Started installs
		faultB, injB := run(cB)

		if injA != injB {
			t.Fatalf("phase divergence: interp injected=%v, clean injected=%v", injA, injB)
		}
		if cA.Regs != cB.Regs || cA.EIP != cB.EIP || cA.Steps != cB.Steps ||
			cA.ZF != cB.ZF || cA.LT != cB.LT || faultA != faultB {
			t.Fatalf("concrete divergence:\n  interp: regs %v eip %#x steps %d zf %v lt %v fault %v\n"+
				"  clean:  regs %v eip %#x steps %d zf %v lt %v fault %v",
				cA.Regs, cA.EIP, cA.Steps, cA.ZF, cA.LT, faultA,
				cB.Regs, cB.EIP, cB.Steps, cB.ZF, cB.LT, faultB)
		}
		if faultA {
			return // over-applied flows are unobservable after a fault
		}
		if cA.RegTags != cB.RegTags {
			t.Fatalf("register tag divergence: interp %v, clean %v", cA.RegTags, cB.RegTags)
		}
		for addr := uint32(0); addr < 0x3000; addr++ {
			if ta, tb := cA.Shadow.Get(addr), cB.Shadow.Get(addr); ta != tb {
				t.Fatalf("shadow divergence at %#x: interp tag%d, clean tag%d", addr, ta, tb)
			}
		}
	})
}

// runToBoundary drives the CPU like runBudgeted but stops at the first
// block boundary at or after `until` retired steps: both differential
// runs pause at the same architectural point regardless of tier,
// because past `until` a trace retires one instruction per Step, so
// none runs past the boundary. `halted`
// reports HLT, a fault, or the program leaving the span — anywhere
// further stepping is pointless.
func runToBoundary(c *isa.CPU, span *isa.Span, until uint64) (halted, faulted bool) {
	step := func() (stop, faulted bool) {
		err := c.Step()
		if err == nil {
			return false, false
		}
		var f *isa.Fault
		return true, errors.As(err, &f) // non-fault err is a clean HLT
	}
	for c.Steps < until {
		c.TraceBudget = int(until - c.Steps)
		if stop, f := step(); stop {
			return true, f
		}
	}
	c.TraceBudget = 1
	for extra := 0; extra < 64; extra++ {
		if !span.Contains(c.EIP) {
			return true, false // out of span: the next step faults in any tier
		}
		if idx := span.Index(c.EIP); span.BBLeader[idx] == idx {
			break // block boundary: comparison-valid stop
		}
		if stop, f := step(); stop {
			return true, f
		}
	}
	return false, false
}
