package corpus

import (
	"fmt"
	"strings"
	"testing"

	hth "repro"
	"repro/internal/taint"
)

// TestTraceDifferentialSweep is the trace tier's correctness gate,
// mirroring TestTierDifferentialSweep one rung up the ladder: the full
// corpus runs with the trace tier disabled (summary tier only) and
// with aggressive trace promotion, crossed with provenance recording
// on and off, and the sweep signatures must match element-wise in
// every cell. Detections, reported tag sets and injected faults are
// therefore bit-identical whether blocks execute in the interpreter,
// as summaries, or as compiled traces. The traces' tag-free loop is
// exercised by TestCleanTierDifferentialSweep and
// FuzzCleanReinstrument.
func TestTraceDifferentialSweep(t *testing.T) {
	scs := All()
	cell := func(traceThreshold int, prov bool) []RunOutcome {
		return RunAllWith(scs, 0, func(_ *Scenario, cfg *hth.Config) {
			cfg.Monitor.PromoteThreshold = 1
			cfg.Monitor.TraceThreshold = traceThreshold
			cfg.Provenance = prov
		})
	}
	base := cell(0, false)
	ref := SweepSignature(base)
	for _, c := range []struct {
		name           string
		traceThreshold int
		prov           bool
	}{
		{"traces", 2, false},
		{"traces+prov", 2, true},
		{"prov-only", 0, true},
	} {
		got := SweepSignature(cell(c.traceThreshold, c.prov))
		for i := range ref {
			if ref[i] != got[i] {
				t.Errorf("%s divergence:\n  base: %s\n  %s: %s", c.name, ref[i], c.name, got[i])
			}
		}
	}
	// The traced cells must actually have exercised the trace tier, or
	// the comparison proves nothing.
	traced := cell(2, false)
	hits := 0
	for _, o := range traced {
		if o.Result != nil && o.Result.Stats.TraceHits > 0 {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no scenario took the trace tier; differential sweep is vacuous")
	}
	t.Logf("trace tier exercised by %d/%d scenarios", hits, len(traced))
}

// forkLoopSrc reads stdin, forks, and runs the same two hot loops in
// parent and child: one that moves the tainted input every block (the
// full-taint trace loop), one over scratch pages the input never
// reaches (the clean tier's bare loop). NOPs, a followed JMP and an
// RDTSC-dependent branch sit inside the traced paths, so a slice can
// end on every mop shape and a wrong clock would change the step
// count. Each process then writes its copy to a file named in the
// binary.
const forkLoopSrc = `
.text
_start:
    mov ebx, 0
    mov ecx, tbuf
    mov edx, 64
    mov eax, 3          ; read(stdin): taints tbuf
    int 0x80
    mov eax, 2          ; fork: parent and child both loop
    int 0x80
    mov esi, 40
pass:
    mov edi, 0
copy:
    mov ecx, tbuf
    add ecx, edi
    mov eax, [ecx]
    nop
    add eax, esi
    jmp store
store:
    mov ecx, dst
    add ecx, edi
    mov [ecx], eax
    add edi, 4
    cmp edi, 64
    jl copy
    dec esi
    rdtsc
    and eax, 1
    jz even
    nop
even:
    cmp esi, 0
    jnz pass
    xor eax, eax
    mov esi, 200
scrub:
    mov ecx, 0x200000
    mov [ecx], eax
    mov ebx, [ecx+4]
    nop
    mov [ecx+0x1000], ebx
    jmp next
next:
    dec esi
    jnz scrub
    mov ebx, path
    mov ecx, 0x41       ; O_WRONLY|O_CREAT
    mov eax, 5          ; open
    int 0x80
    mov ebx, eax
    mov ecx, dst
    mov edx, 64
    mov eax, 4          ; write
    int 0x80
    mov ebx, 0
    mov eax, 1
    int 0x80
.data
path: .asciz "/tmp/forkloop.out"
tbuf: .space 64
dst: .space 64
`

// TestTraceSliceResume is the gate on budget stops and resumes: a
// trace run stops on the exact instruction where the scheduler slice
// runs out — mid-block included — and the next slice continues it. The
// fork-and-loop program runs at the interpreter tier and with traces
// (and the clean tier) armed, at slices of 128 and 13 instructions;
// warnings, events, retired steps and every process's shadow must
// match. A slice end never hands a traced block to the summary tier,
// so its hits are the same at slice 13 as at 4096.
func TestTraceSliceResume(t *testing.T) {
	run := func(slice int, traced bool) *hth.Result {
		t.Helper()
		sys := hth.NewSystem()
		sys.OS.SetStepsPerSlice(slice)
		sys.MustInstallSource("/bin/forkloop", forkLoopSrc)
		cfg := hth.DefaultConfig()
		if traced {
			cfg.Monitor.PromoteThreshold = 1
			cfg.Monitor.TraceThreshold = 2
			cfg.Monitor.CleanThreshold = 1
		} else {
			cfg.Monitor.PromoteThreshold = 0
		}
		res, err := sys.Run(cfg, hth.RunSpec{
			Path:  "/bin/forkloop",
			Stdin: []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.RunErr != nil {
			t.Fatalf("slice %d traced=%v: %v", slice, traced, res.RunErr)
		}
		return res
	}
	for _, slice := range []int{128, 13} {
		ref, got := run(slice, false), run(slice, true)
		// The scrub loops make 800 block entries across both processes;
		// most of them must run bare, or the bare stops went untested.
		if got.Stats.TraceHits == 0 || got.Stats.CleanHits < 400 {
			t.Fatalf("slice %d: trace hits %d, clean hits %d; the comparison is vacuous",
				slice, got.Stats.TraceHits, got.Stats.CleanHits)
		}
		if ref.TotalSteps != got.TotalSteps {
			t.Errorf("slice %d: steps %d at the interpreter tier, %d traced", slice, ref.TotalSteps, got.TotalSteps)
		}
		if a, b := fmt.Sprint(ref.Warnings), fmt.Sprint(got.Warnings); a != b {
			t.Errorf("slice %d: warnings differ:\n  interp: %s\n  traced: %s", slice, a, b)
		}
		if len(ref.Events) == 0 || len(ref.Events) != len(got.Events) {
			t.Fatalf("slice %d: %d events at the interpreter tier, %d traced", slice, len(ref.Events), len(got.Events))
		}
		for i := range ref.Events {
			if a, b := ref.Events[i].String(), got.Events[i].String(); a != b {
				t.Errorf("slice %d: event %d: %q != %q", slice, i, a, b)
			}
		}
		refP, gotP := ref.Process.OS.Processes(), got.Process.OS.Processes()
		if len(refP) != 2 || len(gotP) != 2 {
			t.Fatalf("slice %d: %d processes at the interpreter tier, %d traced; want 2", slice, len(refP), len(gotP))
		}
		for i := range refP {
			if a, b := shadowDump(refP[i].CPU.Shadow), shadowDump(gotP[i].CPU.Shadow); a != b {
				t.Errorf("slice %d: pid %d shadow differs:\n  interp: %s\n  traced: %s", slice, refP[i].PID, a, b)
			}
		}
	}
	if a, b := run(13, true).Stats.TierHits, run(4096, true).Stats.TierHits; a != b {
		t.Errorf("summary tier hits: %d at slice 13, %d at slice 4096", a, b)
	}
}

// shadowDump renders every tainted byte of the regions forkLoopSrc
// touches — its image, the scratch pages and the stack — as
// address=sources runs, comparable across runs with distinct stores.
func shadowDump(sh *taint.Shadow) string {
	var b strings.Builder
	for _, r := range [][2]uint32{
		{0x08048000, 0x0804C000}, // image: text and data
		{0x00200000, 0x00202000}, // scratch pages
		{0xBFFD0000, 0xBFFF0000}, // stack
	} {
		for a := r[0]; a < r[1]; a++ {
			if tag := sh.Get(a); tag != taint.Empty {
				fmt.Fprintf(&b, "%#x=%s ", a, sh.Store().String(tag))
			}
		}
	}
	return b.String()
}
