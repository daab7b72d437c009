package main

import (
	"bytes"
	"strings"
	"testing"

	hth "repro"
)

// countLoop runs 200 iterations of add/cmp/dec/jnz: the mov and each
// iteration's add and dec move data, the compares and branches do
// not, so Track_DataFlow sees 1 + 2*200 instructions.
const countLoop = `
.text
_start:
    mov ecx, 200
loop:
    add eax, 3
    cmp eax, 1000
    dec ecx
    jnz loop
    hlt
`

// TestLensShowsEveryDataMovingInstruction: the lens prints one line
// per data-moving instruction however hot the loop gets. A block
// promoted to a compiled trace never calls the per-instruction hook,
// so without the interpreter-tier pin the lens would stop printing
// once the loop body became hot.
func TestLensShowsEveryDataMovingInstruction(t *testing.T) {
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/loop", countLoop)
	var out bytes.Buffer
	res, err := lens(&out, sys, hth.DefaultConfig(), hth.RunSpec{Path: "/bin/loop"}, 10_000, false)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, " loop ") {
			lines++
		}
	}
	if want := 1 + 2*200; lines != want {
		t.Errorf("lens printed %d instruction lines, want %d (%d instructions executed)", lines, want, res.TotalSteps)
	}
	if !strings.Contains(out.String(), "; 401 traced") {
		t.Errorf("count line does not report 401 traced:\n%s", out.String()[max(0, out.Len()-200):])
	}
}
