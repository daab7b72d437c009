package vos

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/asm"
)

// TestConcurrentInstances is the reentrancy audit, mechanized: many
// OS instances scheduling guests concurrently must neither race (run
// with -race) nor influence each other's execution. This is the
// property that lets the analysis service run one private OS per job
// across its workers with no locking.
func TestConcurrentInstances(t *testing.T) {
	const src = `
.entry _start
.text
_start:
    mov ebx, 1
    mov ecx, msg
    mov edx, 3
    mov eax, 4
    int 0x80
    mov ebx, 0
    mov eax, 1
    int 0x80
.data
msg: .ascii "ok\n"
`
	// Reference execution, sequential.
	ref := buildOS(t, src)
	start(t, ref, ProcSpec{})
	run(t, ref)

	const goroutines = 8
	const iterations = 4
	var wg sync.WaitGroup
	type trial struct {
		console []byte
		steps   uint64
	}
	results := make([]trial, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				os := New()
				os.FS.Install("/bin/prog", asm.MustAssemble("/bin/prog", src))
				if _, err := os.StartProcess(ProcSpec{Path: "/bin/prog"}); err != nil {
					t.Errorf("goroutine %d: start: %v", g, err)
					return
				}
				if err := os.Run(); err != nil {
					t.Errorf("goroutine %d: run: %v", g, err)
					return
				}
				results[g] = trial{console: os.Console, steps: os.TotalSteps}
			}
		}(g)
	}
	wg.Wait()
	for g, tr := range results {
		if !bytes.Equal(tr.console, ref.Console) {
			t.Errorf("goroutine %d: console %q, want %q", g, tr.console, ref.Console)
		}
		if tr.steps != ref.TotalSteps {
			t.Errorf("goroutine %d: steps %d, want %d", g, tr.steps, ref.TotalSteps)
		}
	}
}
