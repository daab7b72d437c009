// Benchmarks regenerating the paper's evaluation: one benchmark per
// table (4–8), the macro benchmarks of §8.4, the Figure 3
// basic-block-attribution path, and ablations of the design choices
// called out in DESIGN.md. The §9 performance comparison (bare vs
// no-dataflow vs full monitoring) lives with its workloads in
// internal/corpus. Run with:
//
//	go test -bench=. -benchmem
//
// Each table bench executes every scenario of that table and fails if
// any diverges from the paper-reported expectation, so the benchmark
// numbers always describe *reproducing* runs.
package hth_test

import (
	"fmt"
	"testing"

	hth "repro"
	"repro/internal/corpus"
	"repro/internal/secpert"
)

// benchTable runs all scenarios of one paper table per iteration.
func benchTable(b *testing.B, table string) {
	scs := corpus.ByTable(table)
	if len(scs) == 0 {
		b.Fatalf("no scenarios for %s", table)
	}
	b.ReportAllocs()
	var steps uint64
	for i := 0; i < b.N; i++ {
		for _, sc := range scs {
			res, err := sc.RunWith(nil)
			if err != nil {
				b.Fatalf("%s: %v", sc.Name, err)
			}
			if problems := sc.Check(res); len(problems) > 0 {
				b.Fatalf("%s diverged: %v", sc.Name, problems)
			}
			steps += res.TotalSteps
		}
	}
	b.ReportMetric(float64(steps)/float64(b.N), "guest-instrs/op")
	b.ReportMetric(float64(len(scs)), "scenarios")
}

func BenchmarkTable1MalwareModels(b *testing.B)   { benchTable(b, "T1") }
func BenchmarkTable4ExecutionFlow(b *testing.B)   { benchTable(b, "T4") }
func BenchmarkTable5ResourceAbuse(b *testing.B)   { benchTable(b, "T5") }
func BenchmarkTable6InformationFlow(b *testing.B) { benchTable(b, "T6") }
func BenchmarkTable7TrustedPrograms(b *testing.B) { benchTable(b, "T7") }
func BenchmarkTable8RealExploits(b *testing.B)    { benchTable(b, "T8") }
func BenchmarkMacroPwsafe(b *testing.B)           { benchTable(b, "M1") }
func BenchmarkMacroMW(b *testing.B)               { benchTable(b, "M2") }
func BenchmarkMacroTicTacToe(b *testing.B)        { benchTable(b, "M3") }

// BenchmarkFigure3BBAttribution exercises the application↔shared
// object basic-block path of paper Figure 3: a guest hammering a libc
// routine, with frequency attribution active.
func BenchmarkFigure3BBAttribution(b *testing.B) {
	const src = `
.import "libc.so"
.text
_start:
    mov esi, 500
loop:
    mov ebx, msg
    call strlen
    dec esi
    jnz loop
    hlt
.data
msg: .asciz "attribution"
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := hth.NewSystem()
		sys.MustInstallSource("/bin/hot", src)
		res, err := sys.Run(hth.DefaultConfig(), hth.RunSpec{Path: "/bin/hot"})
		if err != nil {
			b.Fatal(err)
		}
		if res.Process.Fault != nil {
			b.Fatal(res.Process.Fault)
		}
	}
}

// --- Ablations (DESIGN.md §7) ---

// ablationConfig runs the Table 8 exploits under a modified
// configuration and reports how many paper-expected detections
// survive, quantifying what each design choice buys.
func ablationDetections(b *testing.B, tweak func(*hth.Config)) {
	scs := corpus.ByTable("T8")
	b.ReportAllocs()
	detected := 0
	total := 0
	for i := 0; i < b.N; i++ {
		detected, total = 0, 0
		for _, sc := range scs {
			sys := hth.NewSystem()
			sc.Setup(sys)
			cfg := hth.DefaultConfig()
			if sc.Tweak != nil {
				sc.Tweak(&cfg)
			}
			tweak(&cfg)
			res, err := sys.Run(cfg, sc.Spec)
			if err != nil {
				b.Fatal(err)
			}
			total++
			if len(res.Warnings) > 0 {
				detected++
			}
		}
	}
	b.ReportMetric(float64(detected), "detected")
	b.ReportMetric(float64(total), "exploits")
}

func BenchmarkAblationFullSystem(b *testing.B) {
	ablationDetections(b, func(cfg *hth.Config) {})
}

func BenchmarkAblationNoDataflow(b *testing.B) {
	ablationDetections(b, func(cfg *hth.Config) { cfg.Monitor.Dataflow = false })
}

func BenchmarkAblationNoFrequency(b *testing.B) {
	ablationDetections(b, func(cfg *hth.Config) { cfg.Policy.DisableFrequency = true })
}

func BenchmarkAblationNoTrustedFilter(b *testing.B) {
	ablationDetections(b, func(cfg *hth.Config) { cfg.Policy.TrustedBinaries = nil })
}

func BenchmarkAblationNoInfoFlow(b *testing.B) {
	ablationDetections(b, func(cfg *hth.Config) { cfg.Policy.DisableInfoFlow = true })
}

// BenchmarkAdvisorKill measures the kill path: terminate every guest
// at its first High warning.
func BenchmarkAdvisorKill(b *testing.B) {
	sc, ok := corpus.ByName("vixie-crontab")
	if !ok {
		b.Fatal("scenario missing")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := hth.NewSystem()
		sc.Setup(sys)
		cfg := hth.DefaultConfig()
		cfg.Advisor = secpert.KillAtOrAbove(secpert.High)
		res, err := sys.Run(cfg, sc.Spec)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Process.Killed {
			b.Fatal("guest not killed")
		}
	}
}

// BenchmarkWarningThroughput stresses Secpert with a guest that
// triggers many information-flow warnings.
func BenchmarkWarningThroughput(b *testing.B) {
	const src = `
.text
_start:
    mov esi, 50
loop:
    mov ebx, f
    mov eax, 8          ; creat
    int 0x80
    mov ebx, eax
    mov ecx, payload
    mov edx, 8
    mov eax, 4          ; write (High each time)
    int 0x80
    mov eax, 6
    int 0x80
    dec esi
    jnz loop
    hlt
.data
f:       .asciz "/tmp/drop"
payload: .asciz "PAYLOAD1"
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := hth.NewSystem()
		sys.MustInstallSource("/bin/noisy", src)
		res, err := sys.Run(hth.DefaultConfig(), hth.RunSpec{Path: "/bin/noisy"})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Warnings) != 50 {
			b.Fatalf("warnings = %d", len(res.Warnings))
		}
	}
}

func Example() {
	sys := hth.NewSystem()
	sys.MustInstallSource("/bin/ls", ".text\n_start: hlt\n")
	sys.MustInstallSource("/bin/trojan", `
.text
_start:
    mov ebx, prog
    mov ecx, 0
    mov edx, 0
    mov eax, 11
    int 0x80
    hlt
.data
prog: .asciz "/bin/ls"
`)
	res, err := sys.Run(hth.DefaultConfig(), hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		panic(err)
	}
	fmt.Print(res.Report())
	// Output:
	// Warning [LOW] Found SYS_execve call ("/bin/ls")
	//     ("/bin/ls") originated from ("/bin/trojan")
}
