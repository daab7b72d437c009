// Command hth-bench regenerates the paper's evaluation tables: it
// runs every corpus scenario of the requested table, prints HTH's
// outcome per row, and marks whether the paper-reported result was
// reproduced.
//
//	hth-bench -table 4            # Table 4 (execution flow)
//	hth-bench -table all          # every table and macro benchmark
//	hth-bench -table all -parallel 4   # sweep scenarios on 4 workers
//	hth-bench -chaos 0xC0FFEE,0.05     # seeded fault-injection gate
//
// It exits 1 when any row diverges from the paper. The §9 performance
// comparison is measured by the root package's BenchmarkPerf*
// benchmarks (see EXPERIMENTS.md), not by this command.
//
// The -chaos mode replaces table reproduction with the robustness
// gate: it verifies a zero-rate plan leaves the corpus bit-identical
// to the baseline, then sweeps the corpus under the given plan and
// asserts every injected fault lands as a structured outcome (no
// escaped panics, hangs or crashes).
//
// Scenario outcomes are independent of -parallel: every scenario runs
// in a private virtual machine, so a 4-wide sweep reports exactly the
// detections of a serial one, just sooner.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/corpus"
	"repro/internal/report"
)

func main() {
	table := flag.String("table", "all", "table to regenerate: 1|4|5|6|7|8|pwsafe|mw|ttt|all")
	parallel := flag.Int("parallel", 1, "scenario worker-pool width (0 = GOMAXPROCS)")
	chaosSpec := flag.String("chaos", "", "run the fault-injection gate with plan \"seed,rate[,kind...]\"")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	code := run(*table, *parallel, *chaosSpec)
	stopProfiles()
	if code != 0 {
		os.Exit(code)
	}
}

func run(table string, parallel int, chaosSpec string) int {
	if chaosSpec != "" {
		if runChaos(chaosSpec, parallel) > 0 {
			return 1
		}
		return 0
	}

	failures := 0
	for _, id := range resolve(table) {
		failures += printTable(id, corpus.RunAll(corpus.ByTable(id), parallel))
	}
	if failures > 0 {
		fmt.Printf("\n%d row(s) diverged from the paper.\n", failures)
		return 1
	}
	return 0
}

// startProfiles arms the requested pprof outputs and returns the
// flush function main runs before exiting. Profiling failures are
// fatal: a silently missing profile defeats the point of asking for
// one.
func startProfiles(cpuPath, memPath string) func() {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hth-bench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hth-bench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
	}
	return func() {
		if cpuPath != "" {
			pprof.StopCPUProfile()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hth-bench: -memprofile: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			runtime.GC() // materialize the live heap before sampling
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hth-bench: -memprofile: %v\n", err)
				os.Exit(2)
			}
		}
	}
}

func resolve(sel string) []string {
	switch sel {
	case "1", "T1":
		return []string{"T1"}
	case "4", "T4":
		return []string{"T4"}
	case "5", "T5":
		return []string{"T5"}
	case "6", "T6":
		return []string{"T6"}
	case "7", "T7":
		return []string{"T7"}
	case "8", "T8":
		return []string{"T8"}
	case "pwsafe", "M1":
		return []string{"M1"}
	case "mw", "M2":
		return []string{"M2"}
	case "ttt", "M3":
		return []string{"M3"}
	case "all":
		return report.TableIDs
	}
	fmt.Fprintf(os.Stderr, "hth-bench: unknown table %q\n", sel)
	os.Exit(2)
	return nil
}

func verdictOf(o *corpus.RunOutcome) string {
	if o.Reproduced() {
		return "reproduced"
	}
	return "DIVERGED: " + o.Problems[0]
}

func printTable(id string, outs []corpus.RunOutcome) (failures int) {
	if id == "T1" {
		return printTable1(outs)
	}
	t := &report.Table{
		Title:  report.Titles[id],
		Header: []string{"Benchmark", "HTH outcome", "Paper expectation"},
	}
	for i := range outs {
		o := &outs[i]
		if o.Err != nil {
			t.Add(o.Scenario.Row, "ERROR: "+o.Err.Error(), "—")
			failures++
			continue
		}
		if !o.Reproduced() {
			failures++
		}
		t.Add(o.Scenario.Row, corpus.Outcome(o.Result), verdictOf(o))
	}
	fmt.Println(t)
	return failures
}

// printTable1 regenerates the paper's Table 1: the execution-pattern
// columns derived from HTH's warnings on the §2.1 malware models.
func printTable1(outs []corpus.RunOutcome) (failures int) {
	t := &report.Table{
		Title: report.Titles["T1"],
		Header: []string{"Exploit Name", "No user intervention",
			"Remotely directed", "Hard-coded Resources", "Degrading performance", "Status"},
	}
	mark := func(b bool) string {
		if b {
			return "x"
		}
		return ""
	}
	for i := range outs {
		o := &outs[i]
		if o.Err != nil {
			t.Add(o.Scenario.Row, "", "", "", "", "ERROR: "+o.Err.Error())
			failures++
			continue
		}
		if !o.Reproduced() {
			failures++
		}
		hard, remote, degrading := corpus.Table1Row(o.Result)
		// Every model runs without user direction by construction.
		t.Add(o.Scenario.Row, "x", mark(remote), mark(hard), mark(degrading), verdictOf(o))
	}
	fmt.Println(t)
	return failures
}
