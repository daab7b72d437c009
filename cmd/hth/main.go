// Command hth runs a guest program under the HTH monitor and prints
// Secpert's warnings — the front door of the framework.
//
// Run a corpus scenario (the paper's benchmarks):
//
//	hth -scenario pma
//	hth -list
//
// Or assemble and monitor your own guest program:
//
//	hth -prog suspect.s [-stdin text] [-kill high] [-verbose] [arg ...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	hth "repro"
	"repro/internal/corpus"
	"repro/internal/image"
	"repro/internal/secpert"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "run a named corpus scenario")
		list     = flag.Bool("list", false, "list corpus scenarios")
		prog     = flag.String("prog", "", "run a guest program from this file (assembly source or ELF32 binary)")
		stdin    = flag.String("stdin", "", "guest stdin contents")
		kill     = flag.String("kill", "", "kill the guest at this severity or above (low|medium|high)")
		verbose  = flag.Bool("verbose", false, "print the expert-system fire trace as it happens")
		trace    = flag.Bool("trace", false, "with -verbose: echo every asserted event fact (Appendix A.1 style)")
		noflow   = flag.Bool("no-dataflow", false, "disable instruction-level taint tracking")
		events   = flag.Bool("events", false, "print the EventAnalyzer transcript after the run")
		jsonOut  = flag.Bool("json", false, "print warnings as JSON")
		policy   = flag.String("policy", "", "JSON policy file overriding the default Secpert settings")
	)
	flag.Parse()

	switch {
	case *list:
		listScenarios()
	case *scenario != "":
		runScenario(*scenario, opts{verbose: *verbose, trace: *trace, events: *events, json: *jsonOut, policy: *policy})
	case *prog != "":
		runProgram(*prog, *stdin, *kill,
			opts{verbose: *verbose, trace: *trace, events: *events, json: *jsonOut, noflow: *noflow, policy: *policy},
			flag.Args())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func listScenarios() {
	for _, sc := range corpus.All() {
		fmt.Printf("%-4s %-28s %s\n", sc.Table, sc.Name, sc.Desc)
	}
}

type opts struct {
	verbose, trace, events, json, noflow bool
	policy                               string
}

// attachCLIPS prints the expert engine's fire trace (-verbose) and
// assert echo (-trace) to stdout as the run progresses. The bus
// delivers synchronously, so all of it is out before the report.
func (o opts) attachCLIPS(cfg *hth.Config) {
	switch {
	case o.verbose && o.trace:
		hth.WithObserver(hth.CLIPSTranscript(os.Stdout))(cfg)
	case o.verbose:
		hth.WithObserver(hth.CLIPSText(os.Stdout))(cfg)
	}
}

// applyPolicy overlays a policy file onto cfg.
func applyPolicy(cfg *hth.Config, file string) {
	if file == "" {
		return
	}
	data, err := os.ReadFile(file)
	if err != nil {
		fatalf("%v", err)
	}
	pol, err := secpert.ConfigFromJSON(data)
	if err != nil {
		fatalf("%v", err)
	}
	cfg.Policy = pol
}

func runScenario(name string, o opts) {
	sc, ok := corpus.ByName(name)
	if !ok {
		fatalf("unknown scenario %q (use -list)", name)
	}
	sys := hth.NewSystem()
	if sc.Setup != nil {
		sc.Setup(sys)
	}
	cfg := hth.DefaultConfig()
	if sc.Tweak != nil {
		sc.Tweak(&cfg)
	}
	applyPolicy(&cfg, o.policy)
	o.attachCLIPS(&cfg)
	res, err := sys.Run(cfg, sc.Spec)
	if err != nil {
		fatalf("%v", err)
	}
	printResult(res, o)
	fmt.Printf("paper expectation: %s\n", sc.Verdict(res))
}

func runProgram(path, stdin, kill string, o opts, args []string) {
	src, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	sys := hth.NewSystem()
	guestPath := "/bin/" + strings.TrimSuffix(filepath.Base(path), ".s")
	// Binary payloads (ELF32 executables) go through the
	// format-agnostic frontend; text stays on the forced asm path so
	// its compile diagnostics keep their familiar shape.
	if image.IsELF(src) {
		if err := sys.InstallBinary(guestPath, src); err != nil {
			fatalf("load: %v", err)
		}
	} else if err := sys.InstallSource(guestPath, string(src)); err != nil {
		fatalf("assemble: %v", err)
	}
	cfg := hth.DefaultConfig()
	cfg.Monitor.Dataflow = !o.noflow
	applyPolicy(&cfg, o.policy)
	o.attachCLIPS(&cfg)
	if kill != "" {
		sev, err := parseSeverity(kill)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Advisor = secpert.KillAtOrAbove(sev)
	}
	res, err := sys.Run(cfg, hth.RunSpec{
		Path:  guestPath,
		Argv:  append([]string{guestPath}, args...),
		Stdin: []byte(stdin),
	})
	if err != nil {
		fatalf("%v", err)
	}
	printResult(res, o)
}

func printResult(res *hth.Result, o opts) {
	if len(res.Console) > 0 {
		fmt.Printf("--- guest console ---\n%s\n---------------------\n", res.Console)
	}
	if o.events {
		fmt.Println("--- event transcript ---")
		for _, e := range res.Events {
			fmt.Println(e)
		}
		fmt.Println("------------------------")
	}
	if o.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Warnings); err != nil {
			fatalf("json: %v", err)
		}
	} else {
		fmt.Print(res.Report())
	}
	p := res.Process
	switch {
	case p.Killed:
		fmt.Println("guest: KILLED by the monitor")
	case p.Fault != nil:
		fmt.Printf("guest: FAULTED: %v\n", p.Fault)
	default:
		fmt.Printf("guest: exited %d after %d instructions\n", p.ExitCode, res.TotalSteps)
	}
}

func parseSeverity(s string) (secpert.Severity, error) {
	switch strings.ToLower(s) {
	case "low":
		return secpert.Low, nil
	case "medium":
		return secpert.Medium, nil
	case "high":
		return secpert.High, nil
	}
	return 0, fmt.Errorf("bad severity %q", s)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hth: "+format+"\n", args...)
	os.Exit(1)
}
