// Command hth-trace runs a guest program and prints every data-moving
// instruction with its taint effects — a debugging lens on exactly
// what Harrier's Track_DataFlow sees through its OnInstrData hook;
// compares and branches move no data and are not shown — or replays a
// recorded JSONL event trace (the hth.JSONL observer's output). The
// lens pins the run to the interpreter tier: a block promoted to a
// compiled trace would run its transfers without the per-instruction
// hook, so the lens would go blind. Verdicts are identical at every
// tier.
//
//	hth-trace -in prog.s [-limit 200] [-taint] [-provenance] [-symbols] [-perfetto out.json] [arg ...]
//	hth-trace -replay run.jsonl[.gz] [-layer vos] [-pid 1] [-kind syscall.enter] [-rule RULE]
//	hth-trace -replay run.jsonl -summary
//	hth-trace -replay run.jsonl -spans [-perfetto out.json]
//
// -summary on a span-bearing trace appends a per-job latency rollup
// (queue/exec/total). -spans re-threads span.start/span.end events
// into per-trace timelines and writes Chrome trace_event JSON for
// Perfetto.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	hth "repro"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/taint"
	"repro/internal/vos"
)

func main() {
	var (
		in        = flag.String("in", "", "guest assembly file")
		limit     = flag.Int("limit", 500, "maximum instructions to trace")
		showTaint = flag.Bool("taint", false, "print register tags after each instruction")
		stdin     = flag.String("stdin", "", "guest stdin")
		prov      = flag.Bool("provenance", false, "trace taint provenance and print every source's causal chain")
		symbols   = flag.Bool("symbols", false, "with -provenance: render block hops as image:symbol+delta frames when symbols exist")
		perfetto  = flag.String("perfetto", "", "with -provenance: write a Chrome trace_event JSON for Perfetto to this file")

		replayIn  = flag.String("replay", "", "replay a JSONL event trace (plain or gzipped) instead of running a guest")
		layerName = flag.String("layer", "", "replay: only events from this layer (run|vos|harrier|secpert|chaos)")
		kindName  = flag.String("kind", "", "replay: only events of this kind (e.g. syscall.enter)")
		pid       = flag.Int("pid", -1, "replay: only events for this guest pid")
		rule      = flag.String("rule", "", "replay: only rule.fire/warning events for this rule")
		summary   = flag.Bool("summary", false, "replay: print per-layer/kind/rule counts instead of events")
		spans     = flag.Bool("spans", false, "replay: reconstruct lifecycle spans into Chrome trace_event JSON (to -perfetto path, else stdout)")
	)
	flag.Parse()
	if *replayIn != "" {
		if *spans {
			if err := replaySpans(*replayIn, *perfetto); err != nil {
				fatalf("%v", err)
			}
			return
		}
		pidStr := ""
		if *pid >= 0 {
			pidStr = strconv.Itoa(*pid)
		}
		filter, err := obs.ParseFilter(*layerName, *kindName, pidStr, *rule)
		if err != nil {
			fatalf("%v", err)
		}
		if err := replay(os.Stdout, *replayIn, &filter, *summary); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*in)
	if err != nil {
		fatalf("%v", err)
	}

	sys := hth.NewSystem()
	guestPath := "/bin/" + strings.TrimSuffix(filepath.Base(*in), ".s")
	if image.IsELF(src) {
		if err := sys.InstallBinary(guestPath, src); err != nil {
			fatalf("load: %v", err)
		}
	} else if err := sys.InstallSource(guestPath, string(src)); err != nil {
		fatalf("assemble: %v", err)
	}

	cfg := hth.DefaultConfig()
	if *prov {
		cfg.Provenance = true
		cfg.Symbolize = *symbols
	}
	res, err := lens(os.Stdout, sys, cfg, hth.RunSpec{
		Path:  guestPath,
		Argv:  append([]string{guestPath}, flag.Args()...),
		Stdin: []byte(*stdin),
	}, *limit, *showTaint)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Print(res.Report())
	if *prov && res.Provenance != nil {
		fmt.Println("provenance chains:")
		for _, ch := range res.Provenance.Chains() {
			fmt.Printf("  %s\n", ch)
		}
		if *perfetto != "" {
			f, err := os.Create(*perfetto)
			if err != nil {
				fatalf("%v", err)
			}
			if err := res.Provenance.WriteChromeTrace(f); err != nil {
				fatalf("perfetto: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("perfetto: %v", err)
			}
			fmt.Printf("perfetto trace written to %s\n", *perfetto)
		}
	}
}

// lens runs spec on sys under cfg, pinned to the interpreter tier,
// and prints to out the first limit data-moving instructions (with the
// tagged registers after each when showTaint is set), then a count
// line. The tracing hook is spliced in front of Harrier's through the
// Session API.
func lens(out io.Writer, sys *hth.System, cfg hth.Config, spec hth.RunSpec, limit int, showTaint bool) (*hth.Result, error) {
	cfg.Monitor.PromoteThreshold = 0
	sn := sys.NewSession(cfg)
	p, err := sn.Start(spec)
	if err != nil {
		return nil, err
	}
	count := 0
	store := storeOf(p)
	inner := p.CPU.Hooks.OnInstr
	p.CPU.Hooks.OnInstr = func(c *isa.CPU, s *isa.Span, idx int) {
		if count < limit {
			fmt.Fprintf(out, "%08x %-14s %s\n", s.Addr(idx), shortImage(s.Image), s.Instrs[idx])
			if showTaint && store != nil {
				printTags(out, c, store)
			}
		}
		if count == limit {
			fmt.Fprintf(out, "... trace limit reached (%d), continuing silently\n", limit)
		}
		count++
		if inner != nil {
			inner(c, s, idx)
		}
	}
	res, err := sn.Wait()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "\n%d instruction(s) executed; %d traced\n", res.TotalSteps, min(count, limit))
	return res, nil
}

func storeOf(p *vos.Process) *taint.Store {
	if p.CPU.Shadow == nil {
		return nil
	}
	return p.CPU.Shadow.Store()
}

func printTags(out io.Writer, c *isa.CPU, store *taint.Store) {
	var parts []string
	for r := isa.EAX; r < isa.NumRegs; r++ {
		if t := c.RegTags[r]; t != taint.Empty {
			parts = append(parts, fmt.Sprintf("%s=%s", r, store.String(t)))
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(out, "         tags: %s\n", strings.Join(parts, " "))
	}
}

func shortImage(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hth-trace: "+format+"\n", args...)
	os.Exit(1)
}
