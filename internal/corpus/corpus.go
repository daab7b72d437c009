// Package corpus reproduces every workload of the paper's evaluation
// (§8): the execution-flow, resource-abuse and information-flow micro
// benchmarks (Tables 4–6), the trusted-program suite (Table 7 / §8.2),
// the real exploits (Table 8 / §8.3), and the macro benchmarks
// (§8.4) — each as a guest program (or set of programs, files and
// scripted network peers) with the paper-reported expectation attached.
//
// Where the paper's result depends on a documented *gap* in the
// prototype (pico's spurious High, grabem's missed USER source,
// pwsafe's missed database source), the corpus program reproduces the
// observable behaviour of that gap; each such place is commented.
package corpus

import (
	"fmt"
	"sort"
	"strings"

	hth "repro"
	"repro/internal/secpert"
)

// ExpectWarning is one warning the paper reports for a scenario.
type ExpectWarning struct {
	Severity secpert.Severity
	Contains string // substring of the warning message
	Rule     string // optional rule-name constraint
}

// Expectation encodes the paper-reported outcome of a scenario.
type Expectation struct {
	// Clean means no warnings at all (correctly classified benign).
	Clean bool
	// Warnings must each be present.
	Warnings []ExpectWarning
	// Capped caps every warning's severity at Cap (e.g. xeyes: "All
	// the warning generated were of Low severity", §8.2.11).
	Capped bool
	Cap    secpert.Severity
	// ExactCount, when >= 0, pins the total warning count; use -1 for
	// "any count". The zero value is normalized to -1 unless Clean.
	ExactCount int
}

// Scenario is one reproducible workload.
type Scenario struct {
	Name  string
	Table string // "T4", "T5", "T6", "T7", "T8", "M1", "M2", "M3"
	Row   string // the paper's row label, e.g. "Hardcode"
	Desc  string

	Setup func(sys *hth.System)
	Spec  hth.RunSpec
	Tweak func(cfg *hth.Config)

	Expect Expectation
}

var registry []*Scenario

func register(sc *Scenario) *Scenario {
	if sc.Expect.ExactCount == 0 && !sc.Expect.Clean {
		sc.Expect.ExactCount = -1
	}
	registry = append(registry, sc)
	return sc
}

// All returns every scenario, stable-sorted by table then name.
func All() []*Scenario {
	out := append([]*Scenario(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ByTable returns the scenarios of one table in registration order.
func ByTable(table string) []*Scenario {
	var out []*Scenario
	for _, sc := range registry {
		if sc.Table == table {
			out = append(out, sc)
		}
	}
	return out
}

// ByName finds a scenario.
func ByName(name string) (*Scenario, bool) {
	for _, sc := range registry {
		if sc.Name == name {
			return sc, true
		}
	}
	return nil, false
}

// RunWith executes the scenario and returns the monitored result. A
// non-nil extra is a configuration override applied after the
// scenario's own Tweak — the hook sweep harnesses use to attach chaos
// plans and resource budgets without touching the scenario definitions.
func (sc *Scenario) RunWith(extra func(*hth.Config)) (*hth.Result, error) {
	sys := hth.NewSystem()
	if sc.Setup != nil {
		sc.Setup(sys)
	}
	cfg := hth.DefaultConfig()
	if sc.Tweak != nil {
		sc.Tweak(&cfg)
	}
	if extra != nil {
		extra(&cfg)
	}
	return sys.Run(cfg, sc.Spec)
}

// Check validates a result against the scenario's expectation,
// returning a list of discrepancies (empty = reproduced).
func (sc *Scenario) Check(res *hth.Result) []string {
	var problems []string
	e := sc.Expect
	if e.Clean && len(res.Warnings) > 0 {
		problems = append(problems,
			fmt.Sprintf("expected no warnings, got %d: %v", len(res.Warnings), heads(res)))
	}
	for _, want := range e.Warnings {
		if !hasWarning(res, want) {
			problems = append(problems, fmt.Sprintf(
				"missing [%s] warning containing %q (rule %q); got %v",
				want.Severity, want.Contains, want.Rule, heads(res)))
		}
	}
	if e.Capped {
		for _, w := range res.Warnings {
			if w.Severity > e.Cap {
				problems = append(problems, fmt.Sprintf(
					"warning above allowed severity: [%s] %.60q", w.Severity, w.Message))
			}
		}
	}
	if e.ExactCount >= 0 && len(res.Warnings) != e.ExactCount {
		problems = append(problems, fmt.Sprintf(
			"expected exactly %d warnings, got %d: %v", e.ExactCount, len(res.Warnings), heads(res)))
	}
	return problems
}

func hasWarning(res *hth.Result, want ExpectWarning) bool {
	for _, w := range res.Warnings {
		if w.Severity != want.Severity {
			continue
		}
		if want.Rule != "" && w.Rule != want.Rule {
			continue
		}
		if strings.Contains(w.Message, want.Contains) {
			return true
		}
	}
	return false
}

// heads summarizes warnings for diagnostics.
func heads(res *hth.Result) []string {
	out := make([]string, len(res.Warnings))
	for i, w := range res.Warnings {
		first := w.Message
		if nl := strings.IndexByte(first, '\n'); nl >= 0 {
			first = first[:nl]
		}
		out[i] = fmt.Sprintf("[%s] %s", w.Severity, first)
	}
	return out
}

// Verdict renders the scenario outcome as the paper's tables do.
func (sc *Scenario) Verdict(res *hth.Result) string {
	problems := sc.Check(res)
	if len(problems) == 0 {
		return "reproduced"
	}
	return "DIVERGED: " + problems[0]
}

// Outcome summarizes what HTH reported, for the table renderers.
func Outcome(res *hth.Result) string {
	if len(res.Warnings) == 0 {
		return "no warnings"
	}
	counts := map[secpert.Severity]int{}
	for _, w := range res.Warnings {
		counts[w.Severity]++
	}
	var parts []string
	for _, sev := range []secpert.Severity{secpert.High, secpert.Medium, secpert.Low} {
		if counts[sev] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", counts[sev], sev))
		}
	}
	return strings.Join(parts, ", ")
}
