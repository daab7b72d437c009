// Package secpert implements Secpert, the HTH security expert system
// (paper §6): the policy of §4 expressed as production rules over the
// events Harrier reports, evaluated by the CLIPS-style engine in
// internal/expert. Every warning carries a severity (Low / Medium /
// High — §4's confidence labels), a paper-style message, and the fire
// trace that justifies it.
package secpert

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/events"
	"repro/internal/expert"
	"repro/internal/obs"
	"repro/internal/taint"
)

// Severity is the confidence label of a warning (paper §4).
type Severity int

// Severities, ordered.
const (
	Low Severity = iota
	Medium
	High
)

// String renders the label as the paper prints it.
func (s Severity) String() string {
	switch s {
	case Low:
		return "LOW"
	case Medium:
		return "MEDIUM"
	case High:
		return "HIGH"
	}
	return "?"
}

// Category groups rules as in §4.
type Category int

// Rule categories.
const (
	ExecutionFlow Category = iota
	ResourceAbuse
	InformationFlow
)

// String names the category.
func (c Category) String() string {
	switch c {
	case ExecutionFlow:
		return "execution-flow"
	case ResourceAbuse:
		return "resource-abuse"
	case InformationFlow:
		return "information-flow"
	}
	return "?"
}

// Warning is one policy alert.
type Warning struct {
	Severity Severity `json:"severity"`
	Category Category `json:"category"`
	Rule     string   `json:"rule"`
	Message  string   `json:"message"` // paper-style multi-line text
	PID      int      `json:"pid"`
	Time     uint64   `json:"time"`
	FactIDs  []int    `json:"fact_ids,omitempty"`
	// Chain holds the causal provenance chains of the taint sources
	// behind this warning — one rendered chain per source, ending at
	// the exit that fired the rule. Filled only when a chain resolver
	// is installed (SetChainResolver, i.e. provenance tracing is on);
	// otherwise nil, so default-config output is unchanged.
	Chain []string `json:"chain,omitempty"`
}

// MarshalJSON renders the severity as its label.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", s.String())), nil
}

// MarshalJSON renders the category as its label.
func (c Category) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", c.String())), nil
}

// String renders the warning as the paper does.
func (w Warning) String() string {
	return fmt.Sprintf("Warning [%s] %s", w.Severity, w.Message)
}

// Decision is the advisor's answer to a warning: the user's choice to
// continue or kill the application (paper §4).
type Decision int

// Decisions.
const (
	Proceed Decision = iota
	Terminate
)

// Advisor models the user consulted on each warning.
type Advisor interface {
	Advise(w *Warning) Decision
}

// AdvisorFunc adapts a function to Advisor.
type AdvisorFunc func(w *Warning) Decision

// Advise implements Advisor.
func (f AdvisorFunc) Advise(w *Warning) Decision { return f(w) }

// ContinueAlways proceeds past every warning (the evaluation mode the
// paper uses: "if we allow HTH to continue...").
func ContinueAlways() Advisor {
	return AdvisorFunc(func(*Warning) Decision { return Proceed })
}

// KillAtOrAbove terminates the guest on warnings at or above the
// given severity.
func KillAtOrAbove(min Severity) Advisor {
	return AdvisorFunc(func(w *Warning) Decision {
		if w.Severity >= min {
			return Terminate
		}
		return Proceed
	})
}

// Config tunes the policy.
type Config struct {
	// TrustedBinaries are shared objects whose hardcoded data is not
	// suspicious (paper §A.2: "In our prototype we trust the libc and
	// ld-linux shared objects").
	TrustedBinaries []string
	// TrustedSockets are socket addresses treated as benign origins.
	// Empty by default ("We do not trust any sockets although our
	// implementation does support this").
	TrustedSockets []string

	// RareFrequency: a basic block executed fewer than this many
	// times counts as rare (§4.1 code-frequency reinforcement).
	RareFrequency int64
	// LongTime: the program must have run at least this many virtual
	// ticks for rarity to matter ("program started a while ago").
	LongTime int64

	// CloneCountHigh triggers the Low resource-abuse warning (§4.2).
	CloneCountHigh int64
	// CloneRateHigh triggers the Medium resource-abuse warning: this
	// many clones inside the monitor's rate window.
	CloneRateHigh int64

	// DisableInfoFlow turns off the information-flow rules (used by
	// the mw macro benchmark, §8.4.2, and the ablation benches).
	DisableInfoFlow bool
	// DisableFrequency ignores code-frequency reinforcement.
	DisableFrequency bool

	// History, when set, enables the cross-session extensions (paper
	// §10 items 6 and 8): executing a file written by a previous
	// monitored session escalates to High, and warnings the user
	// approved before are suppressed. Call Secpert.FinishSession at
	// the end of each run. (Not serializable: configure in code.)
	History *History `json:"-"`

	// EnableMemoryAbuse activates the memory-abuse rules (paper §10
	// item 4): heap growth beyond MemHighBytes warns Low; beyond
	// MemVeryHighBytes warns Medium.
	EnableMemoryAbuse bool
	MemHighBytes      int64
	MemVeryHighBytes  int64

	// EnableContentAnalysis activates downloaded-content typing
	// (paper §10 item 5): socket-sourced data that looks executable
	// being written to a file escalates the finding and explains why.
	EnableContentAnalysis bool
}

// ConfigFromJSON overlays JSON policy settings onto the defaults, so
// a policy file only needs the fields it changes:
//
//	{"TrustedBinaries": ["libc.so"], "RareFrequency": 5,
//	 "EnableMemoryAbuse": true}
func ConfigFromJSON(data []byte) (Config, error) {
	cfg := DefaultConfig()
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("secpert: policy file: %w", err)
	}
	return cfg, nil
}

// DefaultConfig mirrors the paper's prototype settings.
func DefaultConfig() Config {
	return Config{
		TrustedBinaries:  []string{"libc.so", "ld-linux.so"},
		RareFrequency:    3,
		LongTime:         20_000,
		CloneCountHigh:   8,
		CloneRateHigh:    8,
		MemHighBytes:     1 << 20,
		MemVeryHighBytes: 16 << 20,
	}
}

// Secpert is the security expert system instance for one monitored
// program run.
type Secpert struct {
	cfg     Config
	eng     *expert.Engine
	advisor Advisor

	warnings []Warning
	pending  Decision

	// origins remembers the name-provenance of every resource the
	// program has accessed (paper §7.1: open/close tracking "allows
	// us to find the data source of the resource id").
	origins map[string][]taint.Source

	// once dedupes the resource-abuse warnings, which would otherwise
	// repeat on every clone past the threshold.
	once [onceKinds]bool

	// rules and tests hold this run's policy rules: the compiled
	// patterns are process-shared, the tests and actions read this
	// Secpert's configuration.
	rules [policySize]expert.Rule
	tests [policySize][1]func(*expert.Bindings) bool

	// boxes holds the boxed form of the event values this run repeats.
	boxes boxCache

	// sessionWrites collects file paths written this session, for
	// History.commit.
	sessionWrites []string
	suppressed    int

	bus *obs.Bus

	// chains resolves taint sources to rendered provenance chains
	// (SetChainResolver). curSources/curDesc describe the event being
	// evaluated, so warn() can attach causality even for rules whose
	// trigger carries no taint (e.g. clone flooding).
	chains     func([]taint.Source) []string
	curSources []taint.Source
	curDesc    string
}

// New builds a Secpert with the given policy configuration.
func New(cfg Config, advisor Advisor) *Secpert {
	if advisor == nil {
		advisor = ContinueAlways()
	}
	s := &Secpert{
		cfg:     cfg,
		eng:     expert.NewEngine(),
		advisor: advisor,
		origins: make(map[string][]taint.Source),
	}
	for _, t := range templates {
		if err := s.eng.DefTemplate(t); err != nil {
			panic(err)
		}
	}
	s.defineRules()
	return s
}

// SetOutput directs the engine's CLIPS-style fire trace and rule
// printout to w.
func (s *Secpert) SetOutput(w io.Writer) { s.eng.Out = w }

// SetAssertEcho additionally echoes every asserted event fact in the
// CLIPS transcript style of the paper's Appendix A.1
// ("CLIPS> (assert (system_call_access ...))").
func (s *Secpert) SetAssertEcho(w io.Writer) { s.eng.Echo = w }

// SetBus attaches the observability bus: every rule firing publishes a
// rule.fire event and every warning a warning event. A nil bus
// detaches both.
func (s *Secpert) SetBus(b *obs.Bus) {
	s.bus = b
	if b == nil {
		s.eng.OnFire = nil
		return
	}
	s.eng.OnFire = func(rec expert.FireRecord) {
		b.Publish(obs.Event{
			Layer: obs.LayerSecpert, Kind: obs.KindRuleFire,
			Num: uint64(rec.Seq), Str: rec.Rule,
		})
	}
}

// SetChainResolver installs the provenance chain resolver consulted at
// warning time (typically Harrier.ProvenanceChains). A nil resolver
// detaches it and warnings stop carrying chains.
func (s *Secpert) SetChainResolver(fn func([]taint.Source) []string) { s.chains = fn }

// Engine exposes the underlying expert engine (for extension rules).
func (s *Secpert) Engine() *expert.Engine { return s.eng }

// Warnings returns all warnings issued so far.
func (s *Secpert) Warnings() []Warning { return s.warnings }

// MaxSeverity returns the highest severity seen and whether any
// warning was issued at all.
func (s *Secpert) MaxSeverity() (Severity, bool) {
	if len(s.warnings) == 0 {
		return Low, false
	}
	max := Low
	for _, w := range s.warnings {
		if w.Severity > max {
			max = w.Severity
		}
	}
	return max, true
}

// HandleAccess analyzes a resource-access event, returning the
// verdict while the guest is paused.
func (s *Secpert) HandleAccess(ev *events.Access) Decision {
	// Remember the resource's name provenance for later data-flow
	// classification (Table 2). Provenance accumulates: when several
	// monitored programs touch the same resource (simultaneous
	// sessions, §10 item 7), all observed origins count.
	if ev.Resource.Name != "" {
		s.origins[ev.Resource.Name] = mergeSources(s.origins[ev.Resource.Name], ev.Resource.Origin)
	}
	if s.chains != nil {
		s.curSources = ev.Resource.Origin
		s.curDesc = eventDesc(ev.Call, ev.Resource.Name, ev.PID, ev.Time)
	}
	s.pending = Proceed
	f, err := s.eng.AssertValues(accessTemplate, s.boxes.accessValues(ev))
	if err != nil {
		panic(fmt.Sprintf("secpert: internal: %v", err))
	}
	s.eng.Run(0)
	s.eng.Retract(f.ID)
	return s.pending
}

// HandleIO analyzes a data-transfer event.
func (s *Secpert) HandleIO(ev *events.IO) Decision {
	if ev.Dir == events.Write && ev.Resource.Type == taint.File &&
		ev.Resource.Name != "stdout" && ev.Resource.Name != "stderr" {
		s.sessionWrites = append(s.sessionWrites, ev.Resource.Name)
	}
	if s.chains != nil {
		s.curSources = mergeSources(ev.Data, ev.Resource.Origin)
		s.curDesc = eventDesc(ev.Call, ev.Resource.Name, ev.PID, ev.Time)
	}
	s.pending = Proceed
	f, err := s.eng.AssertValues(ioTemplate, s.boxes.ioValues(ev))
	if err != nil {
		panic(fmt.Sprintf("secpert: internal: %v", err))
	}
	s.eng.Run(0)
	s.eng.Retract(f.ID)
	return s.pending
}

// warn records a warning, prints it CLIPS-style, and consults the
// advisor.
func (s *Secpert) warn(ctx *expert.Context, cat Category, sev Severity, pid int, t uint64, msg string) {
	w := Warning{
		Severity: sev,
		Category: cat,
		Rule:     ctx.Rule.Name,
		Message:  msg,
		PID:      pid,
		Time:     t,
		FactIDs:  append([]int(nil), ctx.IDs...),
	}
	if s.chains != nil {
		w.Chain = s.chains(s.curSources)
		if len(w.Chain) == 0 {
			// No taint source behind the trigger (e.g. clone
			// flooding): the event itself is the whole chain.
			w.Chain = []string{s.curDesc}
		}
	}
	if s.cfg.History != nil && s.cfg.History.Approved(&w) {
		// The user allowed an identical warning in a previous
		// session: adaptive suppression (§10 item 8).
		s.suppressed++
		return
	}
	s.warnings = append(s.warnings, w)
	if s.bus != nil {
		s.bus.Publish(obs.Event{
			Time: t, Layer: obs.LayerSecpert, Kind: obs.KindWarning,
			PID: int32(pid), Num: uint64(sev), Str: w.Rule, Str2: msg,
		})
	}
	ctx.Printf("Warning [%s] %s\n", sev, msg)
	if s.advisor.Advise(&w) == Terminate {
		s.pending = Terminate
	}
}

// listsToSources is the inverse of boxCache.sources, used by rule
// actions.
func listsToSources(types, names []expert.Value) []taint.Source {
	n := len(types)
	if len(names) < n {
		n = len(names)
	}
	out := make([]taint.Source, 0, n)
	for i := 0; i < n; i++ {
		tn, _ := types[i].(string)
		nm, _ := names[i].(string)
		out = append(out, taint.Source{Type: typeByName(tn), Name: nm})
	}
	return out
}

func typeByName(name string) taint.SourceType {
	for _, t := range []taint.SourceType{
		taint.UserInput, taint.File, taint.Socket, taint.Binary,
		taint.Hardware, taint.Unknown,
	} {
		if t.String() == name {
			return t
		}
	}
	return taint.None
}

// mergeSources unions two source sets, preserving canonical order via
// simple append-and-dedup (sets here are tiny).
func mergeSources(a, b []taint.Source) []taint.Source {
	if len(a) == 0 {
		return b
	}
	out := append([]taint.Source(nil), a...)
	for _, src := range b {
		dup := false
		for _, have := range out {
			if have == src {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, src)
		}
	}
	return out
}

// eventDesc renders the event under evaluation as a one-line fallback
// chain element.
func eventDesc(call, name string, pid int, t uint64) string {
	if name != "" {
		return fmt.Sprintf("%s %q (pid %d) @t=%d", call, name, pid, t)
	}
	return fmt.Sprintf("%s (pid %d) @t=%d", call, pid, t)
}

func quoteList(names []string) string {
	b := []byte{'('}
	for i, n := range names {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendQuote(b, n)
	}
	return string(append(b, ')'))
}
