package secpert

import (
	"fmt"
	"strings"

	"repro/internal/expert"
	"repro/internal/taint"
)

// onceKind names a resource-abuse warning issued at most once a run.
type onceKind int

const (
	onceCloneCount onceKind = iota
	onceCloneRate
	onceMemHigh
	onceMemVeryHigh
	onceKinds
)

// policyRule is one rule of the §4 policy. Its patterns are compiled
// once per process against the shared templates; its test and action
// take the Secpert whose configuration and state they read.
type policyRule struct {
	name, doc string
	salience  int
	lhs       *expert.LHS
	test      func(s *Secpert, b *expert.Bindings) bool
	fire      func(s *Secpert, ctx *expert.Context, b *expert.Bindings)
	enabled   func(Config) bool // nil: always defined
}

const policySize = 5

// policy is the §4 rule base, in definition order:
//
//   - execution flow: check_execve (hardcoded / socket-originated /
//     rarely-executed process names);
//   - resource abuse: check_clone_count, check_clone_rate;
//   - information flow: check_write (the §4.3 source×target matrix)
//     plus the keylogger-style user-input rules motivated by
//     PWSteal.Tarno.Q (§2.1);
//   - the §10 memory-abuse extension, when enabled.
var policy = [policySize]policyRule{
	{
		name: "check_execve", doc: "check execve", salience: 10,
		lhs: compile("check_execve", expert.P("system_call_access",
			bindAccess(expert.S("system_call_name", expert.Lit("SYS_execve")))...)),
		test: (*Secpert).execveTest, fire: (*Secpert).execveFire,
	},
	{
		name: "check_clone_count", salience: 8,
		lhs: compile("check_clone_count", expert.P("system_call_access",
			expert.S("system_call_name", expert.Pred(isCloneCall)),
			expert.S("clone_count", expert.Var("count")),
			expert.S("time", expert.Var("time")),
			expert.S("pid", expert.Var("pid")),
		)),
		test: (*Secpert).cloneCountTest, fire: (*Secpert).cloneCountFire,
	},
	{
		name: "check_clone_rate", salience: 8,
		lhs: compile("check_clone_rate", expert.P("system_call_access",
			expert.S("system_call_name", expert.Pred(isCloneCall)),
			expert.S("clone_rate", expert.Var("rate")),
			expert.S("time", expert.Var("time")),
			expert.S("pid", expert.Var("pid")),
		)),
		test: (*Secpert).cloneRateTest, fire: (*Secpert).cloneRateFire,
	},
	{
		name: "check_write", salience: 5,
		lhs: compile("check_write", expert.P("system_call_io",
			expert.S("direction", expert.Lit("write")),
			expert.S("data_source_type", expert.Var("dtypes")),
			expert.S("data_source_name", expert.Var("dnames")),
			expert.S("resource_name", expert.Var("name")),
			expert.S("resource_type", expert.Var("rtype")),
			expert.S("resource_origin_type", expert.Var("otypes")),
			expert.S("resource_origin_name", expert.Var("onames")),
			expert.S("head", expert.Var("head")),
			expert.S("server", expert.Var("server")),
			expert.S("server_addr", expert.Var("saddr")),
			expert.S("server_origin_type", expert.Var("sotypes")),
			expert.S("server_origin_name", expert.Var("sonames")),
			expert.S("time", expert.Var("time")),
			expert.S("frequency", expert.Var("freq")),
			expert.S("pid", expert.Var("pid")),
		)),
		test: (*Secpert).writeTest, fire: (*Secpert).writeFire,
		enabled: func(c Config) bool { return !c.DisableInfoFlow },
	},
	{
		name: "check_memory_abuse", salience: 8,
		lhs: compile("check_memory_abuse", expert.P("system_call_access",
			expert.S("system_call_name", expert.Lit("SYS_brk")),
			expert.S("mem_bytes", expert.Var("mem")),
			expert.S("time", expert.Var("time")),
			expert.S("pid", expert.Var("pid")),
		)),
		test: (*Secpert).memoryTest, fire: (*Secpert).memoryFire,
		enabled: func(c Config) bool { return c.EnableMemoryAbuse },
	},
}

// SharedPolicy returns the read-only data every Secpert in the process
// shares: the Appendix A templates and the policy rules' compiled
// patterns, in definition order.
func SharedPolicy() ([]*expert.Template, []*expert.LHS) {
	lhs := make([]*expert.LHS, len(policy))
	for i := range policy {
		lhs[i] = policy[i].lhs
	}
	return append([]*expert.Template(nil), templates...), lhs
}

// compile compiles a policy rule's patterns against the shared
// templates.
func compile(rule string, patterns ...expert.Pattern) *expert.LHS {
	lhs, err := expert.Compile(rule, templates, patterns...)
	if err != nil {
		panic(err)
	}
	return lhs
}

// defineRules installs this run's policy rules on the engine.
func (s *Secpert) defineRules() {
	for i := range policy {
		pr := &policy[i]
		if pr.enabled != nil && !pr.enabled(s.cfg) {
			continue
		}
		s.tests[i][0] = func(b *expert.Bindings) bool { return pr.test(s, b) }
		s.rules[i] = expert.Rule{
			Name: pr.name, Doc: pr.doc, Salience: pr.salience, LHS: pr.lhs,
			Tests:  s.tests[i][:],
			Action: func(ctx *expert.Context, b *expert.Bindings) { pr.fire(s, ctx, b) },
		}
		if err := s.eng.DefRule(&s.rules[i]); err != nil {
			panic(err)
		}
	}
}

// bindAccess binds the slots every access rule needs.
func bindAccess(extra ...expert.SlotMatch) []expert.SlotMatch {
	base := []expert.SlotMatch{
		expert.S("resource_name", expert.Var("name")),
		expert.S("resource_origin_type", expert.Var("otypes")),
		expert.S("resource_origin_name", expert.Var("onames")),
		expert.S("time", expert.Var("time")),
		expert.S("frequency", expert.Var("freq")),
		expert.S("pid", expert.Var("pid")),
	}
	return append(base, extra...)
}

// execveTest and execveFire reproduce the paper's check_execve
// (Appendix A.2): warn when a new process's name is hardcoded (Low;
// Medium when the code is rarely executed) or originated from a
// socket (High).
func (s *Secpert) execveTest(b *expert.Bindings) bool {
	srcs := listsToSources(b.List("otypes"), b.List("onames"))
	if len(s.filterBinary(srcs)) > 0 || len(s.filterSocket(srcs)) > 0 {
		return true
	}
	// Cross-session escalation (§10 item 6): executing a file a
	// previous session created is suspicious regardless of the name's
	// provenance.
	if h := s.cfg.History; h != nil {
		if _, written := h.WrittenIn(b.Str("name")); written {
			return true
		}
	}
	return false
}

func (s *Secpert) execveFire(ctx *expert.Context, b *expert.Bindings) {
	srcs := listsToSources(b.List("otypes"), b.List("onames"))
	bins := s.filterBinary(srcs)
	socks := s.filterSocket(srcs)
	name := b.Str("name")
	rare := s.isRare(b.Int("freq"), b.Int("time"))

	sev := Low
	if rare {
		sev = Medium
	}
	if len(socks) > 0 {
		sev = High
	}
	var msg strings.Builder
	fmt.Fprintf(&msg, "Found SYS_execve call (%q)", name)
	switch {
	case len(socks) > 0:
		fmt.Fprintf(&msg, "\n    (%q) originated from %s", name, quoteList(socks))
	case len(bins) > 0:
		fmt.Fprintf(&msg, "\n    (%q) originated from %s", name, quoteList(bins))
	}
	if h := s.cfg.History; h != nil {
		if session, written := h.WrittenIn(name); written {
			sev = High
			fmt.Fprintf(&msg, "\n    %s", historyLine(name, session))
		}
	}
	if rare {
		msg.WriteString("\n    This code is rarely executed...")
	}
	s.warn(ctx, ExecutionFlow, sev, int(b.Int("pid")), uint64(b.Int("time")), msg.String())
}

// memoryTest and memoryFire are the §10-item-4 extension: a process
// tree whose heap has grown past the configured thresholds is
// draining OS resources (the Trojan.Vundo behaviour of §2.1).
func (s *Secpert) memoryTest(b *expert.Bindings) bool { return b.Int("mem") >= s.cfg.MemHighBytes }

func (s *Secpert) memoryFire(ctx *expert.Context, b *expert.Bindings) {
	mem := b.Int("mem")
	sev := Low
	key := onceMemHigh
	detail := "The process is allocating a large amount of memory"
	if mem >= s.cfg.MemVeryHighBytes {
		sev = Medium
		key = onceMemVeryHigh
		detail = "The process is allocating a very large amount of memory"
	}
	if s.once[key] {
		return
	}
	s.once[key] = true
	msg := fmt.Sprintf("Found excessive memory allocation (%d bytes)\n    %s", mem, detail)
	s.warn(ctx, ResourceAbuse, sev, int(b.Int("pid")), uint64(b.Int("time")), msg)
}

func isCloneCall(v expert.Value) bool {
	return v == "SYS_clone" || v == "SYS_fork"
}

// cloneCountTest and cloneCountFire are §4.2 rule 1: the number of new
// processes created is high — Low.
func (s *Secpert) cloneCountTest(b *expert.Bindings) bool {
	return b.Int("count") >= s.cfg.CloneCountHigh
}

func (s *Secpert) cloneCountFire(ctx *expert.Context, b *expert.Bindings) {
	if s.once[onceCloneCount] {
		return
	}
	s.once[onceCloneCount] = true
	msg := "Found several SYS_clone calls\n    This call was frequent"
	s.warn(ctx, ResourceAbuse, Low, int(b.Int("pid")), uint64(b.Int("time")), msg)
}

// cloneRateTest and cloneRateFire are §4.2 rule 2: the rate of new
// process creation is high — Medium.
func (s *Secpert) cloneRateTest(b *expert.Bindings) bool {
	return b.Int("rate") >= s.cfg.CloneRateHigh
}

func (s *Secpert) cloneRateFire(ctx *expert.Context, b *expert.Bindings) {
	if s.once[onceCloneRate] {
		return
	}
	s.once[onceCloneRate] = true
	msg := "Found several SYS_clone calls\n    This call was very frequent in a short period of time"
	s.warn(ctx, ResourceAbuse, Medium, int(b.Int("pid")), uint64(b.Int("time")), msg)
}

// finding is one information-flow conclusion about a write.
type finding struct {
	sev   Severity
	lines []string
}

// writeTest and writeFire implement the §4.3 information-flow matrix
// over write events. One write may yield several findings (the
// paper's pwsafe run emits one warning per data source), each
// reported as its own warning. Writes to the console are the program
// talking to its user, not an information-flow target.
func (s *Secpert) writeTest(b *expert.Bindings) bool {
	n := b.Str("name")
	return n != "stdout" && n != "stderr"
}

func (s *Secpert) writeFire(ctx *expert.Context, b *expert.Bindings) {
	for _, f := range s.analyzeWrite(b) {
		msg := strings.Join(f.lines, "\n    ")
		s.warn(ctx, InformationFlow, f.sev, int(b.Int("pid")), uint64(b.Int("time")), msg)
	}
}

// analyzeWrite derives findings from one write event's bindings.
func (s *Secpert) analyzeWrite(b *expert.Bindings) []finding {
	data := listsToSources(b.List("dtypes"), b.List("dnames"))
	target := b.Str("name")
	targetIsSock := b.Str("rtype") == taint.Socket.String()
	tClass, tSupport := s.classifyOrigin(listsToSources(b.List("otypes"), b.List("onames")))
	isServer := b.Str("server") == "yes"
	if isServer {
		// A connection accepted from the network is remote-directed:
		// writing to it reaches whoever connected (paper §8.3.6).
		tClass = originRemote
	}

	targetDisp := target
	if targetIsSock {
		targetDisp += " (AF_INET)"
	}

	var out []finding
	add := func(sev Severity, lines []string) {
		if isServer {
			sLines := s.serverContext(b)
			lines = append(lines, sLines...)
		}
		if s.isRare(b.Int("freq"), b.Int("time")) {
			lines = append(lines, "This code is rarely executed...")
		}
		out = append(out, finding{sev: sev, lines: lines})
	}

	targetLine := func() string {
		switch {
		case tClass == originRemote && isServer:
			return "" // the server-context lines explain the endpoint
		case tClass == originRemote:
			return fmt.Sprintf("the name of the target %s originated from a socket %s", target, quoteList(tSupport))
		case tClass == originHardcoded && targetIsSock:
			return fmt.Sprintf("target (client) socket-name was hardcoded in: %s", quoteList(tSupport))
		case tClass == originHardcoded:
			return fmt.Sprintf("target file-name was hardcoded in: %s", quoteList(tSupport))
		case tClass == originUser && targetIsSock:
			return "target socket-name was given by the user"
		case tClass == originUser:
			return "target file-name was given by the user"
		}
		return ""
	}

	// pairSeverity is the §4.3 matrix for flows between two named
	// resources: both hardcoded (or any remote) → High; exactly one
	// given by the user → Low; both from the user → benign.
	pairSeverity := func(src originClass) (Severity, bool) {
		if src == originRemote || tClass == originRemote {
			return High, true
		}
		switch {
		case src == originHardcoded && tClass == originHardcoded:
			return High, true
		case src == originHardcoded && tClass == originUser:
			return Low, true
		case src == originUser && tClass == originHardcoded:
			return Low, true
		}
		return Low, false
	}

	appendNonEmpty := func(lines []string, extra ...string) []string {
		for _, e := range extra {
			if e != "" {
				lines = append(lines, e)
			}
		}
		return lines
	}

	// 1. Data read from files (paper §4.3 rule 1 and its mirrors).
	for _, name := range namesOfType(data, taint.File) {
		if name == "stdin" {
			continue
		}
		wide := name == taint.WideName
		srcClass, srcSupport := s.classifyOrigin(s.origins[name])
		if wide && srcClass == originUnknown {
			// The monitor summarized this tag under its width
			// budget, so the file's identity — and with it the
			// name-origin record — is gone. Soundness requires the
			// worst-case assumption: classify as remote so the
			// degraded run over-warns rather than losing the flow.
			srcClass = originRemote
			srcSupport = nil
		}
		sev, warnIt := pairSeverity(srcClass)
		if !warnIt {
			continue
		}
		lines := []string{fmt.Sprintf("Found Write call Data Flowing From: %s To: %s", name, targetDisp)}
		switch {
		case wide:
			lines = append(lines, "source file identity was summarized away (taint width budget); assuming the worst case")
		case srcClass == originHardcoded:
			lines = append(lines, fmt.Sprintf("source filename was hardcoded in: %s", quoteList(srcSupport)))
		case srcClass == originUser:
			lines = append(lines, "source filename was given by the user")
		case srcClass == originRemote:
			lines = append(lines, fmt.Sprintf("source filename originated from a socket %s", quoteList(srcSupport)))
		}
		lines = appendNonEmpty(lines, targetLine())
		add(sev, lines)
	}

	// 2. Data received from sockets (downloaded content; e.g.
	// Trojan.Lodeight downloads a remote file and drops it, §2.1).
	for _, name := range namesOfType(data, taint.Socket) {
		srcClass, srcSupport := s.classifyOrigin(s.origins[name])
		if srcClass == originUnknown {
			// A connection we cannot attribute to the user is
			// remote-initiated.
			srcClass = originRemote
			srcSupport = []string{name}
		}
		sev, warnIt := pairSeverity(srcClass)
		if !warnIt {
			continue
		}
		lines := []string{fmt.Sprintf("Found Write call Data Flowing From: %s (AF_INET) To: %s", name, targetDisp)}
		switch srcClass {
		case originHardcoded:
			lines = append(lines, fmt.Sprintf("source socket-address was hardcoded in: %s", quoteList(srcSupport)))
		case originUser:
			lines = append(lines, "source socket-address was given by the user")
		case originRemote:
			lines = append(lines, "the data was received from a remote connection")
		}
		lines = appendNonEmpty(lines, targetLine())
		// Content analysis (§10 item 5): a downloaded payload that
		// looks executable, dropped to a file, escalates.
		if s.cfg.EnableContentAnalysis && !targetIsSock {
			if kind, executable := classifyContent(b.Str("head")); executable {
				sev = High
				lines = append(lines, fmt.Sprintf(
					"the downloaded content appears to be executable (%s)", kind))
			}
		}
		add(sev, lines)
	}

	// 3. Hardcoded (binary) data (§8.3: grabem, vixie, superforker,
	// the Tic-Tac-Toe trojan; pwsafe's Low socket warnings).
	if bins := s.filterBinary(data); len(bins) > 0 && tClass != originUser && tClass != originUnknown {
		if targetIsSock {
			sev := Low
			if tClass == originRemote {
				sev = High
			}
			for _, bin := range bins {
				lines := []string{fmt.Sprintf("Found Write call Data Flowing From: %s To: %s", bin, targetDisp)}
				lines = appendNonEmpty(lines, targetLine())
				add(sev, lines)
			}
		} else {
			lines := []string{
				fmt.Sprintf("Found Write call to %s", target),
				fmt.Sprintf("The Data written to this file is originated from the BINARY:%s", quoteList(bins)),
			}
			if tClass == originHardcoded {
				lines = append(lines, fmt.Sprintf(
					"Moreover, it seems that the name of the file: %s originated from a BINARY: %s",
					target, quoteList(tSupport)))
			} else {
				lines = appendNonEmpty(lines, targetLine())
			}
			add(High, lines)
		}
	}

	// 4. Hardware-sourced data (§4.3 rule 2: HARDWARE → hardcoded
	// file is High; exfiltrating it to a hardcoded or remote socket
	// is at least as bad).
	if hasType(data, taint.Hardware) && (tClass == originHardcoded || tClass == originRemote) {
		lines := []string{
			fmt.Sprintf("Found Write call to %s", targetDisp),
			"The Data written originated from the HARDWARE",
		}
		lines = appendNonEmpty(lines, targetLine())
		add(High, lines)
	}

	// 5. User input captured to a hardcoded destination (the
	// PWSteal.Tarno.Q pattern, §2.1: keystrokes to a predefined file
	// or address).
	if hasType(data, taint.UserInput) && tClass == originHardcoded {
		sev := Medium
		if targetIsSock {
			sev = High
		}
		lines := []string{
			fmt.Sprintf("Found Write call to %s", targetDisp),
			"The Data written originated from USER INPUT",
		}
		lines = appendNonEmpty(lines, targetLine())
		add(sev, lines)
	}

	return out
}

// classifyContent recognizes executable payload signatures for the
// content-analysis extension: ELF, shebang scripts, and PE ("the
// detection itself does not need to be based on the suffix, analyzing
// the content itself may be more accurate", §10 item 5).
func classifyContent(head string) (kind string, executable bool) {
	switch {
	case strings.HasPrefix(head, "\x7fELF"):
		return "ELF binary", true
	case strings.HasPrefix(head, "#!"):
		return "script with interpreter line", true
	case strings.HasPrefix(head, "MZ"):
		return "PE binary", true
	}
	return "", false
}

// serverContext renders the pma-style server lines (§8.3.6).
func (s *Secpert) serverContext(b *expert.Bindings) []string {
	saddr := b.Str("saddr")
	sClass, sSupport := s.classifyOrigin(listsToSources(b.List("sotypes"), b.List("sonames")))
	lines := []string{fmt.Sprintf(
		"This program has opened a socket for remote connections. i.e. it is a server with the address: %s (AF_INET)", saddr)}
	switch sClass {
	case originHardcoded:
		lines = append(lines, fmt.Sprintf("the server address was hardcoded in: %s", quoteList(sSupport)))
	case originUser:
		lines = append(lines, "the server address was given by the user")
	}
	return lines
}
