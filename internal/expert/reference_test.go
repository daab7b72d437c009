package expert

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
)

// This file keeps the engine's original nested-loop matcher as a test
// oracle: facts hold a slot map, every candidate clones a map of
// bindings, and refraction keys are rendered strings. FuzzEngineReference
// drives random rule bases and scripts through it and through Engine
// and requires identical observable behaviour.

// refFact is a fact in the reference's representation.
type refFact struct {
	ID       int
	Template string
	Slots    map[string]Value
}

func (f *refFact) String() string {
	names := make([]string, 0, len(f.Slots))
	for n := range f.Slots {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("(" + f.Template)
	for _, n := range names {
		b.WriteString(fmt.Sprintf(" (%s %s)", n, FormatValue(f.Slots[n])))
	}
	b.WriteString(")")
	return b.String()
}

// refMatch is the closure semantics Matcher had before it became data.
func refMatch(m Matcher, v Value, b map[string]Value) bool {
	switch m.kind {
	case mLit:
		return Eq(v, m.val)
	case mPred:
		return m.fn(Norm(v))
	case mVar:
		if prev, ok := b[m.name]; ok {
			return Eq(prev, v)
		}
		b[m.name] = Norm(v)
		return true
	}
	return true
}

func cloneVars(b map[string]Value) map[string]Value {
	out := make(map[string]Value, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// refPatternMatch attempts p against f, extending b on success.
func refPatternMatch(p *Pattern, f *refFact, b map[string]Value) bool {
	if f.Template != p.Template {
		return false
	}
	for _, sm := range p.Matches {
		v, ok := f.Slots[sm.Slot]
		if !ok {
			return false
		}
		if !refMatch(sm.M, v, b) {
			return false
		}
	}
	if p.Binder != "" {
		b[p.Binder] = f
	}
	return true
}

type refRule struct {
	Name     string
	Salience int
	Patterns []Pattern
	Tests    []func(map[string]Value) bool
	Action   func(e *refEngine, ids []int, b map[string]Value)
}

type refActivation struct {
	rule *refRule
	ids  []int
	b    map[string]Value
	seq  int
}

func refKey(rule string, ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return rule + "|" + strings.Join(parts, ",")
}

// refEngine is the reference engine.
type refEngine struct {
	Out, Echo io.Writer

	templates map[string]*Template
	rules     []*refRule
	facts     map[int]*refFact
	order     []int
	nextFact  int
	seq       int
	agenda    []*refActivation
	fired     map[string]bool
	trace     []FireRecord
	fireSeq   int
}

func newRefEngine() *refEngine {
	return &refEngine{
		Out:       io.Discard,
		templates: map[string]*Template{},
		facts:     map[int]*refFact{},
		fired:     map[string]bool{},
	}
}

func (e *refEngine) DefTemplate(t *Template) { e.templates[t.Name] = t }

func (e *refEngine) DefRule(r *refRule) {
	e.rules = append(e.rules, r)
	e.join(r, -1)
}

func (e *refEngine) Assert(template string, slots map[string]Value) (*refFact, error) {
	t, ok := e.templates[template]
	if !ok {
		return nil, fmt.Errorf("expert: assert of undefined template %q", template)
	}
	full := make(map[string]Value, len(t.Slots))
	for name := range slots {
		if _, ok := t.slot(name); !ok {
			return nil, fmt.Errorf("expert: template %q has no slot %q", template, name)
		}
	}
	for _, sd := range t.Slots {
		v, present := slots[sd.Name]
		if !present {
			v = sd.Default
			if v == nil && sd.Multi {
				v = []Value{}
			}
		}
		v = Norm(v)
		if sd.Multi {
			if _, isList := v.([]Value); !isList {
				return nil, fmt.Errorf("expert: slot %s.%s is a multislot", template, sd.Name)
			}
		}
		full[sd.Name] = v
	}
	e.nextFact++
	f := &refFact{ID: e.nextFact, Template: template, Slots: full}
	if e.Echo != nil {
		fmt.Fprintf(e.Echo, "CLIPS> (assert %s)\n", f)
	}
	e.facts[f.ID] = f
	e.order = append(e.order, f.ID)
	e.seq++
	for _, r := range e.rules {
		e.join(r, f.ID)
	}
	return f, nil
}

func (e *refEngine) Retract(id int) {
	if _, ok := e.facts[id]; !ok {
		return
	}
	delete(e.facts, id)
	for i, fid := range e.order {
		if fid == id {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	kept := e.agenda[:0]
	for _, a := range e.agenda {
		uses := false
		for _, fid := range a.ids {
			if fid == id {
				uses = true
				break
			}
		}
		if !uses {
			kept = append(kept, a)
		}
	}
	e.agenda = kept
	for _, r := range e.rules {
		for i := range r.Patterns {
			if r.Patterns[i].Negated {
				e.join(r, -1)
				break
			}
		}
	}
}

func (e *refEngine) anyMatch(p *Pattern, b map[string]Value) bool {
	for _, fid := range e.order {
		f := e.facts[fid]
		if f.Template != p.Template {
			continue
		}
		if refPatternMatch(p, f, cloneVars(b)) {
			return true
		}
	}
	return false
}

func (e *refEngine) join(r *refRule, mustInclude int) {
	n := len(r.Patterns)
	if n == 0 {
		return
	}
	var ids []int
	var rec func(i int, b map[string]Value, used bool)
	rec = func(i int, b map[string]Value, used bool) {
		if i == n {
			if mustInclude >= 0 && !used {
				return
			}
			key := refKey(r.Name, ids)
			if e.fired[key] {
				return
			}
			for _, a := range e.agenda {
				if refKey(a.rule.Name, a.ids) == key {
					return
				}
			}
			fb := cloneVars(b)
			for _, test := range r.Tests {
				if !test(fb) {
					return
				}
			}
			e.agenda = append(e.agenda, &refActivation{
				rule: r, ids: append([]int(nil), ids...), b: fb, seq: e.seq,
			})
			return
		}
		p := &r.Patterns[i]
		if p.Negated {
			if e.anyMatch(p, b) {
				return
			}
			rec(i+1, b, used)
			return
		}
		for _, fid := range e.order {
			f := e.facts[fid]
			if f.Template != p.Template {
				continue
			}
			dup := false
			for _, prev := range ids {
				if prev == fid {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			nb := cloneVars(b)
			if !refPatternMatch(p, f, nb) {
				continue
			}
			ids = append(ids, fid)
			rec(i+1, nb, used || fid == mustInclude)
			ids = ids[:len(ids)-1]
		}
	}
	rec(0, map[string]Value{}, false)
}

func (e *refEngine) Run(limit int) int {
	fired := 0
	for len(e.agenda) > 0 {
		if limit > 0 && fired >= limit {
			break
		}
		best := 0
		for i := 1; i < len(e.agenda); i++ {
			a, b := e.agenda[i], e.agenda[best]
			if a.rule.Salience > b.rule.Salience ||
				(a.rule.Salience == b.rule.Salience && a.seq > b.seq) {
				best = i
			}
		}
		a := e.agenda[best]
		e.agenda = append(e.agenda[:best], e.agenda[best+1:]...)
		stale := false
		for _, id := range a.ids {
			if _, ok := e.facts[id]; !ok {
				stale = true
				break
			}
		}
		if stale {
			continue
		}
		defeated := false
		for i := range a.rule.Patterns {
			p := &a.rule.Patterns[i]
			if p.Negated && e.anyMatch(p, a.b) {
				defeated = true
				break
			}
		}
		if defeated {
			continue
		}
		key := refKey(a.rule.Name, a.ids)
		if e.fired[key] {
			continue
		}
		e.fired[key] = true
		e.fireSeq++
		rec := FireRecord{Seq: e.fireSeq, Rule: a.rule.Name, FactIDs: a.ids}
		e.trace = append(e.trace, rec)
		fmt.Fprintln(e.Out, rec.String())
		if a.rule.Action != nil {
			a.rule.Action(e, a.ids, a.b)
		}
		fired++
	}
	return fired
}

func (e *refEngine) DumpFacts() string {
	var b strings.Builder
	ids := append([]int(nil), e.order...)
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "f-%d %s\n", id, e.facts[id])
	}
	return b.String()
}

// --- the fuzzer ------------------------------------------------------

// fzSrc draws choices from the fuzz input; an exhausted input reads
// as zeros.
type fzSrc struct {
	b []byte
	i int
}

func (s *fzSrc) n(k int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i])
	s.i++
	return v % k
}

func (s *fzSrc) done() bool { return s.i >= len(s.b) }

// fzPreds are the pure predicates random rules may use.
var fzPreds = []func(Value) bool{
	func(v Value) bool { i, ok := v.(int64); return ok && i < 2 },
	func(v Value) bool { return v == "SYS_clone" || v == "SYS_fork" },
	func(v Value) bool { l, ok := v.([]Value); return ok && len(l) > 0 },
}

// fzScalars and fzLists are the value domain of random facts and
// literals: small enough that joins and refraction collide often, and
// holding the literals the seed rule bases test.
var (
	fzScalars = []Value{int64(0), int64(1), int64(2), "x", "SYS_execve", "SYS_clone", "write", "SYS_socketcall:connect"}
	fzLists   = []Value{[]Value{}, []Value{"BINARY"}, []Value{"FILE", "BINARY"}, []Value{"SOCKET"}}
	fzVars    = []string{"x", "y", "z"}
)

// fzTest is a rule test as data: ?a equals ?b, or ?a is not lit.
type fzTest struct {
	a, b string
	lit  Value
}

func (t fzTest) eval(get func(string) (Value, bool)) bool {
	av, _ := get(t.a)
	if t.b != "" {
		bv, _ := get(t.b)
		return Eq(av, bv)
	}
	return !Eq(av, t.lit)
}

// fzStep is one action step as data.
type fzStep struct {
	kind  int // 0 print the bindings, 1 assert, 2 retract the binder
	tmpl  string
	slots map[string]string // slot -> variable (or "" for a literal)
	lits  map[string]Value
	bind  string
}

type fzRule struct {
	name     string
	salience int
	patterns []Pattern
	tests    []fzTest
	steps    []fzStep
}

// fzEnv is what an action step needs from either engine.
type fzEnv interface {
	get(name string) (Value, bool)
	factID(name string) (int, bool)
	assert(tmpl string, slots map[string]Value)
	retract(id int)
	printf(format string, args ...any)
	nfacts() int
}

// fzMaxFacts bounds working memory so rules that assert from their
// actions cannot blow a run up.
const fzMaxFacts = 12

func (r *fzRule) act(env fzEnv, names []string, log *strings.Builder) {
	sort.Strings(names)
	fmt.Fprintf(log, "%s:", r.name)
	for _, n := range names {
		v, _ := env.get(n)
		if id, ok := env.factID(n); ok {
			fmt.Fprintf(log, " %s=f-%d", n, id)
		} else {
			fmt.Fprintf(log, " %s=%s", n, FormatValue(v))
		}
	}
	log.WriteByte('\n')
	for _, st := range r.steps {
		switch st.kind {
		case 0:
			for _, n := range names {
				if _, isFact := env.factID(n); !isFact {
					v, _ := env.get(n)
					env.printf("%s=%s ", n, FormatValue(v))
				}
			}
			env.printf("\n")
		case 1:
			if env.nfacts() >= fzMaxFacts {
				continue
			}
			slots := map[string]Value{}
			for s, v := range st.slots {
				if val, ok := env.get(v); ok {
					if _, isFact := env.factID(v); !isFact {
						slots[s] = val
					}
				}
			}
			for s, v := range st.lits {
				slots[s] = v
			}
			env.assert(st.tmpl, slots)
		case 2:
			if id, ok := env.factID(st.bind); ok {
				env.retract(id)
			}
		}
	}
}

type realEnv struct {
	ctx *Context
	b   *Bindings
}

func (r realEnv) get(n string) (Value, bool) { return r.b.Get(n) }
func (r realEnv) factID(n string) (int, bool) {
	if f := r.b.Fact(n); f != nil {
		return f.ID, true
	}
	return 0, false
}
func (r realEnv) assert(t string, s map[string]Value) { r.ctx.E.Assert(t, s) }
func (r realEnv) retract(id int)                      { r.ctx.Retract(id) }
func (r realEnv) printf(f string, a ...any)           { r.ctx.Printf(f, a...) }
func (r realEnv) nfacts() int                         { return len(r.ctx.E.facts) }

type refEnv struct {
	e *refEngine
	b map[string]Value
}

func (r refEnv) get(n string) (Value, bool) { v, ok := r.b[n]; return v, ok }
func (r refEnv) factID(n string) (int, bool) {
	if f, ok := r.b[n].(*refFact); ok {
		return f.ID, true
	}
	return 0, false
}
func (r refEnv) assert(t string, s map[string]Value) { r.e.Assert(t, s) }
func (r refEnv) retract(id int)                      { r.e.Retract(id) }
func (r refEnv) printf(f string, a ...any)           { fmt.Fprintf(r.e.Out, f, a...) }
func (r refEnv) nfacts() int                         { return len(r.e.facts) }

// pair is one engine under test and the reference, fed identically.
type pair struct {
	e        *Engine
	ref      *refEngine
	out, ro  bytes.Buffer
	echo, re bytes.Buffer
	log, rl  strings.Builder
	trace    []FireRecord // the engine's firings, via OnFire
}

func newPair(templates []*Template) *pair {
	p := &pair{e: NewEngine(), ref: newRefEngine()}
	p.e.Out, p.e.Echo = &p.out, &p.echo
	p.e.OnFire = func(rec FireRecord) { p.trace = append(p.trace, rec) }
	p.ref.Out, p.ref.Echo = &p.ro, &p.re
	for _, t := range templates {
		if err := p.e.DefTemplate(t); err != nil {
			panic(err)
		}
		p.ref.DefTemplate(t)
	}
	return p
}

func (p *pair) defRule(r *fzRule) error {
	real := &Rule{Name: r.name, Salience: r.salience, Patterns: r.patterns}
	ref := &refRule{Name: r.name, Salience: r.salience, Patterns: r.patterns}
	for _, t := range r.tests {
		real.Tests = append(real.Tests, func(b *Bindings) bool { return t.eval(b.Get) })
		ref.Tests = append(ref.Tests, func(b map[string]Value) bool {
			return t.eval(func(n string) (Value, bool) { v, ok := b[n]; return v, ok })
		})
	}
	real.Action = func(ctx *Context, b *Bindings) {
		r.act(realEnv{ctx, b}, append([]string(nil), b.names...), &p.log)
	}
	ref.Action = func(e *refEngine, _ []int, b map[string]Value) {
		names := make([]string, 0, len(b))
		for n := range b {
			names = append(names, n)
		}
		r.act(refEnv{e, b}, names, &p.rl)
	}
	if err := p.e.DefRule(real); err != nil {
		return err
	}
	p.ref.DefRule(ref)
	return nil
}

// check compares everything observable of the two engines.
func (p *pair) check(t *testing.T, step string) {
	t.Helper()
	if a, b := p.out.String(), p.ro.String(); a != b {
		t.Fatalf("%s: Out differs\nengine:\n%s\nreference:\n%s", step, a, b)
	}
	if a, b := p.echo.String(), p.re.String(); a != b {
		t.Fatalf("%s: Echo differs\nengine:\n%s\nreference:\n%s", step, a, b)
	}
	if a, b := p.log.String(), p.rl.String(); a != b {
		t.Fatalf("%s: action bindings differ\nengine:\n%s\nreference:\n%s", step, a, b)
	}
	if a, b := fmt.Sprint(p.trace), fmt.Sprint(p.ref.trace); a != b {
		t.Fatalf("%s: fire traces differ\nengine:    %s\nreference: %s", step, a, b)
	}
	if a, b := p.e.DumpFacts(), p.ref.DumpFacts(); a != b {
		t.Fatalf("%s: working memory differs\nengine:\n%s\nreference:\n%s", step, a, b)
	}
	if a, b := p.e.AgendaLen(), len(p.ref.agenda); a != b {
		t.Fatalf("%s: agenda %d vs reference %d", step, a, b)
	}
}

// fzTemplates is the random bases' working-memory schema.
func fzTemplates() []*Template {
	return []*Template{
		{Name: "a", Slots: []SlotDef{{Name: "p"}, {Name: "q", Default: int64(0)}}},
		{Name: "b", Slots: []SlotDef{{Name: "p"}, {Name: "l", Multi: true}}},
		{Name: "c", Slots: []SlotDef{{Name: "p"}}},
	}
}

func (s *fzSrc) value(sd SlotDef) Value {
	if sd.Multi {
		return fzLists[s.n(len(fzLists))]
	}
	return fzScalars[s.n(len(fzScalars))]
}

// matcher draws one of the matcher kinds production builds: the zero
// Matcher, Lit, Pred and Var.
func (s *fzSrc) matcher(sd SlotDef) Matcher {
	switch s.n(7) {
	case 0:
		return Matcher{}
	case 1, 2:
		return Lit(s.value(sd))
	case 3:
		return Pred(fzPreds[s.n(len(fzPreds))])
	default:
		return Var(fzVars[s.n(3)])
	}
}

func (s *fzSrc) rule(name string, ts []*Template) *fzRule {
	r := &fzRule{name: name, salience: s.n(3) - 1}
	var binders []string
	for i, n := 0, 1+s.n(3); i < n; i++ {
		t := ts[s.n(len(ts))]
		p := Pattern{Template: t.Name, Negated: i > 0 && s.n(4) == 0}
		for j, k := 0, s.n(4); j < k; j++ {
			sd := t.Slots[s.n(len(t.Slots))]
			p.Matches = append(p.Matches, S(sd.Name, s.matcher(sd)))
		}
		if !p.Negated && s.n(3) == 0 {
			p.Binder = fmt.Sprintf("f%d", i)
			binders = append(binders, p.Binder)
		}
		r.patterns = append(r.patterns, p)
	}
	if s.n(3) == 0 {
		tt := fzTest{a: fzVars[s.n(3)]}
		if s.n(2) == 0 {
			tt.b = fzVars[s.n(3)]
		} else {
			tt.lit = fzScalars[s.n(len(fzScalars))]
		}
		r.tests = append(r.tests, tt)
	}
	r.steps = s.steps(ts, binders)
	return r
}

func (s *fzSrc) steps(ts []*Template, binders []string) []fzStep {
	var out []fzStep
	for i, n := 0, s.n(3); i < n; i++ {
		st := fzStep{kind: s.n(3)}
		switch st.kind {
		case 1:
			t := ts[s.n(len(ts))]
			st.tmpl = t.Name
			st.slots, st.lits = map[string]string{}, map[string]Value{}
			for _, sd := range t.Slots {
				switch s.n(3) {
				case 0:
					st.slots[sd.Name] = fzVars[s.n(3)]
				case 1:
					st.lits[sd.Name] = s.value(sd)
				}
			}
		case 2:
			if len(binders) == 0 {
				st.kind = 0
			} else {
				st.bind = binders[s.n(len(binders))]
			}
		}
		out = append(out, st)
	}
	return out
}

// Seed rule bases: the paper's Appendix A rule, the five Secpert
// policy rules (their patterns; tests and actions become data) and
// the custompolicy example's rule.

func appendixTemplates() []*Template {
	return []*Template{
		{Name: "system_call_access", Slots: []SlotDef{
			{Name: "system_call_name"}, {Name: "resource_name"}, {Name: "resource_type"},
			{Name: "resource_origin_name", Multi: true}, {Name: "resource_origin_type", Multi: true},
			{Name: "time", Default: int64(0)}, {Name: "frequency", Default: int64(0)},
			{Name: "address", Default: ""}, {Name: "pid", Default: int64(0)},
			{Name: "clone_count", Default: int64(0)}, {Name: "clone_rate", Default: int64(0)},
			{Name: "mem_bytes", Default: int64(0)},
		}},
		{Name: "system_call_io", Slots: []SlotDef{
			{Name: "system_call_name"}, {Name: "direction"},
			{Name: "data_source_type", Multi: true}, {Name: "data_source_name", Multi: true},
			{Name: "resource_name"}, {Name: "resource_type"},
			{Name: "resource_origin_name", Multi: true}, {Name: "resource_origin_type", Multi: true},
			{Name: "head", Default: ""}, {Name: "server", Default: "no"}, {Name: "server_addr", Default: ""},
			{Name: "server_origin_name", Multi: true}, {Name: "server_origin_type", Multi: true},
			{Name: "time", Default: int64(0)}, {Name: "frequency", Default: int64(0)},
			{Name: "address", Default: ""}, {Name: "pid", Default: int64(0)},
		}},
	}
}

func seedBase(which int) ([]*Template, []*fzRule) {
	print := []fzStep{{kind: 0}}
	access := func(extra ...SlotMatch) []SlotMatch {
		return append([]SlotMatch{
			S("resource_name", Var("name")), S("resource_origin_type", Var("otypes")),
			S("resource_origin_name", Var("onames")), S("time", Var("time")),
			S("frequency", Var("freq")), S("pid", Var("pid")),
		}, extra...)
	}
	isClone := Pred(fzPreds[1])
	switch which {
	case 1: // Appendix A.2 check_execve
		return appendixTemplates(), []*fzRule{{
			name: "check_execve", salience: 10,
			patterns: []Pattern{{Binder: "execve", Template: "system_call_access", Matches: []SlotMatch{
				S("system_call_name", Lit("SYS_execve")), S("resource_name", Var("name")),
				S("resource_origin_type", Var("otype")), S("time", Var("time")),
				S("frequency", Var("freq"))}}},
			steps: []fzStep{{kind: 0}, {kind: 2, bind: "execve"}},
		}}
	case 2: // Secpert's policy
		return appendixTemplates(), []*fzRule{
			{name: "check_execve", salience: 10, steps: print,
				patterns: []Pattern{P("system_call_access", access(S("system_call_name", Lit("SYS_execve")))...)},
				tests:    []fzTest{{a: "otypes", lit: []Value{}}}},
			{name: "check_clone_count", salience: 8, steps: print,
				patterns: []Pattern{P("system_call_access", S("system_call_name", isClone),
					S("clone_count", Var("count")), S("time", Var("time")), S("pid", Var("pid")))},
				tests: []fzTest{{a: "count", lit: int64(0)}}},
			{name: "check_clone_rate", salience: 8, steps: print,
				patterns: []Pattern{P("system_call_access", S("system_call_name", isClone),
					S("clone_rate", Var("rate")), S("time", Var("time")), S("pid", Var("pid")))}},
			{name: "check_write", salience: 5, steps: print,
				patterns: []Pattern{P("system_call_io", S("direction", Lit("write")),
					S("data_source_type", Var("dtypes")), S("data_source_name", Var("dnames")),
					S("resource_name", Var("name")), S("resource_type", Var("rtype")),
					S("resource_origin_type", Var("otypes")), S("resource_origin_name", Var("onames")),
					S("head", Var("head")), S("server", Var("server")), S("server_addr", Var("saddr")),
					S("server_origin_type", Var("sotypes")), S("server_origin_name", Var("sonames")),
					S("time", Var("time")), S("frequency", Var("freq")), S("pid", Var("pid")))},
				tests: []fzTest{{a: "name", lit: "x"}}},
			{name: "check_memory_abuse", salience: 8, steps: print,
				patterns: []Pattern{P("system_call_access", S("system_call_name", Lit("SYS_brk")),
					S("mem_bytes", Var("mem")), S("time", Var("time")), S("pid", Var("pid")))}},
		}
	case 3: // examples/custompolicy
		return appendixTemplates(), []*fzRule{{
			name: "check_beaconing", salience: 7, steps: print,
			patterns: []Pattern{P("system_call_access",
				S("system_call_name", Lit("SYS_socketcall:connect")), S("resource_name", Var("addr")))},
		}}
	}
	return fzTemplates(), nil
}

// FuzzEngineReference runs random rule bases and random
// assert/retract/run/defrule scripts through Engine and the reference
// nested-loop engine. The first input byte picks the base (random, or
// a seed base plus random rules); the fire traces, the bindings each
// action sees, Out and Echo bytes, working memory and agenda length
// must agree after every step.
func FuzzEngineReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{1, 0, 4, 1, 1, 4, 0, 0, 3, 0, 4, 2, 2, 5, 1, 0})
	f.Add([]byte{2, 0, 4, 1, 5, 0, 1, 4, 3, 1, 0, 2, 4, 0, 6, 1, 3, 2})
	f.Add([]byte{3, 0, 4, 7, 3, 0, 4, 7, 4, 3, 1, 0, 3})
	f.Add([]byte{0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 200, 100, 50, 25, 12, 6, 3})
	f.Fuzz(runFz)
}

func runFz(t *testing.T, data []byte) {
	{
		s := &fzSrc{b: data}
		ts, base := seedBase(s.n(4))
		p := newPair(ts)
		var pending []*fzRule
		pending = append(pending, base...)
		for i, n := 0, s.n(4); i < n; i++ {
			pending = append(pending, s.rule(fmt.Sprintf("r%d", i), ts))
		}
		// Some rules exist before any fact, the rest are defined by
		// the script against the working memory it has built.
		for len(pending) > 0 && s.n(2) == 0 {
			if err := p.defRule(pending[0]); err != nil {
				t.Fatal(err)
			}
			pending = pending[1:]
		}
		for step := 0; step < 40 && !s.done(); step++ {
			var what string
			switch s.n(6) {
			case 0, 1:
				if len(p.ref.facts) >= fzMaxFacts {
					continue
				}
				tm := ts[s.n(len(ts))]
				slots := map[string]Value{}
				for _, sd := range tm.Slots {
					if s.n(4) != 0 {
						slots[sd.Name] = s.value(sd)
					}
				}
				_, err := p.e.Assert(tm.Name, slots)
				_, rerr := p.ref.Assert(tm.Name, slots)
				if (err == nil) != (rerr == nil) {
					t.Fatalf("assert errors differ: %v vs %v", err, rerr)
				}
				what = "assert"
			case 2:
				id := 1 + s.n(p.ref.nextFact+1)
				p.e.Retract(id)
				p.ref.Retract(id)
				what = fmt.Sprintf("retract %d", id)
			case 3, 4:
				limit := 1 + s.n(12)
				if a, b := p.e.Run(limit), p.ref.Run(limit); a != b {
					t.Fatalf("run(%d) fired %d, reference %d", limit, a, b)
				}
				what = "run"
			case 5:
				if len(pending) == 0 {
					continue
				}
				if err := p.defRule(pending[0]); err != nil {
					t.Fatal(err)
				}
				what = "defrule " + pending[0].name
				pending = pending[1:]
			}
			p.check(t, what)
		}
		a, b := p.e.Run(50), p.ref.Run(50)
		if a != b {
			t.Fatalf("final run fired %d, reference %d", a, b)
		}
		p.check(t, "final run")
	}
}
