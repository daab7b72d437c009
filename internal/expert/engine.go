package expert

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Rule is a defrule: patterns and tests on the left-hand side, an
// action on the right.
type Rule struct {
	Name     string
	Doc      string
	Salience int
	Patterns []Pattern
	// Tests run after all patterns matched, over the bindings
	// (CLIPS test conditional elements).
	Tests []func(b *Bindings) bool
	// Action fires with the matched bindings.
	Action func(ctx *Context, b *Bindings)
	// LHS, when set, holds Patterns already compiled (Compile), so
	// rules built per engine can share one compiled form; Patterns
	// must then be empty.
	LHS *LHS
}

// Context is handed to rule actions: it can assert and retract facts
// and print to the engine's output.
type Context struct {
	E    *Engine
	Rule *Rule
	IDs  []int // the matched fact ids, pattern order
}

// Assert adds a fact from within an action.
func (c *Context) Assert(template string, slots map[string]Value) (*Fact, error) {
	return c.E.Assert(template, slots)
}

// Retract removes a fact from within an action.
func (c *Context) Retract(id int) { c.E.Retract(id) }

// Printf writes to the engine's output stream; nothing is rendered
// when that stream is io.Discard.
func (c *Context) Printf(format string, args ...any) {
	if c.E.Out == io.Discard {
		return
	}
	fmt.Fprintf(c.E.Out, format, args...)
}

// FireRecord is one entry of the fire trace.
type FireRecord struct {
	Seq     int
	Rule    string
	FactIDs []int
}

// String renders the record CLIPS-style: "FIRE 1 check_execve: f-43,f-42,f-5".
func (fr FireRecord) String() string {
	refs := make([]string, len(fr.FactIDs))
	for i, id := range fr.FactIDs {
		refs[i] = fmt.Sprintf("f-%d", id)
	}
	return fmt.Sprintf("FIRE %d %s: %s", fr.Seq, fr.Rule, strings.Join(refs, ","))
}

type activation struct {
	rule int // index into Engine.rules
	ids  []int
	b    Bindings
	seq  int    // recency: assertion sequence that created it
	key  actKey // computed once, for refraction and agenda dedup
	// Small rules keep their fact ids and bindings in the activation.
	idBuf  [2]int
	valBuf [4]Value
	ctx    Context
}

// actKey identifies an activation: its rule's index and fact ids. The
// first two ids are held inline, so the common one- and two-pattern
// rules key without allocating; further ids are uvarint-encoded in
// more.
type actKey struct {
	rule     int
	id0, id1 int
	more     string
}

// keyOf builds the key of rule ri over ids; buf is scratch for more.
func keyOf(ri int, ids []int, buf []byte) (actKey, []byte) {
	k := actKey{rule: ri}
	if len(ids) > 0 {
		k.id0 = ids[0]
	}
	if len(ids) > 1 {
		k.id1 = ids[1]
	}
	if len(ids) > 2 {
		buf = buf[:0]
		for _, id := range ids[2:] {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
		k.more = string(buf)
	}
	return k, buf
}

// engRule is a registered rule with its compiled left-hand side.
type engRule struct {
	*Rule
	lhs *LHS
}

// Engine is the inference engine: working memory + rules + agenda.
type Engine struct {
	// Out receives rule printout (warnings); defaults to io.Discard.
	Out io.Writer
	// Echo, when non-nil, receives a CLIPS-transcript line for every
	// assertion ("CLIPS> (assert (template ...))"), reproducing the
	// paper's Appendix A.1 interaction log.
	Echo io.Writer
	// OnFire, when non-nil, observes every rule firing, invoked after
	// the record joins the fire trace and before the rule action runs.
	OnFire func(FireRecord)

	templates []*Template
	rules     []engRule
	facts     []*Fact // live facts in assertion (and so id) order
	nextFact  int
	seq       int

	agenda []*activation
	fired  map[actKey]struct{} // refraction memory

	trace   []FireRecord
	fireSeq int

	// The join's scratch: the bindings stack, the fact ids of the
	// tuple being built, key bytes, and the view rule tests get of the
	// stack.
	stack []Value
	ids   []int
	key   []byte
	tb    Bindings

	// slab holds preallocated facts, so an assert does not allocate
	// its fact on its own.
	slab []Fact
}

// factSlab is how many facts one slab allocation holds.
const factSlab = 8

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{Out: io.Discard}
}

// DefTemplate registers a template, compiling its slot index on first
// registration.
func (e *Engine) DefTemplate(t *Template) error {
	if e.template(t.Name) != nil {
		return fmt.Errorf("expert: duplicate template %q", t.Name)
	}
	if err := t.compile(); err != nil {
		return err
	}
	e.templates = append(e.templates, t)
	return nil
}

func (e *Engine) template(name string) *Template {
	return findTemplate(e.templates, name)
}

// DefRule registers a rule, compiling its patterns against the
// engine's templates unless r.LHS already holds them compiled.
// Existing facts are immediately eligible.
func (e *Engine) DefRule(r *Rule) error {
	for _, other := range e.rules {
		if other.Name == r.Name {
			return fmt.Errorf("expert: duplicate rule %q", r.Name)
		}
	}
	lhs := r.LHS
	if lhs == nil {
		var err error
		if lhs, err = Compile(r.Name, e.templates, r.Patterns...); err != nil {
			return err
		}
	} else {
		if len(r.Patterns) > 0 {
			return fmt.Errorf("expert: rule %q sets both Patterns and LHS", r.Name)
		}
		for i := range lhs.pats {
			if t := lhs.pats[i].tmpl; e.template(t.Name) != t {
				return fmt.Errorf("expert: rule %q was compiled against a template %q this engine does not hold", r.Name, t.Name)
			}
		}
	}
	if e.rules == nil {
		e.rules = make([]engRule, 0, 8) // rule bases are mostly small
	}
	e.rules = append(e.rules, engRule{Rule: r, lhs: lhs})
	// Activate against current working memory.
	e.join(len(e.rules)-1, nil)
	return nil
}

// Assert adds a fact, validating slots against the template and
// applying defaults, then computes new activations.
func (e *Engine) Assert(template string, slots map[string]Value) (*Fact, error) {
	t := e.template(template)
	if t == nil {
		return nil, fmt.Errorf("expert: assert of undefined template %q", template)
	}
	for name := range slots {
		if _, ok := t.slot(name); !ok {
			return nil, fmt.Errorf("expert: template %q has no slot %q", template, name)
		}
	}
	vals := make([]Value, len(t.Slots))
	for i, sd := range t.Slots {
		v, present := slots[sd.Name]
		if !present {
			v = t.defaults[i]
		}
		vals[i] = v
	}
	return e.AssertValues(t, vals)
}

// AssertValues adds a fact of a registered template whose values are
// given in slot order, then computes new activations. The fact adopts
// vals as its storage: the caller must not modify it afterwards.
func (e *Engine) AssertValues(t *Template, vals []Value) (*Fact, error) {
	if e.template(t.Name) != t {
		return nil, fmt.Errorf("expert: assert of unregistered template %q", t.Name)
	}
	if len(vals) != len(t.Slots) {
		return nil, fmt.Errorf("expert: template %q has %d slots, got %d values", t.Name, len(t.Slots), len(vals))
	}
	for i, sd := range t.Slots {
		v := Norm(vals[i])
		if sd.Multi {
			if _, isList := v.([]Value); !isList {
				return nil, fmt.Errorf("expert: slot %s.%s is a multislot", t.Name, sd.Name)
			}
		}
		vals[i] = v
	}
	e.nextFact++
	if len(e.slab) == 0 {
		e.slab = make([]Fact, factSlab)
	}
	f := &e.slab[0]
	e.slab = e.slab[1:]
	*f = Fact{ID: e.nextFact, Template: t.Name, tmpl: t, vals: vals}
	if e.Echo != nil {
		fmt.Fprintf(e.Echo, "CLIPS> (assert %s)\n", f)
	}
	e.facts = append(e.facts, f)
	e.seq++
	for i := range e.rules {
		if e.rules[i].lhs.uses(t) {
			e.join(i, f)
		}
	}
	return f, nil
}

// Retract removes a fact and any agenda activations that used it.
func (e *Engine) Retract(id int) {
	i, ok := e.find(id)
	if !ok {
		return
	}
	e.facts = slices.Delete(e.facts, i, i+1)
	e.agenda = slices.DeleteFunc(e.agenda, func(a *activation) bool {
		return slices.Contains(a.ids, id)
	})
	// Retraction may re-enable negative conditional elements;
	// recompute the rules that use them (refraction and the agenda
	// dedup keep this idempotent).
	for i := range e.rules {
		if e.rules[i].lhs.negated {
			e.join(i, nil)
		}
	}
}

// find returns the position of a live fact.
func (e *Engine) find(id int) (int, bool) {
	i, ok := slices.BinarySearchFunc(e.facts, id, func(f *Fact, id int) int { return f.ID - id })
	return i, ok
}

// Fact returns the fact with the given id.
func (e *Engine) Fact(id int) (*Fact, bool) {
	if i, ok := e.find(id); ok {
		return e.facts[i], true
	}
	return nil, false
}

// Facts returns all facts in assertion order.
func (e *Engine) Facts() []*Fact {
	return append([]*Fact(nil), e.facts...)
}

// anyMatch reports whether any current fact of t passes ops (used for
// negative conditional elements; what ops bind on st is scratch).
func (e *Engine) anyMatch(t *Template, ops []op, st []Value) bool {
	for _, f := range e.facts {
		if f.tmpl == t && matchOps(ops, f, st) {
			return true
		}
	}
	return false
}

// join enumerates complete matches of rule ri. With a new fact, only
// tuples containing it are produced (incremental activation on
// assert); nil enumerates everything (new rule, or a recomputation
// after retract re-enabled negative elements). The patterns bind into
// one stack, so a candidate that fails costs nothing to undo.
// Negated patterns consume no fact: they hold when nothing matches,
// and are re-verified at fire time (asserts between activation and
// firing can defeat them).
func (e *Engine) join(ri int, newFact *Fact) {
	lhs := e.rules[ri].lhs
	if len(lhs.pats) == 0 {
		return
	}
	if cap(e.stack) < len(lhs.vars) {
		e.stack = make([]Value, len(lhs.vars))
	}
	e.ids = e.ids[:0]
	e.extend(ri, lhs, 0, newFact, newFact == nil)
}

// extend matches pattern i onward; used reports whether the tuple so
// far holds the new fact.
func (e *Engine) extend(ri int, lhs *LHS, i int, newFact *Fact, used bool) {
	st := e.stack[:len(lhs.vars)]
	if i == len(lhs.pats) {
		if used {
			e.complete(ri, lhs, st)
		}
		return
	}
	p := &lhs.pats[i]
	if p.negated {
		if !e.anyMatch(p.tmpl, p.ops, st) {
			e.extend(ri, lhs, i+1, newFact, used)
		}
		return
	}
	try := func(f *Fact) {
		if f.tmpl != p.tmpl || slices.Contains(e.ids, f.ID) || !matchOps(p.ops, f, st) {
			return
		}
		if p.binder >= 0 {
			st[p.binder] = f
		}
		e.ids = append(e.ids, f.ID)
		e.extend(ri, lhs, i+1, newFact, used || f == newFact)
		e.ids = e.ids[:len(e.ids)-1]
	}
	if p.lastPos && !used {
		// Only the new fact can complete the tuple.
		try(newFact)
		return
	}
	for _, f := range e.facts {
		try(f)
	}
}

// complete turns a full match into an activation unless refraction or
// the agenda already holds it, or a rule test rejects it.
func (e *Engine) complete(ri int, lhs *LHS, st []Value) {
	var key actKey
	key, e.key = keyOf(ri, e.ids, e.key)
	if _, done := e.fired[key]; done {
		return
	}
	for _, a := range e.agenda {
		if a.key == key {
			return
		}
	}
	vis := st[:lhs.nvis]
	e.tb = Bindings{names: lhs.vars[:lhs.nvis], vals: vis}
	for _, test := range e.rules[ri].Tests {
		if !test(&e.tb) {
			return
		}
	}
	a := &activation{rule: ri, seq: e.seq, key: key}
	a.ids = append(a.idBuf[:0], e.ids...)
	a.b = Bindings{names: e.tb.names, vals: append(a.valBuf[:0:len(a.valBuf)], vis...)}
	e.agenda = append(e.agenda, a)
}

// defeated re-verifies a's negative conditional elements: a fact
// asserted after the activation was created may defeat them.
func (e *Engine) defeated(a *activation) bool {
	lhs := e.rules[a.rule].lhs
	if !lhs.negated {
		return false
	}
	if cap(e.stack) < len(lhs.vars) {
		e.stack = make([]Value, len(lhs.vars))
	}
	st := e.stack[:len(lhs.vars)]
	copy(st, a.b.vals)
	for i := range lhs.pats {
		if p := &lhs.pats[i]; p.negated && e.anyMatch(p.tmpl, p.fire, st) {
			return true
		}
	}
	return false
}

// Run fires agenda activations until the agenda empties or limit rules
// have fired (limit <= 0 means no limit). Returns the number fired.
func (e *Engine) Run(limit int) int {
	fired := 0
	for len(e.agenda) > 0 {
		if limit > 0 && fired >= limit {
			break
		}
		a := e.pop()
		// The activation may reference retracted facts if the agenda
		// was manipulated; Retract guards, but double-check.
		stale := false
		for _, id := range a.ids {
			if _, ok := e.find(id); !ok {
				stale = true
				break
			}
		}
		if stale || e.defeated(a) {
			continue
		}
		if _, done := e.fired[a.key]; done {
			continue
		}
		if e.fired == nil {
			e.fired = make(map[actKey]struct{})
		}
		e.fired[a.key] = struct{}{}
		r := e.rules[a.rule].Rule
		e.fireSeq++
		rec := FireRecord{Seq: e.fireSeq, Rule: r.Name, FactIDs: a.ids}
		e.trace = append(e.trace, rec)
		if e.OnFire != nil {
			e.OnFire(rec)
		}
		if e.Out != io.Discard {
			fmt.Fprintln(e.Out, rec.String())
		}
		if r.Action != nil {
			a.ctx = Context{E: e, Rule: r, IDs: a.ids}
			r.Action(&a.ctx, &a.b)
		}
		fired++
	}
	return fired
}

// pop removes the highest-priority activation: salience desc, then
// recency desc (depth strategy), then agenda order.
func (e *Engine) pop() *activation {
	best := 0
	for i := 1; i < len(e.agenda); i++ {
		a, b := e.agenda[i], e.agenda[best]
		as, bs := e.rules[a.rule].Salience, e.rules[b.rule].Salience
		if as > bs || (as == bs && a.seq > b.seq) {
			best = i
		}
	}
	a := e.agenda[best]
	e.agenda = append(e.agenda[:best], e.agenda[best+1:]...)
	return a
}

// AgendaLen reports pending activations.
func (e *Engine) AgendaLen() int { return len(e.agenda) }

// Trace returns the fire history.
func (e *Engine) Trace() []FireRecord { return e.trace }

// Reset clears working memory, the agenda, refraction memory and the
// trace, keeping templates and rules.
func (e *Engine) Reset() {
	e.facts = nil
	e.agenda = nil
	e.fired = nil
	e.trace = nil
	e.nextFact = 0
	e.fireSeq = 0
	e.seq = 0
}

// DumpFacts renders working memory for diagnostics.
func (e *Engine) DumpFacts() string {
	var b strings.Builder
	for _, f := range e.facts {
		fmt.Fprintf(&b, "f-%d %s\n", f.ID, f)
	}
	return b.String()
}
