package expert

import "fmt"

// Bindings carries the variables a rule's patterns bound, in the
// rule's variable order.
type Bindings struct {
	names []string
	vals  []Value
}

// Get returns the value bound to name, if any.
func (b *Bindings) Get(name string) (Value, bool) {
	for i, n := range b.names {
		if n == name {
			return b.vals[i], true
		}
	}
	return nil, false
}

// MustGet returns the bound value or nil.
func (b *Bindings) MustGet(name string) Value {
	v, _ := b.Get(name)
	return v
}

// Str returns a bound string value (empty if unbound or non-string).
func (b *Bindings) Str(name string) string {
	s, _ := b.MustGet(name).(string)
	return s
}

// Int returns a bound int64 value (0 if unbound or non-integer).
func (b *Bindings) Int(name string) int64 {
	v, _ := Norm(b.MustGet(name)).(int64)
	return v
}

// List returns a bound multifield value.
func (b *Bindings) List(name string) []Value {
	l, _ := Norm(b.MustGet(name)).([]Value)
	return l
}

// Fact returns the fact bound by a pattern binder (?f <- pattern).
func (b *Bindings) Fact(name string) *Fact {
	f, _ := b.MustGet(name).(*Fact)
	return f
}

type matchKind uint8

const (
	mAny matchKind = iota
	mLit
	mPred
	mVar
)

// Matcher is one slot constraint, held as data: DefRule compiles it
// against the slot's position and the variables bound before it. The
// zero Matcher matches anything.
type Matcher struct {
	kind matchKind
	val  Value            // mLit: the normalized literal
	name string           // mVar: the variable
	fn   func(Value) bool // mPred
}

// Lit matches a literal value.
func Lit(want Value) Matcher { return Matcher{kind: mLit, val: Norm(want)} }

// Var binds the slot value to a variable on first use and requires
// equality on subsequent uses (CLIPS ?x semantics).
func Var(name string) Matcher { return Matcher{kind: mVar, name: name} }

// Pred matches when fn accepts the value.
func Pred(fn func(v Value) bool) Matcher { return Matcher{kind: mPred, fn: fn} }

// SlotMatch pairs a slot name with its matcher.
type SlotMatch struct {
	Slot string
	M    Matcher
}

// S builds a SlotMatch.
func S(slot string, m Matcher) SlotMatch { return SlotMatch{Slot: slot, M: m} }

// Pattern matches one fact of a template. A Negated pattern is a
// CLIPS negative conditional element: it is satisfied when *no* fact
// matches; it binds nothing and contributes no fact to the
// activation.
type Pattern struct {
	Template string
	Binder   string // when set, the matched *Fact binds to this name
	Matches  []SlotMatch
	Negated  bool
}

// P builds a pattern.
func P(template string, matches ...SlotMatch) Pattern {
	return Pattern{Template: template, Matches: matches}
}

type opKind uint8

const (
	opLit  opKind = iota // the slot equals val
	opPred               // fn accepts the slot
	opTest               // the slot equals the bound variable
	opBind               // binds the variable
)

// op is a compiled slot test: one matcher resolved to a slot position
// and, for variables, to a position on the bindings stack.
type op struct {
	kind opKind
	slot int
	v    int
	val  Value
	fn   func(Value) bool
}

// readsVar reports whether the op depends on the bindings stack.
func (o *op) readsVar() bool { return o.kind >= opTest }

// holds runs the op on a fact's values, binding into st.
func (o *op) holds(vals, st []Value) bool {
	x := vals[o.slot]
	switch o.kind {
	case opLit:
		return Eq(x, o.val)
	case opPred:
		return o.fn(x)
	case opTest:
		return Eq(st[o.v], x)
	default: // opBind
		st[o.v] = x
		return true
	}
}

// cpat is one compiled pattern.
type cpat struct {
	tmpl    *Template
	negated bool
	// ops run in order: the tests that read no variable first, then
	// the rest in the order the pattern wrote them.
	ops []op
	// fire re-checks a negated pattern at fire time, when every
	// variable the positive patterns bind is bound.
	fire []op
	// binder is the stack position of ?f in ?f <- pattern, or -1.
	binder int
	// lastPos marks the last positive pattern: an incremental join
	// that has not yet used the new fact must use it here.
	lastPos bool
}

// matchOps runs ops over f, binding into st.
func matchOps(ops []op, f *Fact, st []Value) bool {
	for i := range ops {
		if !ops[i].holds(f.vals, st) {
			return false
		}
	}
	return true
}

// LHS is a rule's left-hand side compiled against its templates: each
// matcher resolved to a slot position and each variable to a position
// on one bindings stack. It is immutable once Compile returns, so one
// LHS may back rules in any number of engines that register the same
// templates.
type LHS struct {
	pats []cpat
	// vars names the stack positions: the nvis variables an action
	// sees come first, then those local to negated patterns.
	vars    []string
	nvis    int
	negated bool
}

// uses reports whether a positive pattern of the LHS is on t.
func (l *LHS) uses(t *Template) bool {
	for i := range l.pats {
		if p := &l.pats[i]; !p.negated && p.tmpl == t {
			return true
		}
	}
	return false
}

// Compile compiles a rule's patterns against the given templates. A
// pattern on a template not in the list, or on a slot its template
// does not declare, is an error naming the rule, template and slot.
func Compile(rule string, templates []*Template, patterns ...Pattern) (*LHS, error) {
	l := &LHS{pats: make([]cpat, len(patterns))}
	c := &compiler{rule: rule, pos: map[string]int{}}
	// The variables an action sees take the first stack positions:
	// binders and the first binding use of each variable in a
	// positive pattern.
	for _, p := range patterns {
		if p.Negated {
			continue
		}
		for _, sm := range p.Matches {
			if name, ok := bindingVar(sm.M); ok {
				c.varPos(name)
			}
		}
		if p.Binder != "" {
			c.varPos(p.Binder)
		}
	}
	l.nvis = len(c.vars)

	bound := map[string]bool{}
	all := map[string]bool{}
	for _, n := range c.vars {
		all[n] = true
	}
	for i, p := range patterns {
		t := findTemplate(templates, p.Template)
		if t == nil {
			return nil, fmt.Errorf("expert: rule %q uses undefined template %q", rule, p.Template)
		}
		cp := &l.pats[i]
		cp.tmpl, cp.negated, cp.binder = t, p.Negated, -1
		if p.Negated {
			l.negated = true
			var err error
			if cp.ops, err = c.pattern(t, p.Matches, copyBound(bound)); err != nil {
				return nil, err
			}
			if cp.fire, err = c.pattern(t, p.Matches, copyBound(all)); err != nil {
				return nil, err
			}
			continue
		}
		var err error
		if cp.ops, err = c.pattern(t, p.Matches, bound); err != nil {
			return nil, err
		}
		if p.Binder != "" {
			cp.binder = c.varPos(p.Binder)
			bound[p.Binder] = true
		}
	}
	for i := len(l.pats) - 1; i >= 0; i-- {
		if !l.pats[i].negated {
			l.pats[i].lastPos = true
			break
		}
	}
	l.vars = c.vars
	return l, nil
}

// bindingVar names the variable m binds or tests.
func bindingVar(m Matcher) (string, bool) {
	return m.name, m.kind == mVar
}

func copyBound(b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

func findTemplate(ts []*Template, name string) *Template {
	for _, t := range ts {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// compiler turns one rule's slot matchers into ops, placing each
// variable on the bindings stack.
type compiler struct {
	rule string
	pos  map[string]int
	vars []string
}

// varPos returns the stack position of a variable.
func (c *compiler) varPos(name string) int {
	if i, ok := c.pos[name]; ok {
		return i
	}
	c.pos[name] = len(c.vars)
	c.vars = append(c.vars, name)
	return c.pos[name]
}

// pattern compiles one pattern's matchers; bound holds the variables
// bound before it and gains those it binds.
func (c *compiler) pattern(t *Template, ms []SlotMatch, bound map[string]bool) ([]op, error) {
	var pure, rest []op
	for _, sm := range ms {
		slot, ok := t.slot(sm.Slot)
		if !ok {
			return nil, fmt.Errorf("expert: rule %q: template %q has no slot %q", c.rule, t.Name, sm.Slot)
		}
		o, ok := c.matcher(sm.M, slot, bound)
		if !ok {
			continue
		}
		if o.readsVar() {
			rest = append(rest, o)
		} else {
			pure = append(pure, o)
		}
	}
	return append(pure, rest...), nil
}

// matcher compiles m on a slot; ok is false when m tests nothing.
func (c *compiler) matcher(m Matcher, slot int, bound map[string]bool) (op, bool) {
	o := op{slot: slot}
	switch m.kind {
	case mAny:
		return o, false
	case mLit:
		o.kind, o.val = opLit, m.val
	case mPred:
		o.kind, o.fn = opPred, m.fn
	case mVar:
		o.kind, o.v = opTest, c.varPos(m.name)
		if !bound[m.name] {
			o.kind = opBind
			bound[m.name] = true
		}
	}
	return o, true
}
