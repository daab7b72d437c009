package expert

import (
	"bytes"
	"strings"
	"testing"
)

func personTemplate() *Template {
	return &Template{Name: "person", Slots: []SlotDef{
		{Name: "name"},
		{Name: "age"},
		{Name: "tags", Multi: true},
	}}
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	if err := e.DefTemplate(personTemplate()); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAssertAndFactString(t *testing.T) {
	e := newTestEngine(t)
	f, err := e.Assert("person", map[string]Value{"name": "alice", "age": 30})
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 1 {
		t.Errorf("id = %d", f.ID)
	}
	s := f.String()
	if !strings.Contains(s, "(name alice)") || !strings.Contains(s, "(age 30)") {
		t.Errorf("String = %s", s)
	}
	// Defaults: multislot defaults to empty list.
	if tags, ok := f.Get("tags").([]Value); !ok || len(tags) != 0 {
		t.Errorf("tags default = %v", f.Get("tags"))
	}
}

func TestAssertValidation(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Assert("nosuch", nil); err == nil {
		t.Error("undefined template accepted")
	}
	if _, err := e.Assert("person", map[string]Value{"bogus": 1}); err == nil {
		t.Error("undefined slot accepted")
	}
	if _, err := e.Assert("person", map[string]Value{"tags": "notalist"}); err == nil {
		t.Error("scalar in multislot accepted")
	}
}

func TestSimpleRuleFires(t *testing.T) {
	e := newTestEngine(t)
	var fired []string
	err := e.DefRule(&Rule{
		Name:     "adult",
		Patterns: []Pattern{P("person", S("name", Var("n")), S("age", Pred(func(v Value) bool { i, _ := v.(int64); return i >= 18 })))},
		Action: func(ctx *Context, b *Bindings) {
			fired = append(fired, b.Str("n"))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Assert("person", map[string]Value{"name": "kid", "age": 10})
	e.Assert("person", map[string]Value{"name": "adult1", "age": 30})
	n := e.Run(0)
	if n != 1 || len(fired) != 1 || fired[0] != "adult1" {
		t.Errorf("fired = %v (n=%d)", fired, n)
	}
}

func TestRefraction(t *testing.T) {
	e := newTestEngine(t)
	count := 0
	e.DefRule(&Rule{
		Name:     "count",
		Patterns: []Pattern{P("person")},
		Action:   func(*Context, *Bindings) { count++ },
	})
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	e.Run(0)
	e.Run(0) // same fact must not fire again
	if count != 1 {
		t.Errorf("count = %d, want 1 (refraction)", count)
	}
	// A new fact fires once more.
	e.Assert("person", map[string]Value{"name": "y", "age": 2})
	e.Run(0)
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
}

func TestVariableJoin(t *testing.T) {
	e := NewEngine()
	e.DefTemplate(&Template{Name: "parent", Slots: []SlotDef{{Name: "p"}, {Name: "c"}}})
	var pairs []string
	e.DefRule(&Rule{
		Name: "grandparent",
		Patterns: []Pattern{
			P("parent", S("p", Var("a")), S("c", Var("b"))),
			P("parent", S("p", Var("b")), S("c", Var("c"))),
		},
		Action: func(ctx *Context, b *Bindings) {
			pairs = append(pairs, b.Str("a")+">"+b.Str("c"))
		},
	})
	e.Assert("parent", map[string]Value{"p": "tom", "c": "bob"})
	e.Assert("parent", map[string]Value{"p": "bob", "c": "ann"})
	e.Assert("parent", map[string]Value{"p": "sue", "c": "joe"})
	e.Run(0)
	if len(pairs) != 1 || pairs[0] != "tom>ann" {
		t.Errorf("pairs = %v", pairs)
	}
}

func TestSalienceOrdersFiring(t *testing.T) {
	e := newTestEngine(t)
	var order []string
	mk := func(name string, sal int) *Rule {
		return &Rule{
			Name:     name,
			Salience: sal,
			Patterns: []Pattern{P("person")},
			Action:   func(*Context, *Bindings) { order = append(order, name) },
		}
	}
	e.DefRule(mk("low", -10))
	e.DefRule(mk("high", 10))
	e.DefRule(mk("mid", 0))
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	e.Run(0)
	want := "high,mid,low"
	if strings.Join(order, ",") != want {
		t.Errorf("order = %v", order)
	}
}

func TestRetractRemovesActivations(t *testing.T) {
	e := newTestEngine(t)
	count := 0
	e.DefRule(&Rule{
		Name:     "r",
		Patterns: []Pattern{P("person")},
		Action:   func(*Context, *Bindings) { count++ },
	})
	f, _ := e.Assert("person", map[string]Value{"name": "x", "age": 1})
	e.Retract(f.ID)
	e.Run(0)
	if count != 0 {
		t.Error("retracted fact still fired")
	}
	if _, ok := e.find(f.ID); ok {
		t.Error("fact still present")
	}
}

func TestActionAssertChains(t *testing.T) {
	e := NewEngine()
	e.DefTemplate(&Template{Name: "a", Slots: []SlotDef{{Name: "v"}}})
	e.DefTemplate(&Template{Name: "b", Slots: []SlotDef{{Name: "v"}}})
	var got []int64
	e.DefRule(&Rule{
		Name:     "a-to-b",
		Patterns: []Pattern{P("a", S("v", Var("x")))},
		Action: func(ctx *Context, b *Bindings) {
			ctx.E.Assert("b", map[string]Value{"v": b.Int("x") + 1})
		},
	})
	e.DefRule(&Rule{
		Name:     "b-sink",
		Patterns: []Pattern{P("b", S("v", Var("x")))},
		Action: func(ctx *Context, b *Bindings) {
			got = append(got, b.Int("x"))
		},
	})
	e.Assert("a", map[string]Value{"v": 41})
	e.Run(0)
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("got = %v", got)
	}
}

func TestActionRetractPreventsOtherRules(t *testing.T) {
	e := newTestEngine(t)
	var fired []string
	e.DefRule(&Rule{
		Name:     "eater",
		Salience: 10,
		Patterns: []Pattern{{Binder: "f", Template: "person"}},
		Action: func(ctx *Context, b *Bindings) {
			fired = append(fired, "eater")
			ctx.Retract(b.Fact("f").ID)
		},
	})
	e.DefRule(&Rule{
		Name:     "late",
		Salience: 0,
		Patterns: []Pattern{P("person")},
		Action:   func(*Context, *Bindings) { fired = append(fired, "late") },
	})
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	e.Run(0)
	if strings.Join(fired, ",") != "eater" {
		t.Errorf("fired = %v (late should have lost its activation)", fired)
	}
}

func TestTestsFilterActivations(t *testing.T) {
	e := newTestEngine(t)
	count := 0
	e.DefRule(&Rule{
		Name:     "r",
		Patterns: []Pattern{P("person", S("age", Var("a")))},
		Tests:    []func(*Bindings) bool{func(b *Bindings) bool { return b.Int("a") > 20 }},
		Action:   func(*Context, *Bindings) { count++ },
	})
	e.Assert("person", map[string]Value{"name": "x", "age": 10})
	e.Assert("person", map[string]Value{"name": "y", "age": 30})
	e.Run(0)
	if count != 1 {
		t.Errorf("count = %d", count)
	}
}

func TestFireTraceFormat(t *testing.T) {
	e := newTestEngine(t)
	var out bytes.Buffer
	e.Out = &out
	var tr []FireRecord
	e.OnFire = func(rec FireRecord) { tr = append(tr, rec) }
	e.DefRule(&Rule{Name: "check_execve", Patterns: []Pattern{P("person")}})
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	e.Run(0)
	if got := strings.TrimSpace(out.String()); got != "FIRE 1 check_execve: f-1" {
		t.Errorf("trace output = %q", got)
	}
	if len(tr) != 1 || tr[0].Rule != "check_execve" || tr[0].FactIDs[0] != 1 {
		t.Errorf("trace = %+v", tr)
	}
}

func TestRunLimit(t *testing.T) {
	e := newTestEngine(t)
	count := 0
	e.DefRule(&Rule{
		Name:     "r",
		Patterns: []Pattern{P("person")},
		Action:   func(*Context, *Bindings) { count++ },
	})
	for i := 0; i < 5; i++ {
		e.Assert("person", map[string]Value{"name": "x", "age": i})
	}
	if n := e.Run(2); n != 2 || count != 2 {
		t.Errorf("limited run fired %d/%d", n, count)
	}
	if n := e.Run(0); n != 3 {
		t.Errorf("remaining fired %d", n)
	}
}

func TestDefRuleActivatesExistingFacts(t *testing.T) {
	e := newTestEngine(t)
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	count := 0
	e.DefRule(&Rule{
		Name:     "r",
		Patterns: []Pattern{P("person")},
		Action:   func(*Context, *Bindings) { count++ },
	})
	e.Run(0)
	if count != 1 {
		t.Error("rule did not see pre-existing fact")
	}
}

func TestDuplicateDefinitionsRejected(t *testing.T) {
	e := newTestEngine(t)
	if err := e.DefTemplate(personTemplate()); err == nil {
		t.Error("duplicate template accepted")
	}
	e.DefRule(&Rule{Name: "r", Patterns: []Pattern{P("person")}})
	if err := e.DefRule(&Rule{Name: "r", Patterns: []Pattern{P("person")}}); err == nil {
		t.Error("duplicate rule accepted")
	}
	if err := e.DefRule(&Rule{Name: "r2", Patterns: []Pattern{P("ghost")}}); err == nil {
		t.Error("rule on undefined template accepted")
	}
}

func TestMultifieldMatching(t *testing.T) {
	e := newTestEngine(t)
	var hit bool
	e.DefRule(&Rule{
		Name: "has-binary-tag",
		Patterns: []Pattern{P("person", S("tags", Pred(func(v Value) bool {
			l, _ := v.([]Value)
			for _, e := range l {
				if e == "BINARY" {
					return true
				}
			}
			return false
		})))},
		Action: func(*Context, *Bindings) { hit = true },
	})
	e.Assert("person", map[string]Value{"name": "a", "age": 1, "tags": []Value{"FILE"}})
	e.Run(0)
	if hit {
		t.Error("rule fired on wrong tags")
	}
	e.Assert("person", map[string]Value{"name": "b", "age": 1, "tags": []Value{"FILE", "BINARY"}})
	e.Run(0)
	if !hit {
		t.Error("rule missed BINARY tag")
	}
}

func TestReset(t *testing.T) {
	e := newTestEngine(t)
	count := 0
	e.DefRule(&Rule{
		Name:     "r",
		Patterns: []Pattern{P("person")},
		Action:   func(*Context, *Bindings) { count++ },
	})
	var seqs []int
	e.OnFire = func(rec FireRecord) { seqs = append(seqs, rec.Seq) }
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	e.Run(0)
	e.Reset()
	if len(e.Facts()) != 0 || e.AgendaLen() != 0 {
		t.Error("reset incomplete")
	}
	// Rules survive, refraction memory is cleared and the fire
	// sequence restarts.
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	e.Run(0)
	if count != 2 || len(seqs) != 2 || seqs[1] != 1 {
		t.Errorf("count after reset = %d, fire seqs %v", count, seqs)
	}
}

func TestEqAndNorm(t *testing.T) {
	if !Eq(int(5), int64(5)) {
		t.Error("int/int64 not equal")
	}
	if !Eq([]Value{"a", int64(1)}, []Value{"a", 1}) {
		t.Error("multifield eq failed")
	}
	if Eq([]Value{"a"}, "a") {
		t.Error("list equals scalar")
	}
	if Eq([]Value{"a"}, []Value{"a", "b"}) {
		t.Error("different lengths equal")
	}
	if got := Norm(uint32(7)); got != int64(7) {
		t.Errorf("Norm(uint32) = %T", got)
	}
	if got, ok := Norm([]string{"x"}).([]Value); !ok || got[0] != "x" {
		t.Error("Norm([]string) failed")
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[string]Value{
		"SYS_execve":    "SYS_execve",
		`"/bin/ls"`:     "/bin/ls",
		"33":            33,
		"(FILE BINARY)": []Value{"FILE", "BINARY"},
	}
	for want, v := range cases {
		if got := FormatValue(v); got != want {
			t.Errorf("FormatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

// firesOn asserts each fact into a fresh engine holding one rule over
// pattern p and reports, per fact, whether the rule fired.
func firesOn(t *testing.T, p Pattern, facts ...map[string]Value) []bool {
	t.Helper()
	e := NewEngine()
	if err := e.DefTemplate(&Template{Name: p.Template, Slots: []SlotDef{{Name: "a"}, {Name: "b"}}}); err != nil {
		t.Fatal(err)
	}
	var hit bool
	if err := e.DefRule(&Rule{Name: "r", Patterns: []Pattern{p}, Action: func(*Context, *Bindings) { hit = true }}); err != nil {
		t.Fatal(err)
	}
	out := make([]bool, len(facts))
	for i, f := range facts {
		hit = false
		if _, err := e.Assert(p.Template, f); err != nil {
			t.Fatal(err)
		}
		e.Run(0)
		out[i] = hit
	}
	return out
}

func TestVarBindsAndConstrains(t *testing.T) {
	got := firesOn(t, P("t", S("a", Var("x")), S("b", Var("x"))),
		map[string]Value{"a": "hello", "b": "hello"},
		map[string]Value{"a": "hello", "b": "other"})
	if !got[0] {
		t.Error("same value rejected")
	}
	if got[1] {
		t.Error("different value accepted")
	}
}

func TestNegativePatternBlocks(t *testing.T) {
	e := NewEngine()
	e.DefTemplate(&Template{Name: "task", Slots: []SlotDef{{Name: "id"}}})
	e.DefTemplate(&Template{Name: "done", Slots: []SlotDef{{Name: "id"}}})
	var fired []int64
	e.DefRule(&Rule{
		Name: "pending",
		Patterns: []Pattern{
			P("task", S("id", Var("i"))),
			pNot("done", S("id", Var("i"))),
		},
		Action: func(ctx *Context, b *Bindings) {
			fired = append(fired, b.Int("i"))
		},
	})
	e.Assert("task", map[string]Value{"id": 1})
	e.Assert("task", map[string]Value{"id": 2})
	e.Assert("done", map[string]Value{"id": 1})
	e.Run(0)
	if len(fired) != 1 || fired[0] != 2 {
		t.Errorf("fired = %v, want [2]", fired)
	}
}

func TestNegativePatternDefeatedBeforeFire(t *testing.T) {
	// A fact asserted after activation but before firing defeats the
	// not-element.
	e := NewEngine()
	e.DefTemplate(&Template{Name: "task", Slots: []SlotDef{{Name: "id"}}})
	e.DefTemplate(&Template{Name: "done", Slots: []SlotDef{{Name: "id"}}})
	count := 0
	e.DefRule(&Rule{
		Name: "pending",
		Patterns: []Pattern{
			P("task", S("id", Var("i"))),
			pNot("done", S("id", Var("i"))),
		},
		Action: func(*Context, *Bindings) { count++ },
	})
	e.Assert("task", map[string]Value{"id": 1})
	// The activation exists now; defeat it before running.
	e.Assert("done", map[string]Value{"id": 1})
	e.Run(0)
	if count != 0 {
		t.Errorf("defeated activation fired %d times", count)
	}
}

func TestNegativePatternReenabledByRetract(t *testing.T) {
	e := NewEngine()
	e.DefTemplate(&Template{Name: "task", Slots: []SlotDef{{Name: "id"}}})
	e.DefTemplate(&Template{Name: "done", Slots: []SlotDef{{Name: "id"}}})
	count := 0
	e.DefRule(&Rule{
		Name: "pending",
		Patterns: []Pattern{
			P("task", S("id", Var("i"))),
			pNot("done", S("id", Var("i"))),
		},
		Action: func(*Context, *Bindings) { count++ },
	})
	e.Assert("task", map[string]Value{"id": 1})
	blocker, _ := e.Assert("done", map[string]Value{"id": 1})
	e.Run(0)
	if count != 0 {
		t.Fatal("fired while blocked")
	}
	e.Retract(blocker.ID)
	e.Run(0)
	if count != 1 {
		t.Errorf("retract did not re-enable the not-element (count=%d)", count)
	}
}

func TestNegativePatternOnlyRule(t *testing.T) {
	// A rule whose only positive pattern is preceded by a not on an
	// empty template fires normally.
	e := NewEngine()
	e.DefTemplate(&Template{Name: "x", Slots: []SlotDef{{Name: "v"}}})
	e.DefTemplate(&Template{Name: "inhibit", Slots: []SlotDef{{Name: "v"}}})
	count := 0
	e.DefRule(&Rule{
		Name: "r",
		Patterns: []Pattern{
			pNot("inhibit"),
			P("x"),
		},
		Action: func(*Context, *Bindings) { count++ },
	})
	e.Assert("x", map[string]Value{"v": 1})
	e.Run(0)
	if count != 1 {
		t.Errorf("count = %d", count)
	}
}

// undeclaredSlotErr requires err to reject a pattern on a slot the
// template does not declare, naming the rule, template and slot.
func undeclaredSlotErr(t *testing.T, err error, rule, tmpl, slot string) {
	t.Helper()
	if err == nil {
		t.Fatal("pattern on an undeclared slot accepted")
	}
	for _, want := range []string{rule, tmpl, slot} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestRuleOnUndeclaredSlotRejected(t *testing.T) {
	e := newTestEngine(t)
	err := e.DefRule(&Rule{Name: "typo", Patterns: []Pattern{P("person", S("nmae", Lit("x")))}})
	undeclaredSlotErr(t, err, "typo", "person", "nmae")
}

// duplicateSlotErr checks that err rejects a template declaring a slot
// twice, naming the template and the slot.
func duplicateSlotErr(t *testing.T, err error, tmpl, slot string) {
	t.Helper()
	if err == nil {
		t.Fatal("template declaring a slot twice accepted")
	}
	for _, want := range []string{tmpl, slot} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestTemplateDuplicateSlotRejected(t *testing.T) {
	// A fact holds one value per slot position, so a second slot of the
	// same name could never be read by name.
	e := NewEngine()
	err := e.DefTemplate(&Template{Name: "person", Slots: []SlotDef{{Name: "name"}, {Name: "age"}, {Name: "name"}}})
	duplicateSlotErr(t, err, `"person"`, `"name"`)
	if _, err := e.Assert("person", map[string]Value{"name": "x"}); err == nil {
		t.Error("rejected template was registered")
	}
}

func TestNegatedRuleOnUndeclaredSlotRejected(t *testing.T) {
	// Before slots were checked, this negated pattern held for every
	// fact, so its rule fired on facts it should not have.
	e := newTestEngine(t)
	e.Assert("person", map[string]Value{"name": "x", "age": 1})
	fired := false
	err := e.DefRule(&Rule{
		Name:     "no-adult",
		Patterns: []Pattern{P("person"), pNot("person", S("aeg", Lit(int64(1))))},
		Action:   func(*Context, *Bindings) { fired = true },
	})
	undeclaredSlotErr(t, err, "no-adult", "person", "aeg")
	e.Run(0)
	if fired {
		t.Error("rejected rule fired")
	}
}

// pNot builds a negative conditional element: (not (template ...)).
func pNot(template string, matches ...SlotMatch) Pattern {
	return Pattern{Template: template, Matches: matches, Negated: true}
}

// Facts returns all facts in assertion order.
func (e *Engine) Facts() []*Fact {
	return append([]*Fact(nil), e.facts...)
}

// Get returns a slot value (nil for a slot the template lacks).
func (f *Fact) Get(slot string) Value {
	if i, ok := f.tmpl.index[slot]; ok {
		return f.vals[i]
	}
	return nil
}
