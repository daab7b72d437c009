package expert

import (
	"bytes"
	"strings"
	"testing"
)

func newClips(t *testing.T) (*Clips, *bytes.Buffer) {
	t.Helper()
	eng := NewEngine()
	var out bytes.Buffer
	eng.Out = &out
	c := NewClips(eng)
	c.Out = &out
	return c, &out
}

func mustEval(t *testing.T, c *Clips, src string) {
	t.Helper()
	if err := c.Eval(src); err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
}

func TestClipsDeftemplateAndAssert(t *testing.T) {
	c, _ := newClips(t)
	mustEval(t, c, `
(deftemplate person "a person"
    (slot name)
    (slot age (default 0))
    (multislot tags))
(assert (person (name "alice") (age 30) (tags a b)))
`)
	facts := c.Eng.Facts()
	if len(facts) != 1 {
		t.Fatalf("facts = %d", len(facts))
	}
	f := facts[0]
	if f.Get("name") != "alice" || f.Get("age") != int64(30) {
		t.Errorf("fact = %s", f)
	}
	tags, _ := f.Get("tags").([]Value)
	if len(tags) != 2 || tags[0] != "a" {
		t.Errorf("tags = %v", tags)
	}
}

func TestClipsDefaultApplied(t *testing.T) {
	c, _ := newClips(t)
	mustEval(t, c, `
(deftemplate x (slot v (default 7)))
(assert (x))
`)
	if got := c.Eng.Facts()[0].Get("v"); got != int64(7) {
		t.Errorf("default = %v", got)
	}
}

func TestClipsDefruleFires(t *testing.T) {
	c, out := newClips(t)
	mustEval(t, c, `
(deftemplate greeting (slot who))
(defrule hello "greet people"
    (greeting (who ?w))
    =>
    (printout t "Hello " ?w "!" crlf))
(assert (greeting (who "world")))
(run)
`)
	s := out.String()
	if !strings.Contains(s, "Hello world!") {
		t.Errorf("output = %q", s)
	}
	if !strings.Contains(s, "FIRE 1 hello: f-1") {
		t.Errorf("no fire trace: %q", s)
	}
	if !strings.Contains(s, "1 rules fired") {
		t.Errorf("no run summary: %q", s)
	}
}

func TestClipsVariableJoin(t *testing.T) {
	c, out := newClips(t)
	mustEval(t, c, `
(deftemplate parent (slot p) (slot c))
(defrule grandparent
    (parent (p ?a) (c ?b))
    (parent (p ?b) (c ?g))
    =>
    (printout t ?a " is grandparent of " ?g crlf))
(assert (parent (p tom) (c bob)))
(assert (parent (p bob) (c ann)))
(run)
`)
	if !strings.Contains(out.String(), "tom is grandparent of ann") {
		t.Errorf("output = %q", out.String())
	}
}

func TestClipsSalienceAndTest(t *testing.T) {
	c, out := newClips(t)
	mustEval(t, c, `
(deftemplate n (slot v))
(defrule big (declare (salience 10))
    (n (v ?x))
    (test (> ?x 5))
    =>
    (printout t "big " ?x crlf))
(defrule small (declare (salience -10))
    (n (v ?x))
    (test (<= ?x 5))
    =>
    (printout t "small " ?x crlf))
(assert (n (v 3)))
(assert (n (v 9)))
(run)
`)
	s := out.String()
	if !strings.Contains(s, "big 9") || !strings.Contains(s, "small 3") {
		t.Errorf("output = %q", s)
	}
	if strings.Index(s, "big 9") > strings.Index(s, "small 3") {
		t.Error("salience ordering violated")
	}
}

func TestClipsBinderAndRetract(t *testing.T) {
	c, _ := newClips(t)
	mustEval(t, c, `
(deftemplate job (slot state))
(defrule consume
    ?j <- (job (state pending))
    =>
    (retract ?j)
    (assert (job (state done))))
(assert (job (state pending)))
(run)
`)
	facts := c.Eng.Facts()
	if len(facts) != 1 || facts[0].Get("state") != "done" {
		t.Errorf("facts = %v", facts)
	}
}

func TestClipsAssertInActionChains(t *testing.T) {
	c, out := newClips(t)
	mustEval(t, c, `
(deftemplate a (slot v))
(deftemplate b (slot v))
(defrule forward (a (v ?x)) => (assert (b (v ?x))))
(defrule sink (b (v ?x)) => (printout t "got " ?x crlf))
(assert (a (v 42)))
(run)
`)
	if !strings.Contains(out.String(), "got 42") {
		t.Errorf("output = %q", out.String())
	}
}

func TestClipsRetractTopLevelAndFacts(t *testing.T) {
	c, out := newClips(t)
	mustEval(t, c, `
(deftemplate x (slot v))
(assert (x (v 1)))
(assert (x (v 2)))
(retract 1)
(facts)
`)
	s := out.String()
	if strings.Contains(s, "(v 1)") || !strings.Contains(s, "(v 2)") {
		t.Errorf("facts = %q", s)
	}
}

func TestClipsRunLimitAndAgenda(t *testing.T) {
	c, out := newClips(t)
	mustEval(t, c, `
(deftemplate x (slot v))
(defrule r (x (v ?v)) => (printout t "fired" crlf))
(assert (x (v 1)))
(assert (x (v 2)))
(agenda)
(run 1)
(agenda)
`)
	s := out.String()
	if !strings.Contains(s, "2 activation(s)") || !strings.Contains(s, "1 activation(s)") {
		t.Errorf("agenda output = %q", s)
	}
}

func TestClipsReset(t *testing.T) {
	c, _ := newClips(t)
	mustEval(t, c, `
(deftemplate x (slot v))
(assert (x (v 1)))
(reset)
`)
	if len(c.Eng.Facts()) != 0 {
		t.Error("reset did not clear facts")
	}
	// Templates survive reset.
	mustEval(t, c, `(assert (x (v 2)))`)
}

func TestClipsAppendixA2Rule(t *testing.T) {
	// A compact CLIPS rendering of the paper's check_execve (the
	// trusted-binary filtering lives in Go; the textual layer handles
	// the structural match and severity logic via tests).
	c, out := newClips(t)
	mustEval(t, c, `
(deftemplate system_call_access
    (slot system_call_name)
    (slot resource_name)
    (slot resource_origin_type)
    (slot time (default 0))
    (slot frequency (default 0)))
(defrule check_execve "check execve"
    ?execve <- (system_call_access
        (system_call_name SYS_execve)
        (resource_name ?name)
        (resource_origin_type BINARY)
        (time ?time)
        (frequency ?freq))
    =>
    (printout t "Warning [LOW] Found SYS_execve call (" ?name ")" crlf)
    (retract ?execve))
(assert (system_call_access
    (system_call_name SYS_execve)
    (resource_name "/bin/ls")
    (resource_origin_type BINARY)
    (time 33)
    (frequency 1)))
(run)
`)
	s := out.String()
	if !strings.Contains(s, "FIRE 1 check_execve") ||
		!strings.Contains(s, `Warning [LOW] Found SYS_execve call (/bin/ls)`) {
		t.Errorf("output = %q", s)
	}
	if len(c.Eng.Facts()) != 0 {
		t.Error("event fact not retracted")
	}
}

func TestClipsParseErrors(t *testing.T) {
	c, _ := newClips(t)
	cases := []string{
		"(",
		"(deftemplate)",
		"(defrule r (x) (printout))", // missing =>
		"(assert)",
		"(retract x)",
		"(bogus)",
		`(deftemplate t (slot v)) (defrule r (t (v ?x)) => (explode ?x))`,
		"atom-at-top-level",
		"(unterminated \"string)",
	}
	for _, src := range cases {
		if err := c.Eval(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestClipsComments(t *testing.T) {
	c, _ := newClips(t)
	mustEval(t, c, `
; a comment
(deftemplate x (slot v)) ; trailing
(assert (x (v 1)))
`)
	if len(c.Eng.Facts()) != 1 {
		t.Error("comments broke parsing")
	}
}

func TestSexprRoundTrip(t *testing.T) {
	forms, err := parseSexprs(`(a "str" 42 (nested ?v $?m))`)
	if err != nil {
		t.Fatal(err)
	}
	if got := forms[0].String(); got != `(a "str" 42 (nested ?v $?m))` {
		t.Errorf("round trip = %q", got)
	}
}

func TestClipsEngineInterop(t *testing.T) {
	// Rules defined in Go and facts asserted from CLIPS text interact.
	eng := NewEngine()
	var hits []string
	eng.DefTemplate(&Template{Name: "ev", Slots: []SlotDef{{Name: "what"}}})
	eng.DefRule(&Rule{
		Name:     "go-rule",
		Patterns: []Pattern{P("ev", S("what", Var("w")))},
		Action: func(ctx *Context, b *Bindings) {
			hits = append(hits, b.Str("w"))
		},
	})
	c := NewClips(eng)
	if err := c.Eval(`(assert (ev (what "from-clips"))) (run)`); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0] != "from-clips" {
		t.Errorf("hits = %v", hits)
	}
}

func TestClipsNotElement(t *testing.T) {
	c, out := newClips(t)
	mustEval(t, c, `
(deftemplate task (slot id))
(deftemplate done (slot id))
(defrule pending
    (task (id ?i))
    (not (done (id ?i)))
    =>
    (printout t "pending " ?i crlf))
(assert (task (id 1)))
(assert (task (id 2)))
(assert (done (id 1)))
(run)
`)
	s := out.String()
	if strings.Contains(s, "pending 1") || !strings.Contains(s, "pending 2") {
		t.Errorf("output = %q", s)
	}
}

func TestSexprEdgeCases(t *testing.T) {
	// Comment at EOF, string escapes, negative-looking symbols.
	forms, err := parseSexprs("(a \"x\\ty\") ; trailing comment")
	if err != nil {
		t.Fatal(err)
	}
	if forms[0].kids[1].str != "x\ty" {
		t.Errorf("escape = %q", forms[0].kids[1].str)
	}
	if _, err := parseSexprs(`("bad escape \q")`); err == nil {
		t.Error("bad escape accepted")
	}
	if _, err := parseSexprs(`)`); err == nil {
		t.Error("stray paren accepted")
	}
	// -5 is not parsed as a number (CLIPS-lite); it stays a symbol.
	forms, err = parseSexprs("(v -5x)")
	if err != nil {
		t.Fatal(err)
	}
	if !forms[0].kids[1].atom || forms[0].kids[1].isNum {
		t.Error("-5x should be a symbol")
	}
}

func TestClipsRuleOnUndeclaredSlotRejected(t *testing.T) {
	c, _ := newClips(t)
	err := c.Eval(`
(deftemplate ev (slot kind))
(defrule r (ev (kidn x)) => (printout t "never" crlf))`)
	undeclaredSlotErr(t, err, `"r"`, `"ev"`, `"kidn"`)
}

func TestClipsTemplateDuplicateSlotRejected(t *testing.T) {
	c, _ := newClips(t)
	err := c.Eval(`(deftemplate ev (slot kind) (multislot kind))`)
	duplicateSlotErr(t, err, `"ev"`, `"kind"`)
}
