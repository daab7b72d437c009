// Package expert implements a CLIPS-style forward-chaining production
// system: template facts, rules whose left-hand sides pattern-match
// working memory with variable binding, an agenda ordered by salience
// and recency, refraction, and a fire trace that lets every conclusion
// explain itself — the property the paper names as the reason to use
// an expert system over, e.g., a neural network (§6.2.1: "an expert
// system has the ability to reason about its decision making").
//
// Secpert (internal/secpert) builds the HTH security policy on top of
// this engine, mirroring the CLIPS implementation of the paper's
// Appendix A.
package expert

import (
	"fmt"
	"sort"
	"strings"
)

// Value is a slot value: string, int64, float64, bool, or []Value
// (a multifield). Integers must be int64 — helpers normalize.
type Value = any

// Norm normalizes numeric values to int64/float64 so equality behaves.
func Norm(v Value) Value {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case float32:
		return float64(x)
	case []string:
		out := make([]Value, len(x))
		for i, s := range x {
			out[i] = s
		}
		return out
	}
	return v
}

// Eq compares two values, deeply for multifields.
func Eq(a, b Value) bool {
	a, b = Norm(a), Norm(b)
	la, aok := a.([]Value)
	lb, bok := b.([]Value)
	if aok != bok {
		return false
	}
	if aok {
		if len(la) != len(lb) {
			return false
		}
		for i := range la {
			if !Eq(la[i], lb[i]) {
				return false
			}
		}
		return true
	}
	return a == b
}

// FormatValue renders a value CLIPS-style: strings quoted, symbols
// (identifier-looking strings) bare, multifields parenthesized.
func FormatValue(v Value) string {
	switch x := Norm(v).(type) {
	case nil:
		return "nil"
	case string:
		if isSymbol(x) {
			return x
		}
		return fmt.Sprintf("%q", x)
	case []Value:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = FormatValue(e)
		}
		return "(" + strings.Join(parts, " ") + ")"
	default:
		return fmt.Sprint(x)
	}
}

func isSymbol(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == '-' || r == '?' || r == '*' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && (r >= '0' && r <= '9'))
		if !ok {
			return false
		}
	}
	return true
}

// SlotDef declares one slot of a template.
type SlotDef struct {
	Name    string
	Multi   bool  // multislot: holds a []Value
	Default Value // used when Assert omits the slot
}

// Template is a deftemplate: a named fact shape. Facts keep their
// values in Slots order. NewTemplate, or the first DefTemplate,
// compiles the template's slot index; after that the template is
// read-only and may be registered in any number of engines. One
// shared between goroutines must come from NewTemplate.
type Template struct {
	Name  string
	Slots []SlotDef

	index    map[string]int // slot name -> position
	sorted   []int          // positions in slot-name order (Fact.String)
	defaults []Value        // normalized defaults; a multislot's is an empty list
}

// NewTemplate builds and compiles a template, ready to be shared. It
// panics on a duplicate slot name.
func NewTemplate(name string, slots ...SlotDef) *Template {
	t := &Template{Name: name, Slots: slots}
	if err := t.compile(); err != nil {
		panic(err)
	}
	return t
}

// compile builds the slot index once; a compiled template is never
// written again.
func (t *Template) compile() error {
	if t.index != nil {
		return nil
	}
	index := make(map[string]int, len(t.Slots))
	t.sorted = make([]int, len(t.Slots))
	t.defaults = make([]Value, len(t.Slots))
	for i, sd := range t.Slots {
		if _, dup := index[sd.Name]; dup {
			return fmt.Errorf("expert: template %q declares slot %q twice", t.Name, sd.Name)
		}
		index[sd.Name] = i
		t.sorted[i] = i
		v := sd.Default
		if v == nil && sd.Multi {
			v = []Value{}
		}
		t.defaults[i] = Norm(v)
	}
	sort.Slice(t.sorted, func(a, b int) bool { return t.Slots[t.sorted[a]].Name < t.Slots[t.sorted[b]].Name })
	t.index = index
	return nil
}

// slot returns the position of the named slot.
func (t *Template) slot(name string) (int, bool) {
	i, ok := t.index[name]
	return i, ok
}

// Fact is one working-memory element. Its values are held in the
// template's slot order.
type Fact struct {
	ID       int
	Template string
	tmpl     *Template
	vals     []Value
}

// String renders the fact CLIPS-style, slots in name order:
// (template (slot value) (slot value)).
func (f *Fact) String() string {
	var b strings.Builder
	b.WriteString("(" + f.Template)
	for _, i := range f.tmpl.sorted {
		b.WriteString(fmt.Sprintf(" (%s %s)", f.tmpl.Slots[i].Name, FormatValue(f.vals[i])))
	}
	b.WriteString(")")
	return b.String()
}
