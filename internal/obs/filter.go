package obs

import (
	"fmt"
	"strconv"
)

// Filter selects events by layer, kind, pid, and rule — the selection
// vocabulary of `hth-trace -replay`'s flags. The zero Filter matches
// everything.
type Filter struct {
	Layer    Layer
	HasLayer bool
	Kind     Kind
	HasKind  bool
	PID      int32
	HasPID   bool
	// Rule restricts to rule.fire/warning events of the named rule;
	// events of other kinds never match a rule filter.
	Rule string
}

// ParseFilter builds a Filter from the textual selector form: layer
// and kind by trace name ("vos", "syscall.enter"), pid as a decimal
// ("" or a negative value means any), rule as an exact rule name.
func ParseFilter(layer, kind, pid, rule string) (Filter, error) {
	var f Filter
	if layer != "" {
		l, ok := LayerByName(layer)
		if !ok {
			return f, fmt.Errorf("obs: unknown layer %q", layer)
		}
		f.Layer, f.HasLayer = l, true
	}
	if kind != "" {
		k, ok := KindByName(kind)
		if !ok {
			return f, fmt.Errorf("obs: unknown kind %q", kind)
		}
		f.Kind, f.HasKind = k, true
	}
	if pid != "" {
		n, err := strconv.Atoi(pid)
		if err != nil {
			return f, fmt.Errorf("obs: bad pid %q", pid)
		}
		if n >= 0 {
			f.PID, f.HasPID = int32(n), true
		}
	}
	f.Rule = rule
	return f, nil
}

// Match reports whether e passes the filter.
func (f *Filter) Match(e Event) bool {
	if f.HasLayer && e.Layer != f.Layer {
		return false
	}
	if f.HasKind && e.Kind != f.Kind {
		return false
	}
	if f.HasPID && e.PID != f.PID {
		return false
	}
	if f.Rule != "" {
		switch e.Kind {
		case KindRuleFire, KindWarning:
			if e.Str != f.Rule {
				return false
			}
		default:
			return false
		}
	}
	return true
}
