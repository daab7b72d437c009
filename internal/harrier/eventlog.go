package harrier

import (
	"fmt"
	"strings"

	"repro/internal/events"
	"repro/internal/secpert"
)

// LogEntry is one record of the event log: the event Harrier's
// EventAnalyzer sent to Secpert, and the verdict that came back
// (paper Figure 6: the EventAnalyzer "format[s] and send[s] the
// events to Secpert ... then waits for a response").
type LogEntry struct {
	Seq      int
	Access   *events.Access // exactly one of Access/IO is set
	IO       *events.IO
	Decision secpert.Decision
}

// String renders the entry as a single transcript line.
func (le LogEntry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d ", le.Seq)
	switch {
	case le.Access != nil:
		a := le.Access
		fmt.Fprintf(&b, "pid %d %s", a.PID, a.Call)
		if a.Resource.Name != "" {
			fmt.Fprintf(&b, " %s %q (name from %v)", a.Resource.Type, a.Resource.Name, a.Resource.Origin)
		}
		if a.CloneCount > 0 {
			fmt.Fprintf(&b, " clones=%d rate=%d", a.CloneCount, a.CloneRate)
		}
		if a.MemBytes > 0 {
			fmt.Fprintf(&b, " mem=%d", a.MemBytes)
		}
		fmt.Fprintf(&b, " t=%d freq=%d", a.Time, a.Freq)
	case le.IO != nil:
		io := le.IO
		fmt.Fprintf(&b, "pid %d %s %s %s %q data=%v t=%d freq=%d",
			io.PID, io.Call, io.Dir, io.Resource.Type, io.Resource.Name,
			io.Data, io.Time, io.Freq)
		if io.Server {
			fmt.Fprintf(&b, " server=%q", io.ServerAddr)
		}
	}
	if le.Decision == secpert.Terminate {
		b.WriteString(" -> KILL")
	}
	return b.String()
}

// logAccess appends an access event to the log.
func (h *Harrier) logAccess(ev *events.Access, d secpert.Decision) {
	if !h.cfg.KeepEventLog {
		return
	}
	h.log = append(h.log, LogEntry{Seq: len(h.log) + 1, Access: ev, Decision: d})
}

// logIO appends an I/O event to the log.
func (h *Harrier) logIO(ev *events.IO, d secpert.Decision) {
	if !h.cfg.KeepEventLog {
		return
	}
	h.log = append(h.log, LogEntry{Seq: len(h.log) + 1, IO: ev, Decision: d})
}

// EventLog returns the recorded events in order.
func (h *Harrier) EventLog() []LogEntry { return h.log }
