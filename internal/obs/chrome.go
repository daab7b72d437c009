package obs

import (
	"io"
	"sort"
	"strconv"
	"unicode/utf8"
)

// chromeWriter streams one Chrome trace_event JSON document, the
// format Perfetto and chrome://tracing load. It is the one writer
// behind every trace export: span traces as complete ("X") events,
// provenance chains as instant ("i") events under thread_name
// metadata ("M") records. Records are built member by member into one
// reused buffer (no maps, no document tree), and every string is
// JSON-encoded, so control bytes or invalid UTF-8 in a trace ID, span
// name or source label still yield valid JSON.
//
// A record is begin, its own members, args, the argument members,
// then end.
type chromeWriter struct {
	w     io.Writer
	buf   []byte
	comma bool // the open object already holds a member
	n     int  // records begun
	err   error
}

// chromeFlushAt is the buffered size at which a finished record is
// written out.
const chromeFlushAt = 4096

func newChromeWriter(w io.Writer, displayUnit string) *chromeWriter {
	c := &chromeWriter{w: w, buf: make([]byte, 0, chromeFlushAt+512)}
	c.buf = append(c.buf, '{')
	c.str("displayTimeUnit", displayUnit)
	c.key("traceEvents")
	c.buf = append(c.buf, '[')
	return c
}

// begin opens a record with the members every event carries: name,
// the category when cat is non-empty, phase, pid 1 and tid.
func (c *chromeWriter) begin(name, cat, ph string, tid uint64) {
	if c.n > 0 {
		c.buf = append(c.buf, ',')
	}
	c.n++
	c.buf = append(c.buf, '{')
	c.comma = false
	c.str("name", name)
	if cat != "" {
		c.str("cat", cat)
	}
	c.str("ph", ph)
	c.uint("pid", 1)
	c.uint("tid", tid)
}

// args opens the record's args object.
func (c *chromeWriter) args() {
	c.key("args")
	c.buf = append(c.buf, '{')
	c.comma = false
}

// end closes the args object and the record.
func (c *chromeWriter) end() {
	c.buf = append(c.buf, '}', '}')
	if len(c.buf) >= chromeFlushAt {
		c.flush()
	}
}

// close ends the document, writes what is buffered and returns the
// first write error.
func (c *chromeWriter) close() error {
	c.buf = append(c.buf, "]}\n"...)
	c.flush()
	return c.err
}

func (c *chromeWriter) flush() {
	if c.err == nil {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

func (c *chromeWriter) key(k string) {
	if c.comma {
		c.buf = append(c.buf, ',')
	}
	c.comma = true
	c.buf = appendJSONString(c.buf, k)
	c.buf = append(c.buf, ':')
}

func (c *chromeWriter) str(k, v string) {
	c.key(k)
	c.buf = appendJSONString(c.buf, v)
}

func (c *chromeWriter) uint(k string, v uint64) {
	c.key(k)
	c.buf = strconv.AppendUint(c.buf, v, 10)
}

func (c *chromeWriter) int(k string, v int64) {
	c.key(k)
	c.buf = strconv.AppendInt(c.buf, v, 10)
}

func (c *chromeWriter) flag(k string) {
	c.key(k)
	c.buf = append(c.buf, "true"...)
}

// micros writes a nanosecond quantity in microseconds with three
// decimals, the unit of trace_event timestamps and durations. A
// replayed trace can carry any timestamp, negative ones included.
func (c *chromeWriter) micros(k string, ns int64) {
	c.key(k)
	u := uint64(ns)
	if ns < 0 {
		c.buf = append(c.buf, '-')
		u = -u
	}
	c.buf = strconv.AppendUint(c.buf, u/1000, 10)
	f := u % 1000
	c.buf = append(c.buf, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
}

// appendJSONString appends s as a JSON string literal. Quote, backslash
// and control bytes are escaped, and each byte of invalid UTF-8 becomes
// U+FFFD, as encoding/json renders it. '<', '>' and '&' are copied as
// they are (encoding/json escapes them for HTML), so printable ASCII
// needs no escape beyond quote and backslash.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= 0x20 && b != '"' && b != '\\' && b < utf8.RuneSelf {
			i++
			continue
		}
		size := 1
		if b >= utf8.RuneSelf {
			var r rune
			if r, size = utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '"', '\\':
			dst = append(dst, '\\', b)
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			if b >= utf8.RuneSelf {
				dst = append(dst, `\ufffd`...)
			} else {
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// WriteChromeSpans renders one or more traces as Chrome trace_event
// JSON: complete ("X") events, one tid per trace so multi-job dumps
// stack cleanly, microsecond timestamps. Traces are emitted in sorted
// trace-ID order and spans in start order, so output is deterministic
// for a given input. A span still open is drawn up to nowNS with an
// open=true arg.
func WriteChromeSpans(w io.Writer, traces map[string][]Span, nowNS int64) error {
	ids := make([]string, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	c := newChromeWriter(w, "ms")
	for tid, id := range ids {
		spans := append([]Span(nil), traces[id]...)
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for _, sp := range spans {
			end := sp.End
			if end == 0 {
				end = nowNS
			}
			c.begin(sp.Name, "hth", "X", uint64(tid+1))
			c.micros("ts", sp.Start)
			c.micros("dur", max(end-sp.Start, 0))
			c.args()
			c.str("trace", id)
			c.str("status", sp.Status)
			if sp.End == 0 {
				c.flag("open")
			}
			c.end()
		}
	}
	return c.close()
}
