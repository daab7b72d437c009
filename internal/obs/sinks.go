package obs

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
)

// wireEvent is the JSONL wire form of an Event: layer and kind are
// symbolic so traces stay readable and stable across enum renumbering.
type wireEvent struct {
	Seq   uint64 `json:"seq"`
	Time  uint64 `json:"t"`
	Layer string `json:"layer"`
	Kind  string `json:"kind"`
	PID   int32  `json:"pid,omitempty"`
	Num   uint64 `json:"num,omitempty"`
	Num2  uint64 `json:"num2,omitempty"`
	Str   string `json:"str,omitempty"`
	Str2  string `json:"str2,omitempty"`
}

// jsonlSink streams one JSON object per event, remembering the first
// writer error so Close can surface it.
type jsonlSink struct {
	w   io.Writer // underlying writer, kept for ResetErr re-arming
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// JSONL builds a sink that writes the trace as JSON Lines: one object
// per event with symbolic layer/kind names, buffered, flushed on
// Close. The output replays with `hth-trace -replay`. The first
// underlying write error sticks: later events are dropped and Close
// returns it (surfaced through Result.ObserverErr), so a full disk or
// closed pipe is never silently an empty trace.
func JSONL(w io.Writer) Sink {
	bw := bufio.NewWriter(w)
	return &jsonlSink{w: w, bw: bw, enc: json.NewEncoder(bw)}
}

func (s *jsonlSink) Event(e Event) {
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(wireEvent{ // Encode appends '\n'
		Seq: e.Seq, Time: e.Time,
		Layer: e.Layer.String(), Kind: e.Kind.String(),
		PID: e.PID, Num: e.Num, Num2: e.Num2, Str: e.Str, Str2: e.Str2,
	})
}

func (s *jsonlSink) Close() error {
	if err := s.bw.Flush(); s.err == nil {
		s.err = err
	}
	return s.err
}

// ResetErr clears the sink's sticky error so a long-lived sink shared
// across pooled runs reports each run's health independently (see
// ResetErrs). The bufio layer latches write errors of its own, so it
// is re-armed too; any bytes it was still holding from the failed run
// are dropped (they never made it out anyway).
func (s *jsonlSink) ResetErr() {
	s.err = nil
	s.bw.Reset(s.w)
}

// writeWireEvent writes one event in the JSONL wire form (shared by
// the Flight dump paths).
func writeWireEvent(w io.Writer, e Event) error {
	b, err := json.Marshal(wireEvent{
		Seq: e.Seq, Time: e.Time,
		Layer: e.Layer.String(), Kind: e.Kind.String(),
		PID: e.PID, Num: e.Num, Num2: e.Num2, Str: e.Str, Str2: e.Str2,
	})
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// DecodeJSONL parses one JSONL trace line back into an Event.
func DecodeJSONL(line []byte) (Event, error) {
	var w wireEvent
	if err := json.Unmarshal(line, &w); err != nil {
		return Event{}, err
	}
	l, ok := LayerByName(w.Layer)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown layer %q", w.Layer)
	}
	k, ok := KindByName(w.Kind)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown kind %q", w.Kind)
	}
	return Event{
		Seq: w.Seq, Time: w.Time, Layer: l, Kind: k,
		PID: w.PID, Num: w.Num, Num2: w.Num2, Str: w.Str, Str2: w.Str2,
	}, nil
}

// MaybeGzip wraps r in a gzip reader when the stream starts with the
// gzip magic bytes, so trace consumers read .jsonl and .jsonl.gz
// files transparently (flight dumps are gzip by default).
func MaybeGzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		return gzip.NewReader(br)
	}
	if err != nil && err != io.EOF {
		return nil, err
	}
	return br, nil
}

// ReadJSONL decodes a whole trace stream, calling fn per event.
func ReadJSONL(r io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		e, err := DecodeJSONL(line)
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return sc.Err()
}

// textSink re-emits the byte chunks of selected text-carrying kinds.
type textSink struct {
	w       io.Writer
	asserts bool
	err     error
}

// CLIPSText builds a sink that renders the expert engine's CLIPS-style
// printout (rule-fire trace and warning text) to w: the sec.text
// chunks TextWriter published, byte for byte and in order.
func CLIPSText(w io.Writer) Sink { return &textSink{w: w} }

// CLIPSTranscript is CLIPSText plus the Appendix-A.1 assert echo (the
// sec.assert chunks), interleaved in publish order.
func CLIPSTranscript(w io.Writer) Sink { return &textSink{w: w, asserts: true} }

func (s *textSink) Event(e Event) {
	switch e.Kind {
	case KindSecText:
	case KindSecAssert:
		if !s.asserts {
			return
		}
	default:
		return
	}
	if s.err == nil {
		_, s.err = io.WriteString(s.w, e.Str)
	}
}

func (s *textSink) Close() error { return s.err }

// ResetErr clears the sink's sticky error (see ResetErrs).
func (s *textSink) ResetErr() { s.err = nil }

// ErrResetter is implemented by sinks that latch their first write
// error (surfaced through Bus.Close → Result.ObserverErr) and can be
// re-armed for a fresh run. Long-lived sinks shared across pooled
// runs must be reset at run setup, or one run's write failure leaks
// into every later Result on the same sink.
type ErrResetter interface {
	ResetErr()
}

// ResetErrs clears the sticky error of every ErrResetter among the
// given sinks. The run core calls this during setup so
// Result.ObserverErr reflects only the current run.
func ResetErrs(sinks []Sink) {
	for _, s := range sinks {
		if r, ok := s.(ErrResetter); ok {
			r.ResetErr()
		}
	}
}

// TextWriter adapts a publish site that produces text through an
// io.Writer (the expert engine's Out/Echo taps) onto the bus: every
// Write becomes one event of the given kind carrying the exact bytes,
// stamped from the bus clock. The chunks round-trip byte-identically
// through CLIPSText/CLIPSTranscript because writes are forwarded
// unsplit and in order.
func TextWriter(bus *Bus, layer Layer, kind Kind) io.Writer {
	return &textWriter{bus: bus, layer: layer, kind: kind}
}

type textWriter struct {
	bus   *Bus
	layer Layer
	kind  Kind
}

func (t *textWriter) Write(p []byte) (int, error) {
	t.bus.Publish(Event{Layer: t.layer, Kind: t.kind, Str: string(p)})
	return len(p), nil
}

// SinkFunc adapts a function to the Sink interface (no-op Close).
type SinkFunc func(Event)

// Event calls f(e).
func (f SinkFunc) Event(e Event) { f(e) }

// Close is a no-op.
func (f SinkFunc) Close() error { return nil }

// Collector is a Sink that retains every event, for tests and replay
// tooling.
type Collector struct {
	Events []Event
}

// Event appends e.
func (c *Collector) Event(e Event) { c.Events = append(c.Events, e) }

// Close is a no-op.
func (c *Collector) Close() error { return nil }
