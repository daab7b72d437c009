package obs

import (
	"compress/gzip"
	"io"
	"os"
	"sync"
)

// DefaultFlightSize is the ring capacity applied when NewFlight is
// given a non-positive size.
const DefaultFlightSize = 4096

// Flight is the flight recorder: a fixed-size ring buffer Sink that
// retains the last N events of every layer. The ring is preallocated
// at construction, so recording is allocation-free — the always-on
// post-mortem sink costs one mutexed store per event — and a dump on
// rule fire, guest fault, chaos containment, or deadline replays the
// final stretch of causality.
//
// Unlike most sinks, a Flight is safe for concurrent use: its methods
// lock. A run's ring is written by its bus and read by the run's own
// dump once the run ends.
type Flight struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
}

// NewFlight builds a recorder holding the last n events (n <= 0
// applies DefaultFlightSize).
func NewFlight(n int) *Flight {
	if n <= 0 {
		n = DefaultFlightSize
	}
	return &Flight{buf: make([]Event, n)}
}

// Event stores e in the ring, evicting the oldest event when full.
func (f *Flight) Event(e Event) {
	f.mu.Lock()
	f.buf[f.next] = e
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
	}
	f.total++
	f.mu.Unlock()
}

// Close is a no-op; the ring stays readable after the run.
func (f *Flight) Close() error { return nil }

// Snapshot copies the retained events in arrival order, oldest first.
func (f *Flight) Snapshot() []Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.buf)
	held := int(f.total)
	if f.total >= uint64(n) {
		held = n
	}
	out := make([]Event, 0, held)
	start := 0
	if held == n {
		start = f.next
	}
	for i := 0; i < held; i++ {
		out = append(out, f.buf[(start+i)%n])
	}
	return out
}

// WriteJSONL writes the retained events to w as JSON Lines — the same
// wire form the JSONL observer produces, so a flight dump replays with
// `hth-trace -replay`.
func (f *Flight) WriteJSONL(w io.Writer) error {
	for _, e := range f.Snapshot() {
		if err := writeWireEvent(w, e); err != nil {
			return err
		}
	}
	return nil
}

// WriteGzip writes the retained events as gzip-compressed JSONL (the
// default flight-dump encoding; hth-trace reads it transparently).
func (f *Flight) WriteGzip(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if err := f.WriteJSONL(zw); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

// DumpFile writes a gzip JSONL dump to path (created or truncated).
func (f *Flight) DumpFile(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WriteGzip(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
