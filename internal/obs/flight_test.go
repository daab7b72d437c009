package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestFlightRingWrap(t *testing.T) {
	f := NewFlight(4)
	if n := len(f.buf); n != 4 {
		t.Fatalf("ring size = %d, want 4", n)
	}
	for i := 1; i <= 10; i++ {
		f.Event(Event{Seq: uint64(i), Kind: KindSyscallEnter})
	}
	if f.total != 10 {
		t.Fatalf("total = %d, want 10", f.total)
	}
	got := f.Snapshot()
	if len(got) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(got))
	}
	// Oldest first: 7, 8, 9, 10.
	for i, e := range got {
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("Snapshot[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestFlightPartialFill(t *testing.T) {
	f := NewFlight(8)
	f.Event(Event{Seq: 1})
	f.Event(Event{Seq: 2})
	got := f.Snapshot()
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("Snapshot = %+v, want seqs [1 2]", got)
	}
}

func TestFlightDefaultSize(t *testing.T) {
	if n := len(NewFlight(0).buf); n != DefaultFlightSize {
		t.Fatalf("default size = %d, want %d", n, DefaultFlightSize)
	}
}

func TestFlightEventAllocFree(t *testing.T) {
	f := NewFlight(16)
	e := Event{Seq: 1, Layer: LayerVOS, Kind: KindSyscallEnter, Str: "SYS_read"}
	if allocs := testing.AllocsPerRun(200, func() { f.Event(e) }); allocs != 0 {
		t.Fatalf("Flight.Event allocates %.1f times per call, want 0", allocs)
	}
}

func TestFlightGzipRoundTrip(t *testing.T) {
	f := NewFlight(8)
	want := []Event{
		{Seq: 1, Time: 10, Layer: LayerVOS, Kind: KindSyscallEnter, PID: 1, Str: "SYS_read"},
		{Seq: 2, Time: 20, Layer: LayerSecpert, Kind: KindWarning, PID: 1, Str: "rule-x", Str2: "msg"},
	}
	for _, e := range want {
		f.Event(e)
	}
	var buf bytes.Buffer
	if err := f.WriteGzip(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := MaybeGzip(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	if err := ReadJSONL(r, func(e Event) error { got = append(got, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFlightDumpFileReplayable(t *testing.T) {
	f := NewFlight(8)
	f.Event(Event{Seq: 1, Kind: KindRunStart, Str: "/bin/x"})
	path := filepath.Join(t.TempDir(), "flight.jsonl.gz")
	if err := f.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	r, err := MaybeGzip(file)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ReadJSONL(r, func(e Event) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("dump replayed %d events, want 1", n)
	}
}

// MaybeGzip must pass plain streams through untouched.
func TestMaybeGzipPlain(t *testing.T) {
	f := NewFlight(4)
	f.Event(Event{Seq: 5, Kind: KindSyscallEnter, Str: "SYS_read"})
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := MaybeGzip(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ReadJSONL(r, func(e Event) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d events, want 1", n)
	}
}
