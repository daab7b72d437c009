package obs

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func startTestIntro(t *testing.T) *Introspection {
	t.Helper()
	in := NewIntrospection()
	if err := in.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Shutdown() })
	return in
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestIntrospectionMetricsEndpoint(t *testing.T) {
	in := startTestIntro(t)
	in.Event(Event{Kind: KindSyscallEnter, Str: "SYS_read"})
	in.Event(Event{Kind: KindSyscallEnter, Str: "SYS_read"})
	in.Event(Event{Kind: KindWarning, Str: "found-exec"})

	code, body, hdr := get(t, "http://"+in.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		`hth_syscalls_total{name="SYS_read"} 2`,
		`hth_warnings_total{rule="found-exec"} 1`,
		"# TYPE hth_events_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestIntrospectionFlightEndpoint(t *testing.T) {
	in := startTestIntro(t)
	in.Event(Event{Seq: 1, Layer: LayerVOS, Kind: KindSyscallEnter, Str: "SYS_read"})
	in.Event(Event{Seq: 2, Layer: LayerSecpert, Kind: KindWarning, Str: "r"})

	code, body, hdr := get(t, "http://"+in.Addr()+"/flight")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []Event
	if err := ReadJSONL(strings.NewReader(body), func(e Event) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Seq != 1 || events[1].Seq != 2 {
		t.Fatalf("flight replay = %+v", events)
	}

	// Gzip flavour decodes to the same stream.
	code, gzBody, _ := get(t, "http://"+in.Addr()+"/flight?gz=1")
	if code != http.StatusOK {
		t.Fatalf("gz status = %d", code)
	}
	r, err := MaybeGzip(strings.NewReader(gzBody))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ReadJSONL(r, func(Event) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("gz flight replayed %d events, want 2", n)
	}
}

func TestIntrospectionEventsStream(t *testing.T) {
	in := startTestIntro(t)

	req, err := http.NewRequest("GET", "http://"+in.Addr()+"/events?kind=warning&rule=found-exec", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Publish after the subscription is live; the filtered stream must
	// carry only the matching warning.
	deadline := time.After(5 * time.Second)
	lines := make(chan string, 1)
	go func() {
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if strings.HasPrefix(line, "data: ") {
				lines <- strings.TrimSpace(strings.TrimPrefix(line, "data: "))
				return
			}
		}
	}()
	// The subscriber registers inside the handler goroutine; publish
	// until the line arrives.
	for {
		in.Event(Event{Seq: 7, Kind: KindSyscallEnter, Str: "SYS_read"})
		in.Event(Event{Seq: 8, Kind: KindWarning, Str: "other-rule"})
		in.Event(Event{Seq: 9, Time: 42, Layer: LayerSecpert, Kind: KindWarning, Str: "found-exec"})
		select {
		case got := <-lines:
			e, err := DecodeJSONL([]byte(got))
			if err != nil {
				t.Fatalf("stream line %q: %v", got, err)
			}
			if e.Kind != KindWarning || e.Str != "found-exec" {
				t.Fatalf("streamed event = %+v, want the filtered warning", e)
			}
			return
		case <-deadline:
			t.Fatal("no SSE line within deadline")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestIntrospectionEventsBadFilter(t *testing.T) {
	in := startTestIntro(t)
	code, _, _ := get(t, "http://"+in.Addr()+"/events?layer=bogus")
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
}

func TestIntrospectionPprofAndIndex(t *testing.T) {
	in := startTestIntro(t)
	code, body, _ := get(t, "http://"+in.Addr()+"/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", code, body)
	}
	code, body, _ = get(t, "http://"+in.Addr()+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("pprof cmdline: %d", code)
	}
	code, _, _ = get(t, "http://"+in.Addr()+"/nope")
	if code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", code)
	}
}

func TestIntrospectionStartErrors(t *testing.T) {
	in := startTestIntro(t)
	if err := in.Start("127.0.0.1:0"); err == nil {
		t.Fatal("second Start succeeded")
	}
	in2 := NewIntrospection()
	if err := in2.Start(in.Addr()); err == nil {
		in2.Shutdown()
		t.Fatal("Start on an occupied address succeeded")
	}
	// Shutdown makes the instance restartable.
	if err := in.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := in.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("restart after Shutdown: %v", err)
	}
}

// failWriter errors on every write.
type failWriter struct{ calls int }

var errSink = errors.New("disk full")

func (f *failWriter) Write(p []byte) (int, error) { f.calls++; return 0, errSink }

// TestJSONLSurfacesWriteError is the failing-writer satellite: a sink
// whose writer dies mid-run must report it on Close, not produce a
// silently empty trace.
func TestJSONLSurfacesWriteError(t *testing.T) {
	fw := &failWriter{}
	s := JSONL(fw)
	// Enough events to overflow the 4 KiB buffer mid-run.
	for i := 0; i < 200; i++ {
		s.Event(Event{Seq: uint64(i), Layer: LayerVOS, Kind: KindSyscallEnter, Str: "SYS_read_with_padding_payload"})
	}
	err := s.Close()
	if !errors.Is(err, errSink) {
		t.Fatalf("Close = %v, want %v", err, errSink)
	}
	if fw.calls != 1 {
		t.Fatalf("writer called %d times after first error, want 1 (sticky error)", fw.calls)
	}
	// Idempotent: a second Close reports the same error.
	if err := s.Close(); !errors.Is(err, errSink) {
		t.Fatalf("second Close = %v", err)
	}
}

func TestIntrospectionSlowSubscriberDrops(t *testing.T) {
	in := NewIntrospection()
	id, _ := in.subscribe()
	defer in.unsubscribe(id)
	// Never drain: the 1024-cap channel fills and publishes drop.
	for i := 0; i < 1500; i++ {
		in.Event(Event{Seq: uint64(i)})
	}
	if d := in.metrics.Snapshot().Counters["sse_slow_dropped"]; d != 1500-1024 {
		t.Fatalf("dropped = %d, want %d", d, 1500-1024)
	}
}
