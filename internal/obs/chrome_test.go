package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestChromeTraceEscapesStrings feeds a control byte and an invalid
// UTF-8 byte through both Chrome exports. Trace IDs reach the span
// writer from outside the program (a replayed JSONL file, a job tag),
// and source labels name guest files, so the output must stay valid
// JSON whatever they hold. The control byte must survive exactly; the
// invalid byte decodes as U+FFFD, as encoding/json renders it.
func TestChromeTraceEscapesStrings(t *testing.T) {
	const raw, want = "j\x01<&>\"\\\xff", "j\x01<&>\"\\\ufffd"

	var buf bytes.Buffer
	traces := map[string][]Span{raw: {{ID: 1, Name: "exec" + raw, Start: 1500, End: 4250, Status: "ok"}}}
	if err := WriteChromeSpans(&buf, traces, 0); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("span trace is not valid JSON:\n%s", buf.Bytes())
	}
	var spans struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Trace string `json:"trace"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans.TraceEvents) != 1 {
		t.Fatalf("got %d events, want 1", len(spans.TraceEvents))
	}
	ev := spans.TraceEvents[0]
	if ev.Args.Trace != want || ev.Name != "exec"+want {
		t.Errorf("trace %q, name %q: want %q, %q", ev.Args.Trace, ev.Name, want, "exec"+want)
	}
	if ev.TS != 1.5 || ev.Dur != 2.75 {
		t.Errorf("ts %v dur %v, want 1.5 2.75", ev.TS, ev.Dur)
	}

	buf.Reset()
	p := NewProvenance(0)
	p.Entry(p.Intern(raw), 3, 1, "read fd 3")
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("provenance trace is not valid JSON:\n%s", buf.Bytes())
	}
	var prov struct {
		TraceEvents []struct {
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &prov); err != nil {
		t.Fatal(err)
	}
	if len(prov.TraceEvents) != 2 || prov.TraceEvents[0].Args.Name != want {
		t.Errorf("provenance events %+v, want a thread_name of %q first", prov.TraceEvents, want)
	}
}
