package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestBusSequencingAndClock(t *testing.T) {
	var c Collector
	b := NewBus(&c)
	clock := uint64(100)
	b.SetClock(func() uint64 { return clock })

	b.Publish(Event{Layer: LayerVOS, Kind: KindSyscallEnter, PID: 1})
	clock = 200
	b.Publish(Event{Layer: LayerVOS, Kind: KindSyscallExit, PID: 1, Time: 150})
	b.Publish(Event{Layer: LayerHarrier, Kind: KindBBRoll, PID: 2})

	if len(c.Events) != 3 {
		t.Fatalf("events = %d, want 3", len(c.Events))
	}
	for i, e := range c.Events {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	if c.Events[0].Time != 100 {
		t.Errorf("zero Time not stamped from clock: %d", c.Events[0].Time)
	}
	if c.Events[1].Time != 150 {
		t.Errorf("caller-stamped Time overwritten: %d", c.Events[1].Time)
	}
}

func TestNilBusIsDisabled(t *testing.T) {
	var b *Bus
	// The publish-site idiom: one nil-check, no call.
	if n := testing.AllocsPerRun(1000, func() {
		if b != nil {
			b.Publish(Event{Layer: LayerVOS, Kind: KindSyscallEnter})
		}
	}); n != 0 {
		t.Errorf("disabled-bus publish site allocates %v/op", n)
	}
	if err := b.Close(); err != nil {
		t.Errorf("nil bus Close: %v", err)
	}
	if b.Now() != 0 {
		t.Errorf("nil bus Now != 0")
	}
}

func TestEnabledBusZeroAllocForCountingSink(t *testing.T) {
	m := NewMetrics()
	b := NewBus(m)
	e := Event{Layer: LayerVOS, Kind: KindSyscallEnter, PID: 1, Num: 11, Str: "SYS_execve"}
	if n := testing.AllocsPerRun(1000, func() { b.Publish(e) }); n != 0 {
		t.Errorf("enabled bus with Metrics sink allocates %v/op", n)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := JSONL(&buf)
	in := []Event{
		{Seq: 1, Time: 3, Layer: LayerVOS, Kind: KindSyscallEnter, PID: 1, Num: 5, Str: "SYS_open", Str2: "/etc/passwd"},
		{Seq: 2, Time: 3, Layer: LayerSecpert, Kind: KindSecText, Str: "FIRE 1 check_exec\n"},
		{Seq: 3, Time: 9, Layer: LayerChaos, Kind: KindChaosFault, PID: 2, Num: 5, Num2: 1, Str: "read-error", Str2: "/tmp/x"},
	}
	for _, e := range in {
		sink.Event(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var out []Event
	err := ReadJSONL(&buf, func(e Event) error { out = append(out, e); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, out[i], in[i])
		}
	}
}

func TestDecodeJSONLRejectsUnknownNames(t *testing.T) {
	if _, err := DecodeJSONL([]byte(`{"seq":1,"layer":"nope","kind":"metric"}`)); err == nil {
		t.Error("unknown layer accepted")
	}
	if _, err := DecodeJSONL([]byte(`{"seq":1,"layer":"vos","kind":"nope"}`)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestSampling(t *testing.T) {
	var c Collector
	s := Sampling(3, &c)
	for i := 1; i <= 10; i++ {
		s.Event(Event{Seq: uint64(i)})
	}
	if len(c.Events) != 3 {
		t.Fatalf("forwarded %d events, want 3", len(c.Events))
	}
	for i, want := range []uint64{3, 6, 9} {
		if c.Events[i].Seq != want {
			t.Errorf("sample %d: Seq = %d, want %d", i, c.Events[i].Seq, want)
		}
	}
	if Sampling(1, &c) != Sink(&c) {
		t.Error("Sampling(1) should return the sink unchanged")
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	for _, e := range []Event{
		{Layer: LayerVOS, Kind: KindSyscallEnter, Num: 11, Str: "SYS_execve"},
		{Layer: LayerVOS, Kind: KindSyscallEnter, Num: 11, Str: "SYS_execve"},
		{Layer: LayerSecpert, Kind: KindRuleFire, Num: 1, Str: "check_exec"},
		{Layer: LayerSecpert, Kind: KindWarning, Num: 0, Str: "check_exec"},
		{Layer: LayerChaos, Kind: KindChaosFault, Num: 5, Str: "read-error"},
		{Layer: LayerHarrier, Kind: KindTaintSample, Num: 100, Num2: 80},
		{Layer: LayerHarrier, Kind: KindTaintTLB, Num: 1000, Num2: 100},
		{Layer: LayerRun, Kind: KindMetricBucket, Str: "taint.width", Num: 1, Num2: 7},
		{Layer: LayerRun, Kind: KindMetricBucket, Str: "taint.width", Num: 3, Num2: 2},
		{Layer: LayerRun, Kind: KindMetric, Str: "harrier.blocks", Num: 42},
		{Layer: LayerRun, Kind: KindRunEnd, Num: 2_000_000, Num2: 1_000_000_000},
	} {
		m.Event(e)
	}
	s := m.Snapshot()

	for name, want := range map[string]uint64{
		"events.syscall.enter": 2,
		"syscall.SYS_execve":   2,
		"rule.check_exec":      1,
		"warning.check_exec":   1,
		"chaos.read-error":     1,
	} {
		if got := s.Counters[name]; got != want {
			t.Errorf("Counters[%q] = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]float64{
		"guest_instrs_per_sec":       2_000_000,
		"taint.union_cache_hit_rate": 0.8,
		"taint.tlb_hit_rate":         0.9,
		"harrier.blocks":             42,
	} {
		if got := s.Gauges[name]; got != want {
			t.Errorf("Gauges[%q] = %v, want %v", name, got, want)
		}
	}
	widths := s.Hists["taint.width"]
	if len(widths) != 2 || widths[0] != (Bucket{1, 7}) || widths[1] != (Bucket{3, 2}) {
		t.Errorf("taint.width hist = %v", widths)
	}
}

func TestTextSinksFilterKinds(t *testing.T) {
	var text, transcript strings.Builder
	ct := CLIPSText(&text)
	tr := CLIPSTranscript(&transcript)
	for _, e := range []Event{
		{Kind: KindSecText, Str: "FIRE 1 rule\n"},
		{Kind: KindSecAssert, Str: "CLIPS> (assert ...)\n"},
		{Kind: KindSyscallEnter, Str: "SYS_open"},
	} {
		ct.Event(e)
		tr.Event(e)
	}
	if text.String() != "FIRE 1 rule\n" {
		t.Errorf("CLIPSText rendered %q", text.String())
	}
	if transcript.String() != "FIRE 1 rule\nCLIPS> (assert ...)\n" {
		t.Errorf("CLIPSTranscript rendered %q", transcript.String())
	}
}

func TestNamesRoundTrip(t *testing.T) {
	for l := Layer(0); l < numLayers; l++ {
		got, ok := LayerByName(l.String())
		if !ok || got != l {
			t.Errorf("LayerByName(%q) = %v, %v", l.String(), got, ok)
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
}
