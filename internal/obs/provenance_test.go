package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestProvenanceInternStable(t *testing.T) {
	p := NewProvenance(0)
	a := p.Intern(`FILE:"/etc/passwd"`)
	b := p.Intern(`SOCKET:"evil.com"`)
	if a == b {
		t.Fatal("distinct labels shared an ID")
	}
	if again := p.Intern(`FILE:"/etc/passwd"`); again != a {
		t.Fatalf("re-intern changed ID: %d != %d", again, a)
	}
	if n := len(p.Traces()); n != 2 {
		t.Fatalf("%d traces, want 2", n)
	}
}

func TestProvenanceChainRendering(t *testing.T) {
	p := NewProvenance(0)
	id := p.Intern(`SOCKET:"evil.com"`)
	p.Entry(id, 1041, 1, "read fd 4")
	for i := 0; i < 312; i++ {
		p.Block(id, 1100, 1, 0x4012a0, "/bin/x", true)
	}
	p.Exit(id, 2210, 1, "write fd 1")
	want := `SOCKET:"evil.com" → read fd 4 @t=1041 → bb 0x4012a0 (tier ×312) → write fd 1 @t=2210`
	if got, _ := p.ChainOf(`SOCKET:"evil.com"`); got != want {
		t.Fatalf("Chain:\n got %q\nwant %q", got, want)
	}
}

func TestProvenanceConsecutiveMerge(t *testing.T) {
	p := NewProvenance(0)
	id := p.Intern("X")
	p.Block(id, 1, 1, 0x10, "img", false)
	p.Block(id, 2, 1, 0x10, "img", false)
	p.Block(id, 3, 1, 0x20, "img", false)
	p.Block(id, 4, 1, 0x10, "img", false)
	tr := p.Traces()[0]
	if len(tr.Hops) != 3 {
		t.Fatalf("hops = %d, want 3 (merged run, then 0x20, then 0x10 again)", len(tr.Hops))
	}
	if tr.Hops[0].Count != 2 {
		t.Fatalf("first hop count = %d, want 2", tr.Hops[0].Count)
	}
	// A tier-flag change breaks the merge: interp and trace
	// sightings of the same block stay distinguishable.
	p.Block(id, 5, 1, 0x10, "img", true)
	if tr := p.Traces()[0]; len(tr.Hops) != 4 {
		t.Fatalf("hops after tier flip = %d, want 4", len(tr.Hops))
	}
}

func TestProvenanceHopBoundKeepsEndpoints(t *testing.T) {
	p := NewProvenance(4)
	id := p.Intern("X")
	p.Entry(id, 1, 1, "read fd 3")
	for i := 0; i < 10; i++ {
		p.Block(id, uint64(i+2), 1, uint32(0x100+16*i), "img", false)
	}
	p.Exit(id, 99, 1, "write fd 1")
	tr := p.Traces()[0]
	interior := 0
	for _, h := range tr.Hops {
		if h.Kind == HopBlock || h.Kind == HopXfer {
			interior++
		}
	}
	if interior != 4 {
		t.Fatalf("interior hops = %d, want 4 (bounded)", interior)
	}
	if tr.Dropped != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped)
	}
	if first, last := tr.Hops[0].Kind, tr.Hops[len(tr.Hops)-1].Kind; first != HopEntry || last != HopExit {
		t.Fatalf("endpoints = %v..%v, want entry..exit", first, last)
	}
	if ch, _ := p.ChainOf("X"); !strings.Contains(ch, "[+6 hops elided]") {
		t.Fatalf("chain does not note elided hops: %q", ch)
	}
}

func TestProvenanceEnsureEntry(t *testing.T) {
	p := NewProvenance(0)
	id := p.Intern(`BINARY:"/bin/x"`)
	p.EnsureEntry(id, 4, 1, "image map")
	p.EnsureEntry(id, 9, 1, "image map") // no-op: trace already has hops
	p.Block(id, 10, 1, 0x40, "/bin/x", false)
	p.EnsureEntry(id, 11, 1, "image map") // still a no-op
	tr := p.Traces()[0]
	if len(tr.Hops) != 2 || tr.Hops[0].Kind != HopEntry || tr.Hops[0].Time != 4 {
		t.Fatalf("hops = %+v, want [entry@4 block]", tr.Hops)
	}
}

func TestProvenanceChainOf(t *testing.T) {
	p := NewProvenance(0)
	p.Entry(p.Intern("A"), 1, 1, "read fd 3")
	if _, ok := p.ChainOf("B"); ok {
		t.Fatal("ChainOf reported an unseen label")
	}
	ch, ok := p.ChainOf("A")
	if !ok || !strings.HasPrefix(ch, "A → ") {
		t.Fatalf("ChainOf(A) = %q, %v", ch, ok)
	}
}

func TestProvenanceChromeTrace(t *testing.T) {
	p := NewProvenance(0)
	id := p.Intern(`FILE:"/x"`)
	p.Entry(id, 5, 1, "read fd 3")
	p.Block(id, 6, 1, 0x4000, "/bin/x", true)
	p.Block(id, 7, 1, 0x4000, "/bin/x", true)
	p.Exit(id, 8, 1, "write fd 1")

	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    uint64         `json:"ts"`
			TID   uint64         `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// One thread_name metadata record plus three hop instants.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("traceEvents = %d, want 4", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Phase != "M" || doc.TraceEvents[0].Args["name"] != `FILE:"/x"` {
		t.Fatalf("metadata record = %+v", doc.TraceEvents[0])
	}
	bb := doc.TraceEvents[2]
	if bb.Phase != "i" || bb.Name != fmt.Sprintf("bb 0x%x", 0x4000) {
		t.Fatalf("block instant = %+v", bb)
	}
	if bb.Args["tier"] != true || bb.Args["count"] != float64(2) {
		t.Fatalf("block args = %+v, want tier=true count=2", bb.Args)
	}
}

func TestParseFilter(t *testing.T) {
	f, err := ParseFilter("vos", "syscall.enter", "1", "")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Match(Event{Layer: LayerVOS, Kind: KindSyscallEnter, PID: 1}) {
		t.Fatal("filter rejected a matching event")
	}
	if f.Match(Event{Layer: LayerVOS, Kind: KindSyscallEnter, PID: 2}) {
		t.Fatal("filter accepted a wrong pid")
	}
	if f.Match(Event{Layer: LayerHarrier, Kind: KindSyscallEnter, PID: 1}) {
		t.Fatal("filter accepted a wrong layer")
	}
	if _, err := ParseFilter("nope", "", "", ""); err == nil {
		t.Fatal("unknown layer accepted")
	}
	if _, err := ParseFilter("", "nope", "", ""); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ParseFilter("", "", "abc", ""); err == nil {
		t.Fatal("bad pid accepted")
	}
	rf, err := ParseFilter("", "", "", "my-rule")
	if err != nil {
		t.Fatal(err)
	}
	if !rf.Match(Event{Kind: KindWarning, Str: "my-rule"}) {
		t.Fatal("rule filter rejected its warning")
	}
	if rf.Match(Event{Kind: KindSyscallEnter, Str: "my-rule"}) {
		t.Fatal("rule filter accepted a non-rule event")
	}
}
