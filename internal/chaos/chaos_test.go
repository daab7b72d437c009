package chaos

import (
	"reflect"
	"testing"

	"repro/internal/vos"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("42,0.25")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || p.Rate != 0.25 || len(p.Only) != 0 {
		t.Errorf("plan = %+v", p)
	}
	p, err = ParsePlan("0xdead, 0.5, read, netdrop")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 0xdead || !p.Enabled(ReadErr) || !p.Enabled(NetDrop) || p.Enabled(WriteErr) {
		t.Errorf("plan = %+v", p)
	}

	for _, bad := range []string{"", "7", "x,0.5", "7,nan", "7,1.5", "7,-0.1", "7,0.5,bogus"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	for _, s := range []string{"42,0.25", "7,0", "1,1,accept,connect", "99,0.125,shortread"} {
		p, err := ParsePlan(s)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", p.String(), err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Errorf("round trip %q -> %q: %+v vs %+v", s, p.String(), p, p2)
		}
	}
}

func TestKindRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindByName("bogus"); ok {
		t.Error("KindByName accepted bogus")
	}
}

// drive pushes a fixed mixed stream of decision points through an
// injector and returns the resulting fault log.
func drive(in *Injector) []Fault {
	for i := 0; i < 200; i++ {
		in.SyscallFault(vos.FaultPoint{PID: 1, Num: vos.SysRead, FD: 3, Clock: uint64(i)})
		in.SyscallFault(vos.FaultPoint{PID: 1, Num: vos.SysOpen, Path: "/tmp/x", Clock: uint64(i)})
		in.SyscallFault(vos.FaultPoint{PID: 2, Num: vos.SysSocketcall, Sock: vos.SockConnect, FD: 4, Clock: uint64(i)})
		in.ShortRead(vos.FaultPoint{PID: 1, Num: vos.SysRead, FD: 3, Clock: uint64(i)}, 128)
		in.ScheduledConnect(uint64(i), "10.0.0.1:81")
		in.DropRemote("10.0.0.9:80", 32)
	}
	return in.Faults()
}

func TestInjectorDeterministic(t *testing.T) {
	p := Plan{Seed: 1234, Rate: 0.2}
	a, b := drive(New(p)), drive(New(p))
	if len(a) == 0 {
		t.Fatal("rate 0.2 over 1200 points injected nothing")
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same plan, different fault streams")
	}
	c := drive(New(Plan{Seed: 1235, Rate: 0.2}))
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, identical fault streams")
	}
}

func TestZeroRateInjectsNothing(t *testing.T) {
	in := New(Plan{Seed: 77, Rate: 0})
	if got := drive(in); len(got) != 0 {
		t.Errorf("zero-rate injector fired %d faults", len(got))
	}
	// Every decision point must also leave guest-visible results
	// untouched: ShortRead returns want, SyscallFault never fires.
	if n := in.ShortRead(vos.FaultPoint{Num: vos.SysRead}, 64); n != 64 {
		t.Errorf("zero-rate ShortRead clamped to %d", n)
	}
	if _, ok := in.SyscallFault(vos.FaultPoint{Num: vos.SysWrite}); ok {
		t.Error("zero-rate SyscallFault fired")
	}
}

func TestKindRestriction(t *testing.T) {
	p, err := ParsePlan("9,1,shortread")
	if err != nil {
		t.Fatal(err)
	}
	faults := drive(New(p))
	if len(faults) == 0 {
		t.Fatal("rate-1 restricted plan injected nothing")
	}
	for _, f := range faults {
		if f.Kind != ShortRead {
			t.Fatalf("restricted plan injected %v", f)
		}
	}
}

func TestErrnoMapping(t *testing.T) {
	in := New(Plan{Seed: 5, Rate: 1})
	cases := []struct {
		fp   vos.FaultPoint
		want []uint32
	}{
		{vos.FaultPoint{Num: vos.SysRead}, []uint32{vos.EIO}},
		{vos.FaultPoint{Num: vos.SysWrite}, []uint32{vos.EIO}},
		{vos.FaultPoint{Num: vos.SysOpen}, []uint32{vos.EIO, vos.ENOMEM}},
		{vos.FaultPoint{Num: vos.SysCreat}, []uint32{vos.EIO, vos.ENOMEM}},
		{vos.FaultPoint{Num: vos.SysSocketcall, Sock: vos.SockConnect}, []uint32{vos.ECONN}},
		{vos.FaultPoint{Num: vos.SysSocketcall, Sock: vos.SockAccept}, []uint32{vos.ECONNABORT}},
	}
	for _, c := range cases {
		e, ok := in.SyscallFault(c.fp)
		if !ok {
			t.Fatalf("rate-1 injector skipped %+v", c.fp)
		}
		legal := false
		for _, w := range c.want {
			legal = legal || e == w
		}
		if !legal {
			t.Errorf("fault point %+v -> errno %d, want one of %v", c.fp, e, c.want)
		}
	}
	// Untargeted calls are never failed, even at rate 1.
	if _, ok := in.SyscallFault(vos.FaultPoint{Num: vos.SysClose}); ok {
		t.Error("injector failed an untargeted syscall")
	}
}

func TestShortReadBounds(t *testing.T) {
	in := New(Plan{Seed: 11, Rate: 1})
	for i := 0; i < 500; i++ {
		want := uint32(2 + i%1000)
		n := in.ShortRead(vos.FaultPoint{Num: vos.SysRead}, want)
		if n < 1 || n >= want {
			t.Fatalf("ShortRead(%d) = %d, want 1 <= n < want", want, n)
		}
	}
	// A 1-byte read is never clamped to zero.
	if n := in.ShortRead(vos.FaultPoint{Num: vos.SysRead}, 1); n != 1 {
		t.Errorf("ShortRead(1) = %d", n)
	}
}

func TestDeriveOrderInsensitive(t *testing.T) {
	p := Plan{Seed: 42, Rate: 0.3}
	a1 := drive(New(p.Derive("scenario-a")))
	b1 := drive(New(p.Derive("scenario-b")))
	// Reverse construction order: per-scenario streams are unchanged.
	b2 := drive(New(p.Derive("scenario-b")))
	a2 := drive(New(p.Derive("scenario-a")))
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) {
		t.Error("Derive streams depend on construction order")
	}
	if reflect.DeepEqual(a1, b1) {
		t.Error("distinct scenarios share a fault stream")
	}
	if d := p.Derive("x"); d.Rate != p.Rate || d.Seed == p.Seed {
		t.Errorf("Derive = %+v", d)
	}
}

func TestFaultSeqAndString(t *testing.T) {
	in := New(Plan{Seed: 3, Rate: 1})
	drive(in)
	for i, f := range in.Faults() {
		if f.Seq != i {
			t.Fatalf("fault %d has Seq %d", i, f.Seq)
		}
		if f.String() == "" {
			t.Fatal("empty fault string")
		}
	}
}

func TestServiceFaultKinds(t *testing.T) {
	// Rate 1 with only service kinds enabled: every decision point
	// fires and is recorded with its job id.
	in := New(Plan{Seed: 11, Rate: 1,
		Only: []Kind{WorkerCrash, QueueStall, SlowReader, BadJobSpec}})
	if !in.JobSpecCorrupt("j1") {
		t.Fatal("JobSpecCorrupt did not fire at rate 1")
	}
	if ms, ok := in.QueueStall("j1"); !ok || ms < 1 || ms > maxStallMS {
		t.Fatalf("QueueStall = (%d, %v)", ms, ok)
	}
	if !in.WorkerCrash("j1", "pre") {
		t.Fatal("WorkerCrash did not fire at rate 1")
	}
	if ms, ok := in.SlowReader("j1"); !ok || ms < 1 || ms > maxSlowReaderMS {
		t.Fatalf("SlowReader = (%d, %v)", ms, ok)
	}
	fs := in.Faults()
	if len(fs) != 4 {
		t.Fatalf("recorded %d faults, want 4", len(fs))
	}
	wantKinds := []Kind{BadJobSpec, QueueStall, WorkerCrash, SlowReader}
	for i, f := range fs {
		if f.Kind != wantKinds[i] {
			t.Errorf("fault %d kind = %s, want %s", i, f.Kind, wantKinds[i])
		}
	}
	if fs[2].Path != "j1/pre" {
		t.Errorf("WorkerCrash path = %q, want j1/pre", fs[2].Path)
	}
}

func TestServiceFaultsDeterministicPerJob(t *testing.T) {
	plan := Plan{Seed: 0xC0FFEE, Rate: 0.5,
		Only: []Kind{WorkerCrash, QueueStall, BadJobSpec}}
	stream := func() []string {
		var out []string
		for _, id := range []string{"j1", "j2", "j3", "j4"} {
			in := New(plan.Derive(id))
			if in.JobSpecCorrupt(id) {
				out = append(out, id+":badspec")
			}
			for attempt := 0; attempt < 3; attempt++ {
				if _, ok := in.QueueStall(id); ok {
					out = append(out, id+":stall")
				}
				if in.WorkerCrash(id, "pre") {
					out = append(out, id+":crash")
				}
			}
		}
		return out
	}
	a, b := stream(), stream()
	if len(a) == 0 {
		t.Fatal("rate-0.5 plan fired nothing across 4 jobs")
	}
	if len(a) != len(b) {
		t.Fatalf("fault streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault stream diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestServiceFaultsZeroRateInert(t *testing.T) {
	in := New(Plan{Seed: 7, Rate: 0})
	if in.JobSpecCorrupt("j") || in.WorkerCrash("j", "pre") {
		t.Fatal("zero-rate plan fired a service fault")
	}
	if _, ok := in.QueueStall("j"); ok {
		t.Fatal("zero-rate plan fired a queue stall")
	}
	if _, ok := in.SlowReader("j"); ok {
		t.Fatal("zero-rate plan fired a slow reader")
	}
	if n := len(in.Faults()); n != 0 {
		t.Fatalf("zero-rate plan recorded %d faults", n)
	}
}
