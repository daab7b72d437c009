package vos

import (
	"testing"
)

type echoRemote struct{ greeted bool }

func (e *echoRemote) OnConnect(c *RemoteConn) {
	e.greeted = true
	c.Send([]byte("hi"))
}
func (e *echoRemote) OnData(c *RemoteConn, data []byte) { c.Send(data) }

func TestNetworkResolveHost(t *testing.T) {
	n := NewNetwork()
	n.AddHost("mail.example", "10.0.0.9")
	if a, ok := n.ResolveHost("mail.example"); !ok || a != "10.0.0.9" {
		t.Errorf("resolve = %q, %v", a, ok)
	}
	if a, ok := n.ResolveHost("localhost"); !ok || a != "127.0.0.1" {
		t.Errorf("localhost = %q", a)
	}
	// Numeric addresses resolve to themselves.
	if a, ok := n.ResolveHost("1.2.3.4"); !ok || a != "1.2.3.4" {
		t.Errorf("numeric = %q", a)
	}
	if _, ok := n.ResolveHost("nope.example"); ok {
		t.Error("unknown host resolved")
	}
	if _, ok := n.ResolveHost(""); ok {
		t.Error("empty host resolved")
	}
}

func TestNetworkConnectToRemote(t *testing.T) {
	n := NewNetwork()
	script := &echoRemote{}
	n.AddRemote("svc:80", func() RemoteScript { return script })
	conn, err := n.Connect("svc:80")
	if err != nil {
		t.Fatal(err)
	}
	if !script.greeted {
		t.Error("OnConnect not called")
	}
	if !conn.Readable() || string(conn.Read(16)) != "hi" {
		t.Error("greeting not delivered")
	}
	// Echo round trip.
	conn.Write([]byte("ping"))
	if got := string(conn.Read(16)); got != "ping" {
		t.Errorf("echo = %q", got)
	}
}

func TestNetworkConnectRefused(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Connect("nobody:1"); err == nil {
		t.Error("connect to nothing succeeded")
	}
}

func TestNetworkBindConflict(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Bind("host:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Bind("host:1"); err == nil {
		t.Error("double bind succeeded")
	}
	n.Unbind("host:1")
	if _, err := n.Bind("host:1"); err != nil {
		t.Error("rebind after unbind failed")
	}
}

func TestNetworkGuestToGuestConnect(t *testing.T) {
	n := NewNetwork()
	l, _ := n.Bind("srv:9")
	conn, err := n.Connect("srv:9")
	if err != nil {
		t.Fatal(err)
	}
	if len(l.pending) != 1 {
		t.Fatal("no pending connection at the listener")
	}
	server := l.pending[0]
	conn.Write([]byte("abc"))
	if got := string(server.Read(8)); got != "abc" {
		t.Errorf("server read %q", got)
	}
	server.Write([]byte("ok"))
	if got := string(conn.Read(8)); got != "ok" {
		t.Errorf("client read %q", got)
	}
}

func TestConnEOFSemantics(t *testing.T) {
	n := NewNetwork()
	a, b := n.pair("a:1", "b:1")
	a.Write([]byte("last words"))
	a.Close()
	// b drains buffered data, then sees EOF.
	if !b.Readable() {
		t.Fatal("buffered data not readable")
	}
	if got := string(b.Read(32)); got != "last words" {
		t.Errorf("read = %q", got)
	}
	if !b.Readable() {
		t.Error("EOF not readable")
	}
	if got := b.Read(8); len(got) != 0 {
		t.Errorf("read after EOF = %q", got)
	}
	// Writing to a closed peer fails.
	if b.Write([]byte("x")) != -1 {
		t.Error("write to closed peer succeeded")
	}
}

func TestConnReadablePartial(t *testing.T) {
	n := NewNetwork()
	a, b := n.pair("a:1", "b:1")
	if b.Readable() {
		t.Error("empty open conn readable")
	}
	a.Write([]byte("xy"))
	if got := string(b.Read(1)); got != "x" {
		t.Errorf("partial read = %q", got)
	}
	if got := string(b.Read(8)); got != "y" {
		t.Errorf("remainder = %q", got)
	}
}

func TestScheduledConnectWaitsForListener(t *testing.T) {
	n := NewNetwork()
	script := &echoRemote{}
	n.ScheduleConnect(100, "late:1", "peer:2", script)
	// Before the listener exists, ticking past the deadline retries.
	n.Tick(200)
	if script.greeted {
		t.Fatal("connected without a listener")
	}
	if len(n.scheduled) == 0 {
		t.Fatal("scheduled connect dropped")
	}
	l, _ := n.Bind("late:1")
	n.Tick(300)
	if !script.greeted {
		t.Fatal("scheduled connect did not fire")
	}
	if len(l.pending) != 1 {
		t.Fatal("listener did not receive the connection")
	}
	if len(n.scheduled) != 0 {
		t.Error("scheduled connect not consumed")
	}
	// Addressing: the accepted endpoint names the remote peer.
	if l.pending[0].RemoteAddr != "peer:2" {
		t.Errorf("remote addr = %q", l.pending[0].RemoteAddr)
	}
}

func TestScheduledConnectNotEarly(t *testing.T) {
	n := NewNetwork()
	n.Bind("x:1")
	script := &echoRemote{}
	n.ScheduleConnect(1000, "x:1", "p:1", script)
	n.Tick(999)
	if script.greeted {
		t.Error("fired before its time")
	}
	n.Tick(1000)
	if !script.greeted {
		t.Error("did not fire at its time")
	}
}

func TestFDescResourceIdentity(t *testing.T) {
	cases := []struct {
		fd       *FDesc
		wantName string
		wantType string
	}{
		{&FDesc{Kind: FDFile, Path: "/etc/x"}, "/etc/x", "FILE"},
		{&FDesc{Kind: FDStdin}, "stdin", "USER_INPUT"},
		{&FDesc{Kind: FDStdout}, "stdout", "FILE"},
		{&FDesc{Kind: FDStderr}, "stderr", "FILE"},
		{&FDesc{Kind: FDListener, Path: "h:1"}, "h:1", "SOCKET"},
	}
	for _, tc := range cases {
		if got := tc.fd.ResourceName(); got != tc.wantName {
			t.Errorf("%v name = %q", tc.fd.Kind, got)
		}
		if got := tc.fd.ResourceType().String(); got != tc.wantType {
			t.Errorf("%v type = %q", tc.fd.Kind, got)
		}
	}
	// Connected sockets are named by their peer.
	n := NewNetwork()
	a, _ := n.pair("local:1", "remote:2")
	fd := &FDesc{Kind: FDSock, Path: "original", conn: a}
	if fd.ResourceName() != "remote:2" {
		t.Errorf("socket name = %q", fd.ResourceName())
	}
	src := fd.Source()
	if src.Name != "remote:2" || src.Type.String() != "SOCKET" {
		t.Errorf("source = %v", src)
	}
}

func TestFDKindStrings(t *testing.T) {
	kinds := map[FDKind]string{
		FDFile: "file", FDSock: "socket", FDListener: "listener",
		FDStdin: "stdin", FDStdout: "stdout", FDStderr: "stderr",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestFSBasics(t *testing.T) {
	fs := NewFS()
	fs.Create("/a", []byte("1"))
	fs.Create("/b", nil)
	if got := fs.Paths(); len(got) != 2 || got[0] != "/a" {
		t.Errorf("paths = %v", got)
	}
	listing := string(fs.Listing())
	if listing != "/a\n/b\n" {
		t.Errorf("listing = %q", listing)
	}
	fs.Remove("/a")
	if _, ok := fs.Lookup("/a"); ok {
		t.Error("removed file still present")
	}
	// Create truncates/replaces.
	fs.Create("/b", []byte("new"))
	f, _ := fs.Lookup("/b")
	if string(f.Data) != "new" {
		t.Errorf("data = %q", f.Data)
	}
}

func TestSyscallNames(t *testing.T) {
	if SyscallName(SysExecve) != "SYS_execve" || SyscallName(9999) != "SYS_unknown" {
		t.Error("SyscallName wrong")
	}
	if SockName(SockConnect) != "connect" || SockName(99) != "sockcall?" {
		t.Error("SockName wrong")
	}
}
