package vos

import (
	"fmt"
)

// Conn is one endpoint of a duplex in-memory connection. Each endpoint
// owns an inbound buffer; writing delivers into the peer's buffer.
type Conn struct {
	LocalAddr  string
	RemoteAddr string
	in         []byte
	peer       *Conn
	closed     bool // this endpoint closed (no more writes)
	script     RemoteScript
	net        *Network
}

// Readable reports whether a read would make progress: data buffered,
// or the peer has closed (EOF).
func (c *Conn) Readable() bool {
	return len(c.in) > 0 || c.peer == nil || c.peer.closed
}

// Read drains up to n buffered bytes; returns 0 at EOF.
func (c *Conn) Read(n int) []byte {
	if n > len(c.in) {
		n = len(c.in)
	}
	out := c.in[:n]
	c.in = append([]byte(nil), c.in[n:]...)
	return out
}

// Write delivers data to the peer endpoint, invoking the peer's remote
// script if it has one. A chaos injector may drop a scripted remote's
// response in flight: the remote sees a successful send, the guest
// never receives the bytes.
func (c *Conn) Write(data []byte) int {
	if c.closed || c.peer == nil || c.peer.closed {
		return -1
	}
	if c.script != nil && c.net != nil && c.net.inject != nil &&
		c.net.inject.DropRemote(c.RemoteAddr, len(data)) {
		return len(data)
	}
	c.peer.in = append(c.peer.in, data...)
	if c.peer.script != nil {
		buf := c.peer.in
		c.peer.in = nil
		c.peer.script.OnData(&RemoteConn{conn: c.peer}, buf)
	}
	return len(data)
}

// Close marks the endpoint closed; the peer drains buffered data then
// reads EOF.
func (c *Conn) Close() {
	c.closed = true
}

// RemoteScript is a deterministic, host-implemented network peer: the
// remote attacker (pma), the remote download server (Trojan examples),
// or the X server (xeyes). Scripts run synchronously inside the
// simulated network: no goroutines, fully reproducible.
type RemoteScript interface {
	// OnConnect runs when a connection to the scripted endpoint is
	// established; it may immediately send bytes.
	OnConnect(c *RemoteConn)
	// OnData runs whenever the guest writes to the connection.
	OnData(c *RemoteConn, data []byte)
}

// RemoteConn is the script-facing handle on a connection.
type RemoteConn struct {
	conn *Conn
}

// Send delivers bytes to the guest endpoint.
func (rc *RemoteConn) Send(data []byte) { rc.conn.Write(data) }

// Close closes the remote endpoint.
func (rc *RemoteConn) Close() { rc.conn.Close() }

// Listener is a guest-side listening socket with a queue of pending
// inbound connections.
type Listener struct {
	Addr    string
	pending []*Conn // guest-side endpoints awaiting accept
}

// scheduledConnect is a remote peer scripted to dial a guest listener
// at a virtual time.
type scheduledConnect struct {
	at     uint64
	addr   string // listener address to dial
	from   string // remote peer's own address
	script RemoteScript
}

// Network simulates the reachable network: a hosts table for
// gethostbyname, scripted remote services the guest can connect to,
// guest listeners, and scheduled inbound connections from remote
// attackers.
type Network struct {
	hosts     map[string]string              // hostname -> address
	remotes   map[string]func() RemoteScript // "addr:port" -> script factory
	listeners map[string]*Listener
	scheduled []scheduledConnect
	connN     int
	inject    FaultInjector
}

// NewNetwork returns an empty network with localhost pre-registered.
func NewNetwork() *Network {
	return &Network{
		hosts: map[string]string{
			"localhost": "127.0.0.1",
			"LocalHost": "127.0.0.1",
		},
		remotes:   make(map[string]func() RemoteScript),
		listeners: make(map[string]*Listener),
	}
}

// AddHost registers a hostname -> address mapping (the simulated DNS /
// hosts file consulted by gethostbyname, paper §7.2).
func (n *Network) AddHost(name, addr string) {
	n.hosts[name] = addr
}

// ResolveHost resolves a hostname; unknown names fail like a DNS
// miss. Already-numeric addresses resolve to themselves.
func (n *Network) ResolveHost(name string) (string, bool) {
	if a, ok := n.hosts[name]; ok {
		return a, true
	}
	if looksNumeric(name) {
		return name, true
	}
	return "", false
}

func looksNumeric(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if (r < '0' || r > '9') && r != '.' {
			return false
		}
	}
	return true
}

// AddRemote registers a scripted remote service at "addr:port"; guest
// connections to that endpoint attach a fresh script instance.
func (n *Network) AddRemote(endpoint string, factory func() RemoteScript) {
	n.remotes[endpoint] = factory
}

// ScheduleConnect arranges for a scripted remote peer at from to dial
// the guest listener at addr when the virtual clock reaches at.
func (n *Network) ScheduleConnect(at uint64, addr, from string, script RemoteScript) {
	n.scheduled = append(n.scheduled, scheduledConnect{at: at, addr: addr, from: from, script: script})
}

// Bind registers a guest listener.
func (n *Network) Bind(addr string) (*Listener, error) {
	if _, taken := n.listeners[addr]; taken {
		return nil, fmt.Errorf("vos: address in use: %s", addr)
	}
	l := &Listener{Addr: addr}
	n.listeners[addr] = l
	return l, nil
}

// Unbind removes a guest listener.
func (n *Network) Unbind(addr string) {
	delete(n.listeners, addr)
}

// Connect dials endpoint from the guest side. It succeeds against a
// scripted remote (returning immediately with the connection
// established) or against a guest listener (queuing for accept).
func (n *Network) Connect(endpoint string) (*Conn, error) {
	n.connN++
	local := fmt.Sprintf("local:%d", 30000+n.connN)
	if factory, ok := n.remotes[endpoint]; ok {
		guest, remote := n.pair(local, endpoint)
		remote.script = factory()
		remote.script.OnConnect(&RemoteConn{conn: remote})
		return guest, nil
	}
	if l, ok := n.listeners[endpoint]; ok {
		a, b := n.pair(local, endpoint)
		// a is the dialing side; b queues at the listener.
		l.pending = append(l.pending, b)
		return a, nil
	}
	return nil, fmt.Errorf("vos: connection refused: %s", endpoint)
}

// Tick fires scheduled remote connections whose time has come. A
// chaos injector may delay a delivery (the peer dials later) or drop
// it entirely (the peer never arrives; a guest blocked in accept
// eventually surfaces as a structured deadlock outcome).
func (n *Network) Tick(clock uint64) {
	rest := n.scheduled[:0]
	for _, sc := range n.scheduled {
		if clock < sc.at {
			rest = append(rest, sc)
			continue
		}
		l, ok := n.listeners[sc.addr]
		if !ok {
			// Listener not up yet: retry next tick.
			rest = append(rest, sc)
			continue
		}
		if n.inject != nil {
			delay, drop := n.inject.ScheduledConnect(clock, sc.addr)
			if drop {
				continue
			}
			if delay > 0 {
				sc.at = clock + delay
				rest = append(rest, sc)
				continue
			}
		}
		guestSide, remoteSide := n.pair(sc.addr, sc.from)
		remoteSide.script = sc.script
		l.pending = append(l.pending, guestSide)
		sc.script.OnConnect(&RemoteConn{conn: remoteSide})
	}
	n.scheduled = rest
}

func (n *Network) pair(aAddr, bAddr string) (a, b *Conn) {
	a = &Conn{LocalAddr: aAddr, RemoteAddr: bAddr, net: n}
	b = &Conn{LocalAddr: bAddr, RemoteAddr: aAddr, net: n}
	a.peer = b
	b.peer = a
	return a, b
}
