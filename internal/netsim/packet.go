package netsim

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// Gate is a runtime fault switch for one simulated host's datagram traffic.
// The chaos harness flips it to model failure modes a crash cannot: a hung
// process (socket open, nothing flows) and asymmetric partitions (the host
// hears the network but its answers vanish, or vice versa). Unlike closing
// the socket, a gated host produces no ICMP errors at its peers — requests
// disappear silently, exactly the hard case for failure detection.
//
// A Gate is safe for concurrent use and can be shared by several conns.
type Gate struct {
	mu      sync.Mutex
	dropIn  bool
	dropOut bool
}

// PartitionOutbound makes datagrams leaving the host vanish (it can still
// receive) when on is true.
func (g *Gate) PartitionOutbound(on bool) {
	g.mu.Lock()
	g.dropOut = on
	g.mu.Unlock()
}

// SetHang drops both directions: the process looks alive (socket bound) but
// nothing flows, like a stop-the-world stall.
func (g *Gate) SetHang(on bool) {
	g.mu.Lock()
	g.dropIn = on
	g.dropOut = on
	g.mu.Unlock()
}

func (g *Gate) gatedIn() bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dropIn
}

func (g *Gate) gatedOut() bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dropOut
}

// PacketConn wraps a net.PacketConn with a link profile and an optional
// Gate, the datagram analogue of Conn. Reads discard gated or dropped
// packets and keep waiting (the caller never observes a fault as an error —
// datagrams just fail to arrive); writes pretend success when gated or
// dropped, as a real lossy link would.
type PacketConn struct {
	net.PacketConn
	profile Profile
	gate    *Gate

	mu  sync.Mutex
	rng *rand.Rand
}

// NewPacketConn wraps pc with the profile and gate (gate may be nil).
func NewPacketConn(pc net.PacketConn, p Profile, gate *Gate) *PacketConn {
	seed := p.Seed
	if seed == 0 {
		seed = 42
	}
	return &PacketConn{PacketConn: pc, profile: p, gate: gate, rng: rand.New(rand.NewSource(seed))}
}

// Gate returns the conn's fault switch (nil if none was attached).
func (c *PacketConn) Gate() *Gate { return c.gate }

func (c *PacketConn) drop() bool {
	p := c.profile.DropProb
	if p <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64() < p
}

func (c *PacketConn) delay() time.Duration {
	d := c.profile.Latency
	if c.profile.Jitter > 0 {
		c.mu.Lock()
		d += time.Duration(c.rng.Int63n(int64(c.profile.Jitter) + 1))
		c.mu.Unlock()
	}
	return d
}

// ReadFrom reads the next datagram that survives the gate and loss model,
// applying propagation delay to each delivery.
func (c *PacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	for {
		n, addr, err := c.PacketConn.ReadFrom(b)
		if err != nil {
			return n, addr, err
		}
		if c.gate.gatedIn() || c.drop() {
			continue // the datagram never arrived
		}
		if d := c.delay(); d > 0 {
			time.Sleep(d)
		}
		return n, addr, nil
	}
}

// WriteTo sends the datagram unless the gate or loss model swallows it, in
// which case it reports success — the sender of a lost datagram learns
// nothing.
func (c *PacketConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	if c.gate.gatedOut() || c.drop() {
		return len(b), nil
	}
	return c.PacketConn.WriteTo(b, addr)
}
