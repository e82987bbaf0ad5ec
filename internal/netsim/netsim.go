// Package netsim simulates network conditions for the service-broker
// testbeds. The paper distinguishes tightly coupled backends (same LAN as
// the front-end web server: low, stable latency) from loosely coupled ones
// (reached across a WAN: higher latency and jitter, occasional loss). The
// reproduction runs everything over loopback, so this package injects those
// conditions deterministically by wrapping net.Conn.
//
// A Profile describes one link. Wrap accepted or dialed connections with
// Conn to apply it. The Pipe helper builds an in-memory full-duplex
// connection pair with a profile applied, which the test suites use to avoid
// consuming real sockets.
package netsim

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Profile describes simulated link conditions.
type Profile struct {
	// Latency is the one-way propagation delay added to every read.
	Latency time.Duration
	// Jitter is the maximum extra random delay added on top of Latency,
	// uniformly distributed in [0, Jitter].
	Jitter time.Duration
	// BandwidthBPS caps throughput in bytes per second; 0 means unlimited.
	BandwidthBPS int64
	// DropProb is the probability (0..1) that a Write call fails with
	// ErrSimulatedDrop, modelling loss on unreliable transports.
	DropProb float64
	// Seed makes the jitter and drop streams deterministic. Zero selects a
	// fixed default seed so runs are reproducible by default.
	Seed int64
}

// Common profiles used throughout the experiments. LAN models the paper's
// tightly coupled backends; WAN models loosely coupled web syndicates.
var (
	// Perfect has no latency, jitter, loss, or bandwidth cap.
	Perfect = Profile{}
	// LAN is a tightly coupled link: sub-millisecond latency, no loss.
	LAN = Profile{Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond}
	// WAN is a loosely coupled link: tens of milliseconds with jitter.
	WAN = Profile{Latency: 30 * time.Millisecond, Jitter: 20 * time.Millisecond}
)

// ErrSimulatedDrop is returned by Write when the profile drops the packet.
var ErrSimulatedDrop = fmt.Errorf("netsim: simulated packet drop")

// Conn wraps an underlying net.Conn, applying the profile's latency, jitter,
// bandwidth, and loss. It is safe for the usual net.Conn concurrency pattern
// (one reader plus one writer).
type Conn struct {
	net.Conn
	profile Profile

	mu  sync.Mutex
	rng *rand.Rand
	// earliestRead is the time before which the next read may not complete,
	// used to model serialization delay under a bandwidth cap.
	earliestRead time.Time
}

// NewConn wraps c with the given profile.
func NewConn(c net.Conn, p Profile) *Conn {
	seed := p.Seed
	if seed == 0 {
		seed = 42
	}
	return &Conn{Conn: c, profile: p, rng: rand.New(rand.NewSource(seed))}
}

// delay computes the latency+jitter for one traversal.
func (c *Conn) delay() time.Duration {
	d := c.profile.Latency
	if c.profile.Jitter > 0 {
		c.mu.Lock()
		d += time.Duration(c.rng.Int63n(int64(c.profile.Jitter) + 1))
		c.mu.Unlock()
	}
	return d
}

// Read applies propagation and serialization delay, then reads.
func (c *Conn) Read(b []byte) (int, error) {
	if d := c.delay(); d > 0 {
		time.Sleep(d)
	}
	n, err := c.Conn.Read(b)
	if err != nil {
		return n, err
	}
	if bps := c.profile.BandwidthBPS; bps > 0 && n > 0 {
		ser := time.Duration(float64(n) / float64(bps) * float64(time.Second))
		c.mu.Lock()
		now := time.Now()
		if c.earliestRead.Before(now) {
			c.earliestRead = now
		}
		c.earliestRead = c.earliestRead.Add(ser)
		wait := time.Until(c.earliestRead)
		c.mu.Unlock()
		if wait > 0 {
			time.Sleep(wait)
		}
	}
	return n, nil
}

// Write drops the payload with DropProb, otherwise forwards it.
func (c *Conn) Write(b []byte) (int, error) {
	if p := c.profile.DropProb; p > 0 {
		c.mu.Lock()
		drop := c.rng.Float64() < p
		c.mu.Unlock()
		if drop {
			// The bytes vanish "on the wire": report success to the sender,
			// as a real lossy datagram link would.
			return len(b), ErrSimulatedDrop
		}
	}
	return c.Conn.Write(b)
}

// Profile returns the link profile in effect.
func (c *Conn) Profile() Profile { return c.profile }

// Dialer dials through a profile. A zero Dialer dials with net.Dial and the
// Perfect profile.
type Dialer struct {
	Profile Profile
	// Timeout bounds connection establishment; 0 means no bound.
	Timeout time.Duration
}

// Dial connects to the address and wraps the connection with the profile,
// first sleeping one propagation delay to model connection setup crossing
// the link.
func (d Dialer) Dial(network, address string) (net.Conn, error) {
	if d.Profile.Latency > 0 {
		time.Sleep(d.Profile.Latency)
	}
	var (
		c   net.Conn
		err error
	)
	if d.Timeout > 0 {
		c, err = net.DialTimeout(network, address, d.Timeout)
	} else {
		c, err = net.Dial(network, address)
	}
	if err != nil {
		return nil, fmt.Errorf("netsim: dial %s %s: %w", network, address, err)
	}
	return NewConn(c, d.Profile), nil
}

// Pipe returns an in-memory full-duplex connection pair with the profile
// applied to both ends. It is the test-friendly analogue of a socket pair.
func Pipe(p Profile) (client, server net.Conn) {
	c, s := net.Pipe()
	return NewConn(c, p), NewConn(s, p)
}
