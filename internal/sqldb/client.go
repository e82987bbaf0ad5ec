package sqldb

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Conn is a client connection to a sqldb server. Queries on one Conn are
// serialized (the protocol is strictly request/response); open several Conns
// for parallelism. Use Connect or ConnectConn.
type Conn struct {
	mu     sync.Mutex
	conn   net.Conn
	bc     *bufferedConn
	closed bool
}

// ConnectOption configures Connect.
type ConnectOption interface {
	apply(*connectConfig)
}

type connectConfig struct {
	user, pass string
	timeout    time.Duration
	dial       func(network, address string) (net.Conn, error)
}

type connectOptionFunc func(*connectConfig)

func (f connectOptionFunc) apply(c *connectConfig) { f(c) }

// WithAuth sets client credentials (defaults to "web"/"web").
func WithAuth(user, pass string) ConnectOption {
	return connectOptionFunc(func(c *connectConfig) { c.user, c.pass = user, pass })
}

// WithDialTimeout bounds TCP connection establishment.
func WithDialTimeout(d time.Duration) ConnectOption {
	return connectOptionFunc(func(c *connectConfig) { c.timeout = d })
}

// WithDialer substitutes the TCP dialer, e.g. to route through netsim.
func WithDialer(dial func(network, address string) (net.Conn, error)) ConnectOption {
	return connectOptionFunc(func(c *connectConfig) { c.dial = dial })
}

// ErrConnClosed is returned by operations on a closed Conn.
var ErrConnClosed = errors.New("sqldb: connection closed")

// Connect dials addr and performs the handshake. This is the expensive
// operation the API-based access model repeats per request.
func Connect(addr string, opts ...ConnectOption) (*Conn, error) {
	cfg := connectConfig{user: "web", pass: "web"}
	for _, o := range opts {
		o.apply(&cfg)
	}
	dial := cfg.dial
	if dial == nil {
		if cfg.timeout > 0 {
			dial = func(network, address string) (net.Conn, error) {
				return net.DialTimeout(network, address, cfg.timeout)
			}
		} else {
			dial = net.Dial
		}
	}
	nc, err := dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sqldb: dial %s: %w", addr, err)
	}
	c, err := handshake(nc, cfg.user, cfg.pass)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// ConnectConn performs the client handshake over an existing transport
// (tests use netsim pipes).
func ConnectConn(nc net.Conn, user, pass string) (*Conn, error) {
	return handshake(nc, user, pass)
}

func handshake(nc net.Conn, user, pass string) (*Conn, error) {
	bc := newBufferedConn(nc)
	t, body, err := bc.recv()
	if err != nil {
		return nil, fmt.Errorf("sqldb: handshake: %w", err)
	}
	if t != frameGreeting {
		return nil, fmt.Errorf("%w: expected greeting, got frame %d", ErrProtocol, t)
	}
	if _, _, err := readText(body); err != nil {
		return nil, err
	}
	if err := bc.send(appendString(appendString(bc.start(frameAuth), user), pass)); err != nil {
		return nil, fmt.Errorf("sqldb: handshake: %w", err)
	}
	t, body, err = bc.recv()
	if err != nil {
		return nil, fmt.Errorf("sqldb: handshake: %w", err)
	}
	switch t {
	case frameAuthOK:
		bc.limit = maxBody
		return &Conn{conn: nc, bc: bc}, nil
	case frameError:
		msg, _, _ := readText(body)
		return nil, fmt.Errorf("%w: %s", ErrAuthFailed, msg)
	default:
		return nil, fmt.Errorf("%w: unexpected frame %d after auth", ErrProtocol, t)
	}
}

// Query executes one SQL statement and returns its result rendered as the
// text table ResultSet.String prints for it. The slice is the caller's.
func (c *Conn) Query(sql string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrConnClosed
	}
	if err := c.bc.send(appendString(c.bc.start(frameQuery), sql)); err != nil {
		return nil, fmt.Errorf("sqldb: send query: %w", err)
	}
	t, body, err := c.bc.recv()
	if err != nil {
		return nil, fmt.Errorf("sqldb: read result: %w", err)
	}
	switch t {
	case frameResult:
		// Laid out in the idle write buffer, handed over at its exact size.
		table, err := appendTable(c.bc.wbuf[:0], body)
		if err != nil {
			return nil, err
		}
		c.bc.wbuf = reusable(table)
		return append(make([]byte, 0, len(table)), table...), nil
	case frameError:
		msg, _, _ := readText(body)
		return nil, fmt.Errorf("sqldb: server: %s", msg)
	default:
		return nil, fmt.Errorf("%w: unexpected frame %d", ErrProtocol, t)
	}
}

// Ping round-trips a heartbeat frame.
func (c *Conn) Ping() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrConnClosed
	}
	if err := c.bc.send(c.bc.start(framePing)); err != nil {
		return err
	}
	t, _, err := c.bc.recv()
	if err != nil {
		return err
	}
	if t != framePong {
		return fmt.Errorf("%w: expected pong, got frame %d", ErrProtocol, t)
	}
	return nil
}

// Close sends a quit frame (best effort) and closes the transport.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	_ = c.bc.send(c.bc.start(frameQuit))
	return c.conn.Close()
}
