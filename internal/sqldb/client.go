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

// ErrConnClosed is returned by operations on a closed Conn.
var ErrConnClosed = errors.New("sqldb: connection closed")

// ErrServer wraps the server's error reply to a query: the server refused
// the statement, and the connection is still good.
var ErrServer = errors.New("sqldb: server")

// Connect dials addr and performs the handshake. This is the expensive
// operation the API-based access model repeats per request.
func Connect(addr string, opts ...ConnectOption) (*Conn, error) {
	cfg := connectConfig{user: "web", pass: "web"}
	for _, o := range opts {
		o.apply(&cfg)
	}
	nc, err := net.DialTimeout("tcp", addr, cfg.timeout)
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
func (c *Conn) Query(sql []byte) ([]byte, error) {
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
		return nil, fmt.Errorf("%w: %s", ErrServer, msg)
	default:
		return nil, fmt.Errorf("%w: unexpected frame %d", ErrProtocol, t)
	}
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
