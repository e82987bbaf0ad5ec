package httpserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client is an HTTP/1.1 client with an optional persistent-connection pool.
// With pooling disabled it behaves like the paper's API model: every request
// pays TCP connection setup and tear-down. With pooling enabled it behaves
// like a broker's multiplexed persistent channel.
type Client struct {
	addr   string
	header map[string]string // every request's headers; read-only

	persistent bool
	maxIdle    int
	timeout    time.Duration
	dial       func(network, address string) (net.Conn, error)

	mu     sync.Mutex
	idle   []*clientConn
	closed bool
}

type clientConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	head []byte // the buffer response heads are read into
}

// ClientOption configures a Client.
type ClientOption interface {
	apply(*Client)
}

type clientOptionFunc func(*Client)

func (f clientOptionFunc) apply(c *Client) { f(c) }

// WithPersistent enables connection reuse with up to maxIdle pooled
// connections.
func WithPersistent(maxIdle int) ClientOption {
	return clientOptionFunc(func(c *Client) {
		c.persistent = true
		if maxIdle > 0 {
			c.maxIdle = maxIdle
		}
	})
}

// WithTimeout bounds dialing and each round trip.
func WithTimeout(d time.Duration) ClientOption {
	return clientOptionFunc(func(c *Client) { c.timeout = d })
}

// WithDial substitutes the dialer (e.g. netsim's).
func WithDial(dial func(network, address string) (net.Conn, error)) ClientOption {
	return clientOptionFunc(func(c *Client) { c.dial = dial })
}

// ErrClientClosed is returned after Close.
var ErrClientClosed = errors.New("httpserver: client closed")

// NewClient creates a client for the server at addr ("host:port").
func NewClient(addr string, opts ...ClientOption) *Client {
	c := &Client{addr: addr, header: map[string]string{"host": addr}, maxIdle: 2}
	for _, o := range opts {
		o.apply(c)
	}
	return c
}

// get borrows a pooled connection or dials a new one.
func (c *Client) get() (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()

	dial := c.dial
	if dial == nil {
		dial = (&net.Dialer{Timeout: c.timeout}).Dial
	}
	conn, err := dial("tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("httpserver: dial %s: %w", c.addr, err)
	}
	return &clientConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// put returns a connection to the pool or closes it.
func (c *Client) put(cc *clientConn, reusable bool) {
	if !c.persistent || !reusable {
		cc.conn.Close()
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.idle) >= c.maxIdle {
		cc.conn.Close()
		return
	}
	c.idle = append(c.idle, cc)
}

// Close drops pooled connections; in-flight requests finish on their own
// connections.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for _, cc := range c.idle {
		cc.conn.Close()
	}
	c.idle = nil
	return nil
}

// Get issues GET path?query and returns the response.
func (c *Client) Get(path string, query map[string]string) (*Response, error) {
	return c.roundTrip(&Request{Method: "GET", Path: path, Query: query, Header: c.header})
}

// Post issues POST path with a body.
func (c *Client) Post(path string, body []byte) (*Response, error) {
	return c.roundTrip(&Request{Method: "POST", Path: path, Header: c.header, Body: body})
}

// MGet issues one MGET request for several URIs and returns the per-URI
// parts in order.
func (c *Client) MGet(uris []string) ([]MGetPart, error) {
	if len(uris) == 0 {
		return nil, errors.New("httpserver: MGet with no URIs")
	}
	resp, err := c.roundTrip(&Request{Method: "MGET", Header: c.header, MGetTargets: uris})
	if err != nil {
		return nil, err
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("httpserver: MGET status %d: %s", resp.Status, resp.Body)
	}
	parts, err := DecodeMGetParts(resp.Body)
	if err != nil {
		return nil, err
	}
	if len(parts) != len(uris) {
		return nil, fmt.Errorf("httpserver: MGET returned %d parts for %d URIs", len(parts), len(uris))
	}
	return parts, nil
}

// roundTrip sends req and reads the response, retrying once on a stale
// pooled connection.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	for attempt := 0; ; attempt++ {
		cc, err := c.get()
		if err != nil {
			return nil, err
		}
		resp, reusable, err := c.exchange(cc, req)
		if err != nil {
			cc.conn.Close()
			// A pooled connection may have been closed server-side between
			// requests; retry once on a fresh connection.
			if attempt == 0 && c.persistent {
				continue
			}
			return nil, err
		}
		c.put(cc, reusable)
		return resp, nil
	}
}

func (c *Client) exchange(cc *clientConn, req *Request) (*Response, bool, error) {
	if c.timeout > 0 {
		cc.conn.SetDeadline(time.Now().Add(c.timeout))
		defer cc.conn.SetDeadline(time.Time{})
	}
	if err := writeRequest(cc.w, req, !c.persistent); err != nil {
		return nil, false, fmt.Errorf("httpserver: write: %w", err)
	}
	return readResponse(cc.r, &cc.head)
}

// writeRequest writes req and flushes: the request line (MGET's URI: list,
// or the path and its escaped query), the headers and the body.
func writeRequest(w *bufio.Writer, req *Request, close bool) error {
	b := append(w.AvailableBuffer(), req.Method...)
	if req.Method == "MGET" {
		for _, uri := range req.MGetTargets {
			b = append(append(b, " URI:"...), uri...)
		}
	} else if b = append(append(b, ' '), req.Path...); len(req.Query) > 0 {
		b = appendQuery(append(b, '?'), req.Query)
	}
	w.Write(append(b, " HTTP/1.1\r\n"...))
	writeHeaders(w, req.Header, len(req.Body), close)
	w.Write(req.Body)
	return w.Flush()
}

// readResponse parses a response, reading its head into *head, and reports
// whether the connection may be reused. The response is the caller's.
func readResponse(r *bufio.Reader, head *[]byte) (*Response, bool, error) {
	h, err := readHead(r, head)
	if err != nil {
		return nil, false, fmt.Errorf("httpserver: read head: %w", err)
	}
	line, h := nextLine(h)
	proto, rest, _ := strings.Cut(line, " ")
	code, _, _ := strings.Cut(rest, " ")
	status, err := strconv.Atoi(code)
	if err != nil || !strings.HasPrefix(proto, "HTTP/") {
		return nil, false, fmt.Errorf("httpserver: bad status line %q", line)
	}
	resp := &Response{Status: status, Header: map[string]string{}}
	n, err := parseHeaders(h, resp.Header)
	if err != nil {
		return nil, false, fmt.Errorf("httpserver: bad %v", err)
	}
	resp.Body = make([]byte, n)
	if _, err := io.ReadFull(r, resp.Body); err != nil {
		return nil, false, fmt.Errorf("httpserver: read body: %w", err)
	}
	return resp, !strings.EqualFold(resp.Header["connection"], "close"), nil
}
