// Package netsvc is the TCP skeleton the backend servers and their clients
// share: one accept loop running a session per connection, Close and Drain
// over the set of open connections, the capped line reader of the line
// protocols, and the client half of those protocols.
package netsvc

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Server accepts TCP connections and runs one session goroutine for each.
type Server struct {
	ln      net.Listener
	session func(net.Conn)

	mu      sync.Mutex
	closing atomic.Bool // set under mu, so a connection is either in conns or refused
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
}

// Listen listens on addr and serves each accepted connection with session
// in its own goroutine, closing the connection when session returns.
func Listen(addr string, session func(net.Conn)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, session: session, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Closing reports whether Close or Drain has begun. A session checks it
// between requests, so that a draining server starts no new one.
func (s *Server) Closing() bool { return s.closing.Load() }

// Close stops accepting, closes every connection, and waits for every
// session to return. Only the first Close or Drain has an effect.
func (s *Server) Close() error {
	if !s.stop() {
		return nil
	}
	s.each(net.Conn.Close)
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Drain stops accepting and lets every session finish the request it is
// serving: each connection gets an expired read deadline, so an idle session
// wakes and returns. If ctx ends first, the remaining connections are closed;
// Drain still waits for their sessions, and returns the context's error.
func (s *Server) Drain(ctx context.Context) error {
	if !s.stop() {
		return nil
	}
	now := time.Now()
	s.each(func(c net.Conn) error { return c.SetReadDeadline(now) })
	err := s.ln.Close()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.each(net.Conn.Close)
		<-done
		return cmp.Or(err, ctx.Err())
	}
}

// stop marks the server closing and reports whether this call marked it.
func (s *Server) stop() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closing.Swap(true)
}

// each applies f to every open connection.
func (s *Server) each(f func(net.Conn) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		f(c)
	}
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.session(conn)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// maxLine bounds the line ReadLine holds, terminator included, as
// httpserver bounds a whole message head.
const maxLine = 64 << 10

// ErrLineTooLong is returned by ReadLine for a line over 64 KiB.
var ErrLineTooLong = errors.New("netsvc: line over 64 KiB")

// ReadLine reads one '\n'-terminated line and returns it without its trailing
// '\r' and '\n' bytes. It holds at most 64 KiB of a line: a longer one is
// ErrLineTooLong, with the rest of it left unread.
func ReadLine(r *bufio.Reader) (string, error) {
	var long []byte // the line so far, once it outgrows r's buffer
	for {
		frag, err := r.ReadSlice('\n')
		if len(long)+len(frag) > maxLine {
			return "", ErrLineTooLong
		}
		if err == bufio.ErrBufferFull {
			long = append(long, frag...)
			continue
		}
		if err != nil {
			return "", err
		}
		if long != nil {
			frag = append(long, frag...)
		}
		return string(bytes.TrimRight(frag, "\r\n")), nil
	}
}

// ErrRefused marks a request a client refused before writing any of it.
var ErrRefused = errors.New("netsvc: request refused")

// Client is the client half of a line protocol: command lines go out
// CRLF-terminated, and reply lines come back through ReadLine under its
// 64 KiB cap. A Client is not safe for concurrent use.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to the line-protocol server at addr and reads its greeting,
// which must begin with prefix. A zero timeout waits as long as the system
// allows.
func Dial(addr string, timeout time.Duration, prefix string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, prefix)
}

// NewClient reads the greeting on conn, which must begin with prefix, and
// returns the client that speaks over conn. conn is closed if it fails.
func NewClient(conn net.Conn, prefix string) (*Client, error) {
	c := &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	greeting, err := c.Line()
	if err == nil && !strings.HasPrefix(greeting, prefix) {
		err = fmt.Errorf("netsvc: greeting %q, want %s", greeting, prefix)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// CheckLines refuses, with ErrRefused, any line that holds CR or LF: the
// server would read it as two commands.
func CheckLines(lines ...string) error {
	for _, l := range lines {
		if strings.ContainsAny(l, "\r\n") {
			return fmt.Errorf("%w: line break in %q", ErrRefused, l)
		}
	}
	return nil
}

// Send writes lines, each CRLF-terminated, and flushes them. If any line
// holds CR or LF it writes nothing and returns CheckLines' refusal.
func (c *Client) Send(lines ...string) error {
	if err := CheckLines(lines...); err != nil {
		return err
	}
	for _, l := range lines {
		c.w.WriteString(l)
		c.w.WriteString("\r\n")
	}
	return c.w.Flush()
}

// Line reads one reply line; a line over 64 KiB is ErrLineTooLong.
func (c *Client) Line() (string, error) { return ReadLine(c.r) }

// Close sends QUIT and closes the connection without waiting for the reply.
func (c *Client) Close() error {
	c.Send("QUIT")
	return c.conn.Close()
}

// SplitCommand splits a request payload of a line protocol into its
// upper-cased verb and the rest, both trimmed.
func SplitCommand(payload []byte) (verb, rest string) {
	verb, rest, _ = strings.Cut(strings.TrimSpace(string(payload)), " ")
	return strings.ToUpper(verb), strings.TrimSpace(rest)
}
