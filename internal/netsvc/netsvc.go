// Package netsvc is the TCP serving skeleton the backend servers share: one
// accept loop running a session per connection, Close and Drain over the set
// of open connections, and the capped line reader of the line protocols.
package netsvc

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"net"
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
