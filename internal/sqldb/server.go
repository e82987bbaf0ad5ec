package sqldb

import (
	"errors"
	"fmt"
	"net"
	"time"

	"servicebroker/internal/metrics"
	"servicebroker/internal/netsvc"
)

// ServerOption configures a Server.
type ServerOption interface {
	apply(*Server)
}

type serverOptionFunc func(*Server)

func (f serverOptionFunc) apply(s *Server) { f(s) }

// WithHandshakeDelay adds an artificial cost to connection establishment,
// modelling expensive auth/TLS setup. The experiments use it to control the
// connection-setup overhead the API model pays per request.
func WithHandshakeDelay(d time.Duration) ServerOption {
	return serverOptionFunc(func(s *Server) { s.handshakeDelay = d })
}

// WithQueryDelay adds a fixed processing cost to every query, on top of the
// engine's real execution time.
func WithQueryDelay(d time.Duration) ServerOption {
	return serverOptionFunc(func(s *Server) { s.queryDelay = d })
}

// WithExecSlots caps the number of queries executing simultaneously; excess
// queries queue. This mirrors the paper's backend limit of 5 simultaneous
// requests (Apache MaxClients).
func WithExecSlots(n int) ServerOption {
	return serverOptionFunc(func(s *Server) {
		if n > 0 {
			s.execSlots = make(chan struct{}, n)
		}
	})
}

// Server exposes an Engine over the sqldb wire protocol.
type Server struct {
	svc    *netsvc.Server
	engine *Engine

	user, pass     string
	handshakeDelay time.Duration
	queryDelay     time.Duration
	execSlots      chan struct{}
	reg            *metrics.Registry
	// Handles into reg, resolved once in NewServer.
	connections, authFailures, queries, queryErrors *metrics.Counter
	queryTime                                       *metrics.Histogram
}

// NewServer starts serving engine on addr ("127.0.0.1:0" for ephemeral).
// Close must be called to stop the accept loop and all sessions.
func NewServer(engine *Engine, addr string, opts ...ServerOption) (*Server, error) {
	if engine == nil {
		return nil, errors.New("sqldb: nil engine")
	}
	s := &Server{
		engine: engine,
		user:   "web",
		pass:   "web",
		reg:    metrics.NewRegistry(),
	}
	for _, o := range opts {
		o.apply(s)
	}
	s.connections = s.reg.Counter("connections")
	s.authFailures = s.reg.Counter("auth_failures")
	s.queries = s.reg.Counter("queries")
	s.queryErrors = s.reg.Counter("query_errors")
	s.queryTime = s.reg.Histogram("query_time")
	svc, err := netsvc.Listen(addr, s.session)
	if err != nil {
		return nil, fmt.Errorf("sqldb: listen %s: %w", addr, err)
	}
	s.svc = svc
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() net.Addr { return s.svc.Addr() }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Close stops accepting, closes every session, and waits for them to exit.
func (s *Server) Close() error { return s.svc.Close() }

// session drives one client connection: handshake, then query loop.
func (s *Server) session(conn net.Conn) {
	s.connections.Inc()
	bc := newBufferedConn(conn)

	if s.handshakeDelay > 0 {
		time.Sleep(s.handshakeDelay)
	}
	if err := bc.send(appendString(bc.start(frameGreeting), "sqldb/1")); err != nil {
		return
	}
	t, body, err := bc.recv()
	if err != nil || t != frameAuth {
		return
	}
	user, rest, err := readText(body)
	if err != nil {
		return
	}
	pass, _, err := readText(rest)
	if err != nil {
		return
	}
	if string(user) != s.user || string(pass) != s.pass {
		s.authFailures.Inc()
		_ = bc.send(appendString(bc.start(frameError), ErrAuthFailed.Error()))
		return
	}
	if err := bc.send(bc.start(frameAuthOK)); err != nil {
		return
	}
	bc.limit = maxBody

	for {
		t, body, err := bc.recv()
		if err != nil {
			return
		}
		switch t {
		case framePing:
			if err := bc.send(bc.start(framePong)); err != nil {
				return
			}
		case frameQuit:
			return
		case frameQuery:
			sql, _, err := readText(body)
			if err != nil {
				return
			}
			if !s.respond(bc, sql) {
				return
			}
		default:
			_ = bc.send(appendString(bc.start(frameError), fmt.Sprintf("unexpected frame %d", t)))
			return
		}
	}
}

// respond executes one query, sql, read from bc's receive buffer, and writes
// the reply, reporting whether the session should continue.
func (s *Server) respond(bc *bufferedConn, sql []byte) bool {
	if s.execSlots != nil {
		s.execSlots <- struct{}{}
		defer func() { <-s.execSlots }()
	}
	s.queries.Inc()
	timer := metrics.StartTimer(s.queryTime)
	if s.queryDelay > 0 {
		time.Sleep(s.queryDelay)
	}
	// The engine reads the statement from the frame's bytes, and the result
	// goes from the rows into the reply frame under the engine's read lock,
	// with no ResultSet between them. A statement that fails leaves the
	// begun frame unsent.
	out := sink{body: bc.start(frameResult)}
	err := exec(s.engine, sql, &out)
	timer.ObserveDuration()
	if err != nil {
		s.queryErrors.Inc()
		return bc.send(appendString(bc.start(frameError), err.Error())) == nil
	}
	return bc.send(out.body) == nil
}
