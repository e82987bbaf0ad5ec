// Package backend defines the uniform access abstraction the service-broker
// framework uses for heterogeneous backend servers (database, directory,
// mail, remote web servers, bounded-time CGI).
//
// The key split mirrors the paper's cost model:
//
//   - Connector.Connect is the expensive part — connection establishment,
//     handshake, authentication. The API-based access model (package
//     apimodel) pays it on every request; service brokers pay it once and
//     keep sessions persistent.
//   - Session.Do is one query/response exchange on an established session.
//
// Payloads are opaque bytes whose syntax each service defines (SQL text for
// the database, command lines for directory/mail, URIs for web backends).
package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"servicebroker/internal/resilience"
)

// Session is an established, possibly stateful channel to one backend
// server. Sessions are not safe for concurrent Do calls unless documented
// otherwise; the broker serializes or pools them.
type Session interface {
	// Do performs one request/response exchange.
	Do(ctx context.Context, payload []byte) ([]byte, error)
	// Close releases the session.
	Close() error
}

// Connector creates sessions to one backend service.
type Connector interface {
	// Name identifies the service ("db", "dir", "mail", "web", ...).
	Name() string
	// Connect establishes a new session, paying the full setup cost.
	Connect(ctx context.Context) (Session, error)
}

// ErrServiceClosed is returned by operations on closed sessions/pools.
var ErrServiceClosed = errors.New("backend: closed")

// DelayConnector is an in-process backend whose requests take a fixed
// processing time — the paper's "CGI requests with bounded processing time"
// — with an optional cap on simultaneous requests (the backend Apache's
// MaxClients of 5). Connection setup may also carry a cost.
type DelayConnector struct {
	// ServiceName is returned by Name.
	ServiceName string
	// ProcessTime is the bounded per-request processing time.
	ProcessTime time.Duration
	// ConnectTime is the connection-establishment cost.
	ConnectTime time.Duration
	// MaxConcurrent caps simultaneously processing requests; 0 = unlimited.
	MaxConcurrent int

	initOnce sync.Once
	slots    chan struct{}
}

var _ Connector = (*DelayConnector)(nil)

// Name implements Connector.
func (d *DelayConnector) Name() string { return d.ServiceName }

// Connect implements Connector.
func (d *DelayConnector) Connect(ctx context.Context) (Session, error) {
	d.initOnce.Do(func() {
		if d.MaxConcurrent > 0 {
			d.slots = make(chan struct{}, d.MaxConcurrent)
		}
	})
	if d.ConnectTime > 0 {
		select {
		case <-time.After(d.ConnectTime):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &delaySession{parent: d}, nil
}

type delaySession struct {
	parent *DelayConnector
	closed bool
	mu     sync.Mutex
}

// Do waits for a processing slot, holds it for ProcessTime, and echoes the
// payload with a "done:" prefix so tests can verify routing.
func (s *delaySession) Do(ctx context.Context, payload []byte) ([]byte, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrServiceClosed
	}
	p := s.parent
	if p.slots != nil {
		select {
		case p.slots <- struct{}{}:
			defer func() { <-p.slots }()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if p.ProcessTime > 0 {
		select {
		case <-time.After(p.ProcessTime):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	out := make([]byte, 0, len(payload)+5)
	out = append(out, "done:"...)
	return append(out, payload...), nil
}

func (s *delaySession) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// FuncConnector adapts plain functions to the Connector interface — the
// simplest way to register custom services with a broker.
type FuncConnector struct {
	// ServiceName is returned by Name.
	ServiceName string
	// ConnectFn optionally models setup cost or per-session state; it may
	// be nil.
	ConnectFn func(ctx context.Context) error
	// DoFn handles one exchange.
	DoFn func(ctx context.Context, payload []byte) ([]byte, error)
}

var _ Connector = (*FuncConnector)(nil)

// Name implements Connector.
func (f *FuncConnector) Name() string { return f.ServiceName }

// Connect implements Connector.
func (f *FuncConnector) Connect(ctx context.Context) (Session, error) {
	if f.DoFn == nil {
		return nil, errors.New("backend: FuncConnector with nil DoFn")
	}
	if f.ConnectFn != nil {
		if err := f.ConnectFn(ctx); err != nil {
			return nil, err
		}
	}
	return &funcSession{do: f.DoFn}, nil
}

type funcSession struct {
	do func(ctx context.Context, payload []byte) ([]byte, error)
}

func (s *funcSession) Do(ctx context.Context, payload []byte) ([]byte, error) {
	return s.do(ctx, payload)
}

func (s *funcSession) Close() error { return nil }

// Pool keeps a bounded set of persistent sessions to one connector, the
// mechanism brokers use to amortize connection setup ("DB brokers maintain
// persistent connection thus saving the cost of connection setup").
//
// Get borrows a session (dialing a new one only when the pool is empty);
// Put returns it. Broken sessions should be discarded with session.Close
// instead of Put.
type Pool struct {
	connector Connector
	capacity  int

	mu     sync.Mutex
	idle   []Session
	closed bool

	// dials counts how many real connections were established (observable
	// cost of the access model).
	dials int
}

// NewPool creates a pool keeping at most capacity idle sessions.
func NewPool(connector Connector, capacity int) (*Pool, error) {
	if connector == nil {
		return nil, errors.New("backend: nil connector")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("backend: pool capacity must be positive, got %d", capacity)
	}
	return &Pool{connector: connector, capacity: capacity}, nil
}

// Get borrows an idle session or establishes a new one.
func (p *Pool) Get(ctx context.Context) (Session, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrServiceClosed
	}
	if n := len(p.idle); n > 0 {
		s := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return s, nil
	}
	p.dials++
	p.mu.Unlock()
	s, err := p.connector.Connect(ctx)
	if err != nil {
		p.mu.Lock()
		p.dials-- // the dial did not produce a session
		p.mu.Unlock()
		return nil, err
	}
	return s, nil
}

// Put returns a healthy session to the pool (closing it if the pool is full
// or closed).
func (p *Pool) Put(s Session) {
	if s == nil {
		return
	}
	p.mu.Lock()
	if p.closed || len(p.idle) >= p.capacity {
		p.mu.Unlock()
		s.Close()
		return
	}
	p.idle = append(p.idle, s)
	p.mu.Unlock()
}

// Do borrows a session, performs one exchange, and returns the session on
// success or on a refusal (resilience.Permanent): the backend answered, so
// the session is still in step. On any other error the session is closed
// (it may be broken).
func (p *Pool) Do(ctx context.Context, payload []byte) ([]byte, error) {
	s, err := p.Get(ctx)
	if err != nil {
		return nil, err
	}
	out, err := s.Do(ctx, payload)
	if err != nil && !resilience.IsPermanent(err) {
		s.Close()
		return nil, err
	}
	p.Put(s)
	return out, err
}

// Close closes all idle sessions and marks the pool closed.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	var firstErr error
	for _, s := range idle {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
