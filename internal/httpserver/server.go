package httpserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"

	"servicebroker/internal/metrics"
	"servicebroker/internal/netsvc"
)

// Handler produces a response for one request. Returning nil yields a 500.
//
// The *Request, its Header and Query maps and its Body are valid only until
// the handler returns: the connection reuses them for its next request. The
// strings in them are immutable and may be kept.
type Handler func(req *Request) *Response

// ServerOption configures a Server.
type ServerOption interface {
	apply(*Server)
}

type serverOptionFunc func(*Server)

func (f serverOptionFunc) apply(s *Server) { f(s) }

// WithMaxClients caps simultaneously processed requests, like Apache's
// MaxClients; excess requests wait. The paper's backend servers use 5.
func WithMaxClients(n int) ServerOption {
	return serverOptionFunc(func(s *Server) {
		if n > 0 {
			s.slots = make(chan struct{}, n)
		}
	})
}

// Server is a minimal HTTP/1.1 server with path-prefix routing and MGET
// support. Use NewServer, register handlers with Handle, and Close when
// done.
type Server struct {
	svc   *netsvc.Server
	slots chan struct{}
	reg   *metrics.Registry

	// Metric handles, resolved once in NewServer.
	requests, notFound, panics *metrics.Counter
	active                     *metrics.Gauge
	requestTime                *metrics.Histogram

	mu       sync.Mutex
	handlers map[string]Handler // exact path or prefix ending in '/'
}

// NewServer listens on addr and begins serving. Handlers may be registered
// before or after start.
func NewServer(addr string, opts ...ServerOption) (*Server, error) {
	s := &Server{reg: metrics.NewRegistry(), handlers: make(map[string]Handler)}
	for _, o := range opts {
		o.apply(s)
	}
	s.requests, s.notFound, s.panics = s.reg.Counter("requests"), s.reg.Counter("not_found"), s.reg.Counter("panics")
	s.active, s.requestTime = s.reg.Gauge("active"), s.reg.Histogram("request_time")
	// A session reads s.svc under mu, since it may start before Listen returns.
	s.mu.Lock()
	defer s.mu.Unlock()
	svc, err := netsvc.Listen(addr, s.session)
	if err != nil {
		return nil, fmt.Errorf("httpserver: listen %s: %w", addr, err)
	}
	s.svc = svc
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.svc.Addr() }

// Metrics returns the server's registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Handle registers a handler. A pattern ending in "/" matches by prefix;
// otherwise the match is exact. Longest pattern wins.
func (s *Server) Handle(pattern string, h Handler) {
	if pattern == "" || pattern[0] != '/' {
		panic("httpserver: pattern must begin with '/'")
	}
	if h == nil {
		panic("httpserver: nil handler")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[pattern] = h
}

// lookup finds the handler for a path.
func (s *Server) lookup(path string) Handler {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.handlers[path]; ok {
		return h
	}
	var (
		best    Handler
		bestLen = -1
	)
	for pattern, h := range s.handlers {
		if strings.HasSuffix(pattern, "/") && strings.HasPrefix(path, pattern) && len(pattern) > bestLen {
			best, bestLen = h, len(pattern)
		}
	}
	return best
}

// Drain gracefully shuts the server down: it stops accepting connections,
// lets every session finish the request it is processing, and nudges idle
// keep-alive connections awake with an expired read deadline so they close
// instead of lingering. If ctx expires first, remaining connections are
// force-closed; Drain then still waits for their session goroutines and
// returns the context error.
func (s *Server) Drain(ctx context.Context) error { return s.svc.Drain(ctx) }

// Close stops the server and waits for in-flight sessions.
func (s *Server) Close() error { return s.svc.Close() }

// errBadRequest distinguishes protocol errors from io errors during parse.
var errBadRequest = errors.New("httpserver: bad request")

// session serves requests on one connection until close or protocol error.
func (s *Server) session(conn net.Conn) {
	s.mu.Lock()
	svc := s.svc
	s.mu.Unlock()
	r := bufio.NewReaderSize(conn, sessionReaderSize)
	req := &Request{Header: map[string]string{}, Query: map[string]string{}}
	var head []byte
	for {
		if svc.Closing() {
			// Draining: the response for the last request has been flushed;
			// do not start reading another.
			return
		}
		if err := readRequest(r, req, &head); err != nil {
			if errors.Is(err, errBadRequest) || errors.Is(err, errHeadTooLarge) {
				writeResponse(conn, Error(400, err.Error()), true)
			}
			return
		}

		resp, keepAlive := s.dispatch(req)
		wantClose := strings.EqualFold(req.Header["connection"], "close") || !keepAlive
		if err := writeResponse(conn, resp, wantClose); err != nil || wantClose {
			return
		}
	}
}

// dispatch routes one request (including MGET fan-out) under the MaxClients
// cap, reporting the response and whether keep-alive may continue.
func (s *Server) dispatch(req *Request) (*Response, bool) {
	if s.slots != nil {
		s.slots <- struct{}{}
		defer func() { <-s.slots }()
	}
	s.requests.Inc()
	s.active.Inc()
	defer s.active.Dec()
	timer := metrics.StartTimer(s.requestTime)
	defer timer.ObserveDuration()

	if req.Method == "MGET" {
		parts := make([]*Response, len(req.MGetTargets))
		sub := &Request{Method: "GET", Proto: req.Proto, Header: req.Header, Query: map[string]string{}}
		for i, uri := range req.MGetTargets {
			path, rawQuery, _ := strings.Cut(uri, "?")
			clear(sub.Query)
			sub.Path = path
			parseQuery(sub.Query, rawQuery)
			parts[i] = s.serveOne(sub)
		}
		resp := NewResponse(200, EncodeMGetParts(req.MGetTargets, parts))
		resp.Header["content-type"] = "multipart/mget"
		return resp, true
	}
	return s.serveOne(req), true
}

// serveOne runs the matched handler with panic containment.
func (s *Server) serveOne(req *Request) (resp *Response) {
	h := s.lookup(req.Path)
	if h == nil {
		s.notFound.Inc()
		return Error(404, "no handler for "+req.Path)
	}
	defer func() {
		if p := recover(); p != nil {
			s.panics.Inc()
			resp = Error(500, fmt.Sprintf("handler panic: %v", p))
		}
	}()
	resp = h(req)
	if resp == nil {
		resp = Error(500, "handler returned nil")
	}
	return resp
}

// readRequest parses one request from r into req, clearing and refilling its
// maps, with *head as the buffer the head is read into.
func readRequest(r *bufio.Reader, req *Request, head *[]byte) error {
	h, err := readHead(r, head)
	if err != nil {
		return err
	}
	// method SP target... SP proto: MGET names several targets (paper §III /
	// www-talk proposal), every other method one.
	line, h := nextLine(h)
	method, rest := field(line)
	var fields []string
	for f, more := field(rest); f != ""; f, more = field(more) {
		fields = append(fields, f)
	}
	if method == "" || len(fields) < 2 || (method != "MGET" && len(fields) != 2) {
		return fmt.Errorf("%w: request line %q", errBadRequest, line)
	}
	targets := fields[:len(fields)-1]
	req.Method, req.Proto, req.Path, req.Body, req.MGetTargets = method, fields[len(targets)], "", nil, nil
	if !strings.HasPrefix(req.Proto, "HTTP/") {
		return fmt.Errorf("%w: protocol %q", errBadRequest, req.Proto)
	}
	clear(req.Query)
	clear(req.Header)
	for i, target := range targets {
		if method == "MGET" {
			target = strings.TrimPrefix(target, "URI:")
			targets[i] = target
		}
		if target == "" || target[0] != '/' {
			return fmt.Errorf("%w: target %q", errBadRequest, target)
		}
	}
	if method == "MGET" {
		req.MGetTargets = targets
	} else {
		path, rawQuery, _ := strings.Cut(targets[0], "?")
		req.Path = path
		parseQuery(req.Query, rawQuery)
	}

	n, err := parseHeaders(h, req.Header)
	if err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if n > 0 {
		req.Body = make([]byte, n)
		_, err = io.ReadFull(r, req.Body)
	}
	return err
}

// field splits the first space-separated field off s.
func field(s string) (string, string) {
	f, rest, _ := strings.Cut(strings.TrimLeft(s, " "), " ")
	return f, rest
}

// writeResponse writes resp to conn through a borrowed writer. close adds
// "connection: close".
func writeResponse(conn io.Writer, resp *Response, close bool) error {
	w := getWriter(conn)
	defer func() { w.Reset(nil); writers.Put(w) }()
	b := strconv.AppendInt(append(w.AvailableBuffer(), "HTTP/1.1 "...), int64(resp.Status), 10)
	w.Write(append(append(append(b, ' '), StatusText(resp.Status)...), "\r\n"...))
	writeHeaders(w, resp.Header, len(resp.Body), close)
	w.Write(resp.Body)
	return w.Flush()
}
