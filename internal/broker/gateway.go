package broker

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"servicebroker/internal/trace"
	"servicebroker/internal/wire"
)

// Gateway exposes a set of brokers over the framework's UDP wire protocol
// (paper §V-B: "the brokers and the front-end Web server exchange request
// and response messages through lightweight UDP"). One Gateway can host
// several per-service brokers; requests route on the message's Service
// field.
type Gateway struct {
	brokers map[string]*Broker // fixed at construction
	server  *wire.Server
	// identity is stamped on traced responses: the UDP listen address,
	// which is how frontend pools address members, so stitched traces line
	// up with /poolz rows.
	identity string
}

// NewGateway starts a gateway on addr ("127.0.0.1:0" for ephemeral) serving
// the given brokers, keyed by service name. Close stops the UDP server but
// not the brokers (their owner closes them).
func NewGateway(addr string, brokers map[string]*Broker) (*Gateway, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("broker: gateway listen %s: %w", addr, err)
	}
	g, err := NewGatewayConn(pc, brokers)
	if err != nil {
		pc.Close()
	}
	return g, err
}

// NewGatewayConn starts a gateway on an already-bound PacketConn. The chaos
// harness uses this to interpose netsim fault gates (hangs, asymmetric
// partitions) between the gateway and its socket; Close closes pc.
func NewGatewayConn(pc net.PacketConn, brokers map[string]*Broker) (*Gateway, error) {
	if len(brokers) == 0 {
		return nil, errors.New("broker: gateway needs at least one broker")
	}
	// Every field handle reads is set before the server exists: it answers
	// from the moment it is started.
	g := &Gateway{brokers: make(map[string]*Broker, len(brokers)), identity: pc.LocalAddr().String()}
	for name, b := range brokers {
		if b == nil {
			return nil, fmt.Errorf("broker: nil broker for service %q", name)
		}
		g.brokers[name] = b
	}
	srv, err := wire.NewServerConn(pc, g.handle)
	if err != nil {
		return nil, err
	}
	g.server = srv
	return g, nil
}

// Addr returns the gateway's UDP address.
func (g *Gateway) Addr() net.Addr { return g.server.Addr() }

// Services lists the hosted service names, sorted.
func (g *Gateway) Services() []string {
	names := make([]string, 0, len(g.brokers))
	for n := range g.brokers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Close stops the UDP server.
func (g *Gateway) Close() error { return g.server.Close() }

// handle converts one wire request into a broker call.
func (g *Gateway) handle(ctx context.Context, _ net.Addr, m *wire.Message) *wire.Message {
	b, ok := g.brokers[m.Service]
	if !ok {
		return &wire.Message{
			Status:  wire.StatusError,
			Payload: []byte(fmt.Sprintf("broker: unknown service %q", m.Service)),
		}
	}
	// The wire server recycles m (and m.Payload) the moment this handler
	// returns, but the broker request can outlive it: a queued job keeps its
	// payload after Handle gives up on a deadline. Copy once here.
	resp := b.Handle(ctx, &Request{
		Payload: append([]byte(nil), m.Payload...),
		Class:   m.Class,
		TxnID:   m.TxnID,
		TxnStep: int(m.TxnStep),
		IdemKey: m.IdemKey,
		NoCache: m.Flags&wire.FlagNoCache != 0,
		TraceID: trace.ID(m.TraceID),
	})
	out := &wire.Message{Fidelity: resp.Fidelity, Payload: resp.Payload, TraceID: m.TraceID}
	switch resp.Status {
	case StatusOK:
		out.Status = wire.StatusOK
	case StatusDropped:
		out.Status = wire.StatusDropped
	case StatusShed:
		out.Status = wire.StatusShed
		out.RetryAfterMs = retryAfterMs(resp.RetryAfter)
	default:
		out.Status = wire.StatusError
		if resp.Err != nil {
			out.Payload = []byte(resp.Err.Error())
		}
	}
	// Span export (Dapper-style collection, piggybacked on the response): a
	// traced request gets the broker-recorded spans for its trace, so the
	// front end can merge the cross-process tree, and this gateway's
	// identity, so a failed-over request's spans attribute to the pool member
	// that recorded them. Best-effort — a trace still in flight (context
	// cancellation) or aged out of the export buffer simply ships no spans.
	if m.TraceID != 0 {
		if t, ok := b.tracer.TakeExport(trace.ID(m.TraceID)); ok {
			out.Spans = exportSpans(t.Spans)
		}
		out.BrokerID = g.identity
	}
	return out
}

// retryAfterMs converts a retry-after hint to its wire form, rounding up so
// a sub-millisecond hint is not lost to truncation.
func retryAfterMs(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	ms := (d + time.Millisecond - 1) / time.Millisecond
	if ms > 1<<31 {
		ms = 1 << 31
	}
	return uint32(ms)
}

// exportSpans converts recorded spans to their wire form, truncating to the
// codec's bounds so span volume can never fail a response.
func exportSpans(spans []trace.Span) []wire.Span {
	if len(spans) == 0 {
		return nil
	}
	if len(spans) > wire.MaxSpans {
		spans = spans[:wire.MaxSpans]
	}
	out := make([]wire.Span, 0, len(spans))
	for _, sp := range spans {
		note := sp.Note
		if len(note) > 256 {
			note = note[:256]
		}
		out = append(out, wire.Span{
			Stage: string(sp.Stage),
			Note:  note,
			Start: sp.Start.UnixNano(),
			End:   sp.End.UnixNano(),
		})
	}
	return out
}

// Client is the application-side handle to a gateway: the message-passing
// replacement for backend API calls. It is safe for concurrent use.
type Client struct {
	wc *wire.Client
}

// DialGateway connects a client to a gateway address.
func DialGateway(addr string, opts ...wire.ClientOption) (*Client, error) {
	wc, err := wire.Dial(addr, opts...)
	if err != nil {
		return nil, err
	}
	return &Client{wc: wc}, nil
}

// Close releases the client socket.
func (c *Client) Close() error { return c.wc.Close() }

// IOStats returns the client's wire-level datagram counters.
func (c *Client) IOStats() wire.IOStats { return c.wc.IOStats() }

// Do sends one request to the named service and returns the broker's
// response. Dropped requests return a Response with StatusDropped, not an
// error — the low-fidelity reply is a valid outcome in this model.
func (c *Client) Do(ctx context.Context, service string, req *Request) (*Response, error) {
	if req == nil {
		return nil, errors.New("broker: nil request")
	}
	m := &wire.Message{
		Service: service,
		Class:   req.Class,
		TxnID:   req.TxnID,
		TxnStep: uint16(req.TxnStep),
		IdemKey: req.IdemKey,
		Payload: req.Payload,
		TraceID: uint64(req.TraceID),
	}
	if req.NoCache {
		m.Flags |= wire.FlagNoCache
	}
	out, err := c.wc.Call(ctx, m)
	if err != nil {
		return nil, err
	}
	resp := &Response{Fidelity: out.Fidelity, Payload: out.Payload, Broker: out.BrokerID, RemoteSpans: importSpans(out.Spans, out.BrokerID)}
	switch out.Status {
	case wire.StatusOK:
		resp.Status = StatusOK
	case wire.StatusDropped:
		resp.Status = StatusDropped
	case wire.StatusShed:
		resp.Status = StatusShed
		resp.RetryAfter = time.Duration(out.RetryAfterMs) * time.Millisecond
	default:
		resp.Status = StatusError
		resp.Err = fmt.Errorf("broker: %s", out.Payload)
	}
	return resp, nil
}

// importSpans converts wire spans back to trace spans for merging into the
// caller's trace, tagging each with the identity of the broker that
// recorded it.
func importSpans(spans []wire.Span, brokerID string) []trace.Span {
	if len(spans) == 0 {
		return nil
	}
	out := make([]trace.Span, 0, len(spans))
	for _, sp := range spans {
		out = append(out, trace.Span{
			Stage:  trace.Stage(sp.Stage),
			Note:   sp.Note,
			Broker: brokerID,
			Start:  time.Unix(0, sp.Start),
			End:    time.Unix(0, sp.End),
		})
	}
	return out
}

// Multi fans one request per service out in parallel and collects the
// responses in input order — the paper's "Multitasking" pattern, where a
// web syndicate page "send[s] requests in parallel to service brokers that
// are associated with individual providers" and overlaps the retrievals.
func (c *Client) Multi(ctx context.Context, services []string, reqs []*Request) ([]*Response, error) {
	if len(services) != len(reqs) {
		return nil, fmt.Errorf("broker: %d services for %d requests", len(services), len(reqs))
	}
	responses := make([]*Response, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = c.Do(ctx, services[i], reqs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return responses, nil
}
