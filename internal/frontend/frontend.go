// Package frontend implements the paper's two deployment models for
// incorporating service brokers into web servers (§IV):
//
//   - the distributed model (Figure 5): "the Web server imposes no admission
//     control restrictions. Requests are forwarded to the brokers together
//     with their QoS profiles", and each broker decides to forward or drop;
//   - the centralized model (Figure 4): the web server itself "checks [the
//     request's] resource requirements and current load status of the
//     brokers before the request proceeds"; if any needed backend is
//     overloaded, "the request is aborted before any real processing starts
//     and an error message is sent to the end user".
//
// There is one front end: Distributed runs on the httpserver substrate and
// reaches brokers through a Pool of UDP wire gateways, and Centralized is
// that plus a lease registry, its resource profiles and the admission step.
// The centralized model's load information is the load each broker's lease
// carries (registry.Registrar), applied to the registry by a
// registry.Listener — the paper's "listener thread".
package frontend

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"strconv"
	"strings"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/fleet"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/metrics"
	"servicebroker/internal/qos"
	"servicebroker/internal/registry"
	"servicebroker/internal/sketch"
	"servicebroker/internal/trace"
)

// Route maps one URL pattern to a brokered service call.
type Route struct {
	// Pattern is the httpserver pattern ("/db/query" exact or "/pages/"
	// prefix).
	Pattern string
	// Service names the broker to call.
	Service string
	// Payload builds the broker payload from the HTTP request. When nil,
	// the "q" query parameter is used.
	Payload func(req *httpserver.Request) []byte
	// DefaultClass applies when the request carries no qos parameter;
	// zero means the framework default (lowest class at the broker).
	DefaultClass qos.Class
}

// classOf extracts the QoS class from the request ("qos" query parameter,
// else the route default).
func classOf(req *httpserver.Request, route Route) qos.Class {
	if v := req.Query["qos"]; v != "" {
		if n, err := strconv.Atoi(v); err == nil && qos.Class(n).Valid() {
			return qos.Class(n) // fits the wire's class byte
		}
	}
	return route.DefaultClass
}

// payloadOf builds the broker payload for a request.
func payloadOf(req *httpserver.Request, route Route) []byte {
	if route.Payload != nil {
		return route.Payload(req)
	}
	return []byte(req.Query["q"])
}

// txnOf extracts transaction tagging from the request: the "txn" and "step"
// query parameters, plus the optional "idem" idempotency key that marks the
// access as a mutation whose effect must execute at most once. The key is
// only meaningful inside a transaction, so it is ignored without "txn".
func txnOf(req *httpserver.Request) (string, int, string) {
	id := req.Query["txn"]
	if id == "" {
		return "", 0, ""
	}
	step, _ := strconv.Atoi(req.Query["step"])
	if step < 1 {
		step = 1
	}
	return id, step, req.Query["idem"]
}

// respond converts a broker response to HTTP. Dropped and shed requests
// answer 200 with the adaptive low-fidelity payload and an x-fidelity header,
// mirroring the paper's immediate short-message acknowledgement; shed
// responses additionally carry the broker's backpressure hint as
// x-retry-after-ms so clients know when to come back. A nonzero trace ID is
// surfaced as x-trace-id so clients can correlate with /tracez output.
func respond(resp *broker.Response, traceID trace.ID) *httpserver.Response {
	var out *httpserver.Response
	switch resp.Status {
	case broker.StatusOK, broker.StatusDropped, broker.StatusShed:
		out = httpserver.NewResponse(200, resp.Payload)
		out.Header["x-fidelity"] = resp.Fidelity.String()
		out.Header["x-broker-status"] = resp.Status.String()
		if resp.Status == broker.StatusShed && resp.RetryAfter > 0 {
			out.Header["x-retry-after-ms"] = strconv.FormatInt(int64(resp.RetryAfter/time.Millisecond), 10)
		}
	default:
		msg := "backend error"
		if resp.Err != nil {
			msg = resp.Err.Error()
		}
		out = httpserver.Error(502, msg)
	}
	if traceID != 0 {
		out.Header["x-trace-id"] = traceID.String()
	}
	return out
}

// analytics is the optional front-end workload measurement: a hot-key
// tracker fed with each request's payload key.
type analytics struct {
	hotkeys *sketch.Tracker
}

// observe records one completed gateway call; wire is its full UDP
// round-trip time.
func (a analytics) observe(key string, resp *broker.Response, err error, wire time.Duration) {
	if a.hotkeys != nil {
		hit := err == nil && resp != nil && resp.Fidelity == qos.FidelityCached
		a.hotkeys.RecordAccess(key, hit)
		a.hotkeys.RecordLatency(key, wire)
	}
}

// tracedCall wraps one pool call with the trace bookkeeping: it assigns the
// request's end-to-end trace ID, times the wire (UDP round-trip) stage,
// finishes the front-end trace record with the request's disposition, and
// feeds the analytics hooks. With a nil recorder it degrades to a plain call
// with a zero trace ID.
func tracedCall(rec *trace.Recorder, ana analytics, pool *Pool, service string, req *broker.Request) (*broker.Response, trace.ID, error) {
	var tr *trace.Active
	if rec != nil {
		tr = rec.Start(0, service, int(req.Class))
		req.TraceID = tr.ID()
	}
	start := time.Now()
	span := tr.StartSpan(trace.StageWire)
	// Carry the active trace down into the pool so its failover loop can
	// record StageFailover hops on the same tree the remote spans merge into.
	resp, err := pool.Do(trace.NewContext(context.Background(), tr), service, req)
	span.End()
	wire := time.Since(start)
	if resp != nil {
		// Merge the broker-side spans shipped back on the response so the
		// front end's /tracez shows the whole cross-process tree (wire →
		// queue → cache/cluster/backend → retry), attributed to the pool
		// member that recorded them.
		for _, sp := range resp.RemoteSpans {
			tr.RemoteSpan(sp.Stage, sp.Start, sp.End, sp.Note, sp.Broker)
		}
	}
	ana.observe(string(req.Payload), resp, err, wire)
	switch {
	case err != nil:
		tr.SetStatus("error")
		slog.Debug("frontend: broker call failed",
			"service", service, "trace", req.TraceID.String(), "err", err)
	case resp.Status == broker.StatusDropped:
		tr.SetStatus("dropped")
	case resp.Status == broker.StatusShed:
		tr.SetStatus("shed")
	case resp.Status == broker.StatusError:
		tr.SetStatus("error")
	default:
		tr.SetStatus("ok")
	}
	tr.Finish()
	return resp, req.TraceID, err
}

// splitGateways parses a gateway address spec: one address, or several
// pool members separated by "|" (the same replica separator brokerd's
// -service spec uses).
func splitGateways(spec string) []string {
	var out []string
	for _, a := range strings.Split(spec, "|") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// registryReconcileInterval is how often the deployment models' registries
// sweep for expired leases.
const registryReconcileInterval = 500 * time.Millisecond

// Distributed is the Figure 5 deployment: a front-end web server that
// forwards every routed request to the brokers and relays their responses.
// The brokers behind it may be a replicated pool. It is also everything the
// centralized model has except admission: Centralized embeds it.
type Distributed struct {
	srv  *httpserver.Server
	pool *Pool
	reg  *metrics.Registry
	rec  *trace.Recorder
	ana  analytics

	events   *fleet.Log
	registry *registry.Registry
	// listener applies lease datagrams to registry once EnableRegistry has
	// run (from the start in the centralized model).
	listener *registry.Listener

	// admit, when set, is asked before a request is forwarded; an error
	// answers 503 without touching the brokers (the centralized model).
	admit func(Route) error

	// Metric handles, resolved once in start. sent is "forwarded" in the
	// distributed model and "admitted" in the centralized one.
	sent, errs, dropped, shed *metrics.Counter
}

// NewDistributed starts a front-end web server on addr whose routes call
// brokers behind gatewayAddr — a single gateway or several separated by "|"
// (a replicated pool with health-weighted failover). EnableRegistry adds
// lease-discovered members to the pool.
func NewDistributed(addr, gatewayAddr string, routes []Route, opts ...httpserver.ServerOption) (*Distributed, error) {
	d, err := start(addr, gatewayAddr, routes, "forwarded", opts)
	if err != nil {
		return nil, err
	}
	d.handle(routes)
	return d, nil
}

// start builds the pool and the web server both models share. No route is
// handled yet, so the caller can finish wiring before the first request.
func start(addr, gatewayAddr string, routes []Route, sent string, opts []httpserver.ServerOption) (*Distributed, error) {
	if len(routes) == 0 {
		return nil, errors.New("frontend: no routes")
	}
	reg := metrics.NewRegistry()
	pool, err := NewPool(PoolConfig{Gateways: splitGateways(gatewayAddr), Metrics: reg})
	if err != nil {
		return nil, err
	}
	srv, err := httpserver.NewServer(addr, opts...)
	if err != nil {
		pool.Close()
		return nil, err
	}
	return &Distributed{
		srv: srv, pool: pool, reg: reg,
		sent: reg.Counter(sent), errs: reg.Counter("errors"),
		dropped: reg.Counter("dropped"), shed: reg.Counter("shed"),
	}, nil
}

// handle starts serving the routes.
func (d *Distributed) handle(routes []Route) {
	for _, route := range routes {
		route := route
		d.srv.Handle(route.Pattern, func(req *httpserver.Request) *httpserver.Response {
			return d.serve(req, route)
		})
	}
}

// EnableRegistry starts lease-based pool discovery: REGISTER/RENEW/DEREGISTER
// datagrams (brokerd's -register-to target) maintain pool membership, leases
// are reconciled in the background, and discovered members join the routing
// pool alongside the static gateways. It binds a UDP listener on listenAddr
// for them; once enabled (the centralized model is from the start), a second
// call returns the same listener and listenAddr is unused. The returned
// listener's Addr is the address brokers register to.
func (d *Distributed) EnableRegistry(listenAddr string) (*registry.Listener, error) {
	if d.registry != nil {
		return d.listener, nil
	}
	reg := registry.New(registry.Config{Metrics: d.reg, Logger: slog.Default(), Events: d.events})
	l, err := registry.Listen(listenAddr, reg)
	if err != nil {
		return nil, err
	}
	reg.Start(registryReconcileInterval)
	d.registry, d.listener = reg, l
	d.pool.SetRegistry(reg)
	return l, nil
}

// PoolStatus returns the routing pool's /poolz rows (lease state merged
// with per-member routing health).
func (d *Distributed) PoolStatus() []registry.PoolView { return d.pool.Status() }

// EnableFleet wires the fleet event timeline: the routing pool publishes
// failover, breaker, and stale-serve events into l, and (once discovery is
// enabled) the registry publishes lease lifecycle events. Order-independent
// with EnableRegistry.
func (d *Distributed) EnableFleet(l *fleet.Log) {
	d.events = l
	d.pool.SetEvents(l)
	if d.registry != nil {
		d.registry.SetEvents(l)
	}
}

// Addr returns the web server's address.
func (d *Distributed) Addr() string { return d.srv.Addr().String() }

// Metrics returns the front-end registry: "forwarded" (distributed) or
// "admitted" and "aborted" (centralized), "dropped", "shed", "errors", and
// the pool's and registry's counters.
func (d *Distributed) Metrics() *metrics.Registry { return d.reg }

// EnableTracing assigns each forwarded request an end-to-end trace ID,
// records the front end's wire span into rec, and propagates the ID to the
// brokers over the wire protocol. Share rec with the obs admin server to
// expose /tracez.
func (d *Distributed) EnableTracing(rec *trace.Recorder) { d.rec = rec }

// EnableAnalytics attaches the front end's workload measurement: hk tracks
// per-key frequency, broker-cache-hit ratio, and latency for the /hotz page.
func (d *Distributed) EnableAnalytics(hk *sketch.Tracker) {
	d.ana = analytics{hotkeys: hk}
}

// AdminPages returns a row renderer for every admin page the front end has
// something to say on, keyed by page path: /poolz always (each leased
// member's load is on its row), /hotz when EnableAnalytics attached a
// tracker. Rows are labelled with name. Call it after the Enable* calls.
func (d *Distributed) AdminPages(name string) map[string]func(w io.Writer, limit int) {
	pages := map[string]func(io.Writer, int){
		"/poolz": func(w io.Writer, _ int) { registry.WritePool(w, name, d.PoolStatus()) },
	}
	if hk := d.ana.hotkeys; hk != nil {
		pages["/hotz"] = func(w io.Writer, limit int) { hk.Snapshot().WriteRows(w, name, limit) }
	}
	return pages
}

func (d *Distributed) serve(req *httpserver.Request, route Route) *httpserver.Response {
	if d.admit != nil {
		if err := d.admit(route); err != nil {
			return httpserver.Error(503, err.Error())
		}
	}
	d.sent.Inc()
	txnID, step, idemKey := txnOf(req)
	resp, traceID, err := tracedCall(d.rec, d.ana, d.pool, route.Service, &broker.Request{
		Payload: payloadOf(req, route),
		Class:   classOf(req, route),
		TxnID:   txnID,
		TxnStep: step,
		IdemKey: idemKey,
	})
	if err != nil {
		d.errs.Inc()
		return httpserver.Error(502, err.Error())
	}
	switch resp.Status {
	case broker.StatusDropped:
		d.dropped.Inc()
	case broker.StatusShed:
		d.shed.Inc()
	}
	return respond(resp, traceID)
}

// Drain gracefully stops the web server: no new connections, in-flight
// requests run to completion (bounded by ctx). Call before Close.
func (d *Distributed) Drain(ctx context.Context) error { return d.srv.Drain(ctx) }

// Close stops the web server, the gateway pool, the listener (when there is
// one) and the lease reconciliation loop (when discovery is enabled).
func (d *Distributed) Close() error {
	err := d.srv.Close()
	if cerr := d.pool.Close(); err == nil {
		err = cerr
	}
	if d.listener != nil {
		if lerr := d.listener.Close(); err == nil {
			err = lerr
		}
	}
	if d.registry != nil {
		d.registry.Close()
	}
	return err
}

// Demand is one entry of a URL resource profile: the request needs the
// given service, weighted by how heavily it uses it.
type Demand struct {
	Service string
	// Weight scales the admission margin: a request of weight w is admitted
	// only while the service's outstanding + w ≤ threshold. Weight 1 is a
	// single backend access.
	Weight int
}

// Centralized is the Figure 4 deployment: the distributed front end with its
// lease registry enabled, per-URL resource profiles, and an admission check
// against the leased brokers' load that aborts doomed requests before they
// are forwarded.
type Centralized struct {
	*Distributed
	profiles map[string][]Demand // pattern → demands
	aborted  *metrics.Counter
	// registrations and renewals are the registry's lease counters: each
	// lease datagram the listener applies bumps one of them.
	registrations, renewals *metrics.Counter
}

// NewCentralized starts the centralized front end. listenAddr is the UDP
// address its listener thread binds for broker leases (brokerd
// -register-to); each route's resource profile is given in profiles keyed by
// route pattern (routes without a profile are admitted unconditionally).
// gatewayAddr may name several pool members separated by "|".
func NewCentralized(addr, gatewayAddr, listenAddr string, routes []Route, profiles map[string][]Demand, opts ...httpserver.ServerOption) (*Centralized, error) {
	d, err := start(addr, gatewayAddr, routes, "admitted", opts)
	if err != nil {
		return nil, err
	}
	if _, err := d.EnableRegistry(listenAddr); err != nil {
		d.Close()
		return nil, err
	}
	c := &Centralized{
		Distributed: d, profiles: profiles, aborted: d.reg.Counter("aborted"),
		registrations: d.reg.Counter("lease_registrations"), renewals: d.reg.Counter("lease_renewals"),
	}
	d.admit = c.admit
	d.handle(routes)
	return c, nil
}

// ListenerAddr returns the UDP address brokers should register to.
func (c *Centralized) ListenerAddr() string { return c.listener.Addr() }

// ListenerUpdates counts the lease datagrams the listener thread has applied
// — the update workload the paper's scalability discussion is about.
func (c *Centralized) ListenerUpdates() int {
	return int(c.registrations.Value() + c.renewals.Value())
}

// admit applies the centralized admission check for one route, counting the
// requests it turns away. A demand is admitted when some live member of its
// service has the headroom for it and has not declared a hot spot; a service
// with no live lease fails open, like the paper's warmup.
func (c *Centralized) admit(route Route) error {
	for _, d := range c.profiles[route.Pattern] {
		members := c.registry.Members(d.Service)
		if len(members) == 0 {
			continue
		}
		weight := max(d.Weight, 1)
		if !slices.ContainsFunc(members, func(m registry.Member) bool {
			return !m.Load.Hot && m.Load.Outstanding+weight <= m.Load.Threshold
		}) {
			c.aborted.Inc()
			load := members[0].Load
			return fmt.Errorf("frontend: service %s overloaded (%d/%d outstanding, hot=%v, %d live members)",
				d.Service, load.Outstanding, load.Threshold, load.Hot, len(members))
		}
	}
	return nil
}
