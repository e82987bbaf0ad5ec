package frontend

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/registry"
)

// sendReport serializes one report as a LOAD datagram (registry.ParseCommand
// documents the line format) and sends it, best effort — UDP.
func sendReport(conn net.Conn, r broker.LoadReport) {
	fmt.Fprint(conn, registry.FormatCommand(registry.Command{Verb: registry.VerbLoad, Service: r.Service, Load: r}))
}

// dialReport opens the UDP socket a Reporter writes to.
func dialReport(addr string) (net.Conn, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("frontend: dial listener %s: %w", addr, err)
	}
	return conn, nil
}

// DefaultLoadTTL is how long a load report stays trusted without a refresh.
// A broker that stopped reporting is more likely dead than idle; serving
// its last-known load forever would let centralized admission keep
// admitting (or keep aborting) against a ghost.
const DefaultLoadTTL = 15 * time.Second

// loadEntry is one service's latest report plus its arrival time.
type loadEntry struct {
	report broker.LoadReport
	at     time.Time
}

// LoadEntry is one /loadz row: a report with its age and staleness.
type LoadEntry struct {
	Report broker.LoadReport
	Age    time.Duration
	// Stale means the report has outlived the listener's TTL: it is shown
	// for diagnosis but no longer consulted by admission control.
	Stale bool
}

// WriteRow renders the entry as one /loadz row: the report's own row plus
// its age, marked "stale" once it no longer steers admission.
func (e LoadEntry) WriteRow(w io.Writer) {
	fmt.Fprintf(w, "%s age=%s", e.Report.Row(), e.Age.Round(time.Millisecond))
	if e.Stale {
		fmt.Fprint(w, " stale")
	}
	fmt.Fprintln(w)
}

// ListenerOption configures a Listener.
type ListenerOption func(*Listener)

// WithLoadTTL overrides how long a load report stays fresh (default
// DefaultLoadTTL). Zero or negative keeps the default.
func WithLoadTTL(d time.Duration) ListenerOption {
	return func(l *Listener) {
		if d > 0 {
			l.ttl = d
		}
	}
}

// WithRegistry attaches a broker-pool registry: the registration commands
// (REGISTER/RENEW/DEREGISTER) are applied to it, so leases share the
// load-report socket. Loads piggybacked on REGISTER/RENEW also refresh the
// admission table.
func WithRegistry(r *registry.Registry) ListenerOption {
	return func(l *Listener) { l.registry = r }
}

// AttachRegistry attaches a registry after construction (the centralized
// model enables pooling on an already-running listener).
func (l *Listener) AttachRegistry(r *registry.Registry) {
	l.mu.Lock()
	l.registry = r
	l.mu.Unlock()
}

// reg reads the attached registry under the lock.
func (l *Listener) reg() *registry.Registry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.registry
}

// withClock substitutes the listener's time source (tests).
func withClock(now func() time.Time) ListenerOption {
	return func(l *Listener) { l.now = now }
}

// Listener is the centralized model's listener thread: a goroutine that
// receives load-report datagrams and keeps the latest report per service.
// With a registry attached it also accepts lease commands on the same
// socket.
type Listener struct {
	conn net.PacketConn
	ttl  time.Duration
	now  func() time.Time

	mu       sync.Mutex
	registry *registry.Registry
	loads    map[string]loadEntry
	updates  int
	closed   bool

	done chan struct{}
}

// NewListener binds a UDP socket on addr ("127.0.0.1:0" for ephemeral) and
// starts the receive goroutine.
func NewListener(addr string, opts ...ListenerOption) (*Listener, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("frontend: listen %s: %w", addr, err)
	}
	l := &Listener{
		conn:  conn,
		ttl:   DefaultLoadTTL,
		now:   time.Now,
		loads: make(map[string]loadEntry),
		done:  make(chan struct{}),
	}
	for _, o := range opts {
		o(l)
	}
	go l.run()
	return l, nil
}

// Addr returns the bound UDP address.
func (l *Listener) Addr() string { return l.conn.LocalAddr().String() }

func (l *Listener) run() {
	defer close(l.done)
	buf := make([]byte, 512)
	for {
		n, _, err := l.conn.ReadFrom(buf)
		if err != nil {
			return
		}
		cmd, err := registry.ParseCommand(string(buf[:n]))
		if err != nil {
			continue // garbage drops silently
		}
		if cmd.Verb != registry.VerbLoad {
			// A lease command: meaningless without a registry attached.
			r := l.reg()
			if r == nil {
				continue
			}
			r.Apply(cmd)
		}
		if cmd.Verb != registry.VerbDeregister {
			l.Record(cmd.Load)
		}
	}
}

// Load returns the latest report for a service. A report older than the
// listener's TTL is withheld (ok=false): admission then fails open exactly
// as it does before the first report arrives, rather than trusting a
// broker that stopped talking.
func (l *Listener) Load(service string) (broker.LoadReport, bool) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.loads[service]
	if !ok || now.Sub(e.at) > l.ttl {
		return broker.LoadReport{}, false
	}
	return e.report, true
}

// Entries returns every known report — fresh and stale — with ages, sorted
// by service, for /loadz.
func (l *Listener) Entries() []LoadEntry {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LoadEntry, 0, len(l.loads))
	for _, e := range l.loads {
		age := now.Sub(e.at)
		out = append(out, LoadEntry{Report: e.report, Age: age, Stale: age > l.ttl})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Report.Service < out[j].Report.Service })
	return out
}

// Updates counts processed report datagrams (the listener-thread workload
// the paper's scalability discussion is about).
func (l *Listener) Updates() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.updates
}

// Record injects a report directly (in-process deployments and tests).
func (l *Listener) Record(r broker.LoadReport) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.loads[r.Service] = loadEntry{report: r, at: now}
	l.updates++
}

// Close stops the receive goroutine and releases the socket.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	err := l.conn.Close()
	<-l.done
	return err
}
