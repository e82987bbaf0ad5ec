package registry

import (
	"fmt"
	"net"
	"sync"
	"time"

	"servicebroker/internal/broker"
)

// RegistrarConfig parameterizes a Registrar.
type RegistrarConfig struct {
	// Service is the service name this broker hosts.
	Service string
	// Addr is the gateway address to advertise ("host:port" the front end
	// should dial).
	Addr string
	// Target is the front end's UDP report/registration listener address.
	Target string
	// TTL is the lease duration requested; zero means 3s.
	TTL time.Duration
	// Interval is the renewal period; zero means TTL/3, so two datagrams
	// can be lost before the lease lapses.
	Interval time.Duration
	// Load, when set, supplies the load summary piggybacked on each
	// REGISTER/RENEW; nil sends zeros.
	Load func() broker.LoadReport
}

// Registrar keeps one broker's lease alive at one front end: REGISTER on
// start, RENEW every Interval, DEREGISTER on Close. Datagram loss is
// tolerated by construction — any later RENEW re-admits the member — so
// sends are fire-and-forget.
type Registrar struct {
	cfg  RegistrarConfig
	conn net.Conn

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

// NewRegistrar validates cfg, sends the initial REGISTER, and starts the
// renewal loop.
func NewRegistrar(cfg RegistrarConfig) (*Registrar, error) {
	if cfg.Service == "" || cfg.Addr == "" || cfg.Target == "" {
		return nil, fmt.Errorf("registry: registrar needs Service, Addr and Target")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 3 * time.Second
	}
	if cfg.TTL < MinTTL || cfg.TTL > MaxTTL {
		return nil, fmt.Errorf("registry: ttl %v outside [%v, %v]", cfg.TTL, MinTTL, MaxTTL)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.TTL / 3
	}
	conn, err := net.Dial("udp", cfg.Target)
	if err != nil {
		return nil, fmt.Errorf("registry: dial %s: %w", cfg.Target, err)
	}
	r := &Registrar{cfg: cfg, conn: conn, done: make(chan struct{})}
	r.send(VerbRegister)
	go r.loop()
	return r, nil
}

func (r *Registrar) loop() {
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
			r.send(VerbRenew)
		}
	}
}

// send emits one datagram; errors are ignored (the lease protocol is built
// on loss: a missed RENEW just shortens the margin before expiry).
func (r *Registrar) send(v Verb) {
	cmd := Command{Verb: v, Service: r.cfg.Service, Addr: r.cfg.Addr, TTL: r.cfg.TTL}
	if v != VerbDeregister && r.cfg.Load != nil {
		cmd.Load = r.cfg.Load()
	}
	cmd.Load.Service = r.cfg.Service
	_, _ = r.conn.Write([]byte(FormatCommand(cmd)))
}

// Close sends DEREGISTER and stops the renewal loop. Idempotent.
func (r *Registrar) Close() {
	if r.stop() {
		r.send(VerbDeregister)
		r.conn.Close()
	}
}

// Abandon stops the renewal loop without sending DEREGISTER, modelling a
// crash: the front end must notice the silence and let the lease lapse. The
// chaos harness uses this; a graceful shutdown uses Close. Idempotent.
func (r *Registrar) Abandon() {
	if r.stop() {
		r.conn.Close()
	}
}

// stop marks the registrar closed and halts the loop; it reports whether
// this call was the one that closed it.
func (r *Registrar) stop() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.closed = true
	close(r.done)
	return true
}
