package registry

import (
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/fleet"
	"servicebroker/internal/metrics"
)

// Member is one live pool member: a broker gateway holding a valid lease
// for a service.
type Member struct {
	Service string
	// Addr is the gateway address the front end dials to reach this member.
	Addr string
	// Registered is when the current lease incarnation began (a rejoin after
	// expiry starts a new incarnation).
	Registered time.Time
	// LastSeen is the arrival time of the most recent REGISTER/RENEW.
	LastSeen time.Time
	// Expires is when the lease lapses unless renewed.
	Expires time.Time
	// Renewals counts RENEWs within the current incarnation.
	Renewals int
	// Load is the summary piggybacked on the latest REGISTER/RENEW.
	Load broker.LoadReport
	// AdminAddr is the admin-plane HTTP address the member advertised on
	// its latest REGISTER/RENEW (the optional admin= field), so a fleet
	// federator can scrape it. Empty when the member advertises none.
	AdminAddr string
}

// PoolView is one row of pool state as rendered on /poolz (WritePool). It
// merges lease bookkeeping (from the registry) with routing health (from the
// frontend pool's breakers).
type PoolView struct {
	Service string
	Addr    string
	// Source is how the member entered the pool: "static" (configured
	// gateway address) or "lease" (self-registered).
	Source string
	// State is the row's condition: "live", "expired" (lease lapsed, shown
	// until reconciliation forgets the tombstone), or a breaker state such
	// as "open" supplied by the routing layer.
	State string
	// TTLRemaining is time until lease expiry; zero or negative when
	// expired, zero for static members with no lease.
	TTLRemaining time.Duration
	Renewals     int
	Outstanding  int
	Threshold    int
	QueueLen     int
	Hot          bool
	// Failures and Failovers are routing-layer counters (zero when the row
	// comes straight from the registry with no pool attached).
	Failures  int64
	Failovers int64
	LastError string
}

// WritePool renders one pool's views as /poolz rows, or a "(no members)"
// line for an empty pool. It is the only renderer of a PoolView: /fleetz
// shows the same rows.
func WritePool(w io.Writer, pool string, views []PoolView) {
	if len(views) == 0 {
		fmt.Fprintf(w, "pool=%s (no members)\n", pool)
		return
	}
	for _, v := range views {
		state := "cool"
		if v.Hot {
			state = "hot"
		}
		fmt.Fprintf(w, "pool=%s service=%s addr=%s source=%s state=%s ttl=%s renewals=%d outstanding=%d/%d queue=%d %s failures=%d failovers=%d",
			pool, v.Service, v.Addr, v.Source, v.State,
			v.TTLRemaining.Round(time.Millisecond), v.Renewals,
			v.Outstanding, v.Threshold, v.QueueLen, state, v.Failures, v.Failovers)
		if v.LastError != "" {
			fmt.Fprintf(w, " last_error=%q", v.LastError)
		}
		fmt.Fprintln(w)
	}
}

// Config parameterizes a Registry. The zero value is usable.
type Config struct {
	// Clock substitutes a time source for tests; nil means time.Now.
	Clock func() time.Time
	// Metrics, when set, receives broker_pool_size gauges and lease_*
	// counters.
	Metrics *metrics.Registry
	// Logger, when set, records membership transitions.
	Logger *slog.Logger
	// TombstoneFor bounds how long an expired member is remembered (for
	// rejoin detection and /poolz display). Zero means 1 minute.
	TombstoneFor time.Duration
	// Events, when set, receives fleet timeline entries for every
	// membership transition (join, rejoin, expiry, leave). Nil disables
	// event publishing (every Log method is nil-safe).
	Events *fleet.Log
}

// Registry tracks lease-based pool membership for every service a front
// end routes. It is driven by Apply (one call per parsed datagram) and by a
// periodic Reconcile that expires lapsed leases. All methods are safe for
// concurrent use.
type Registry struct {
	cfg Config

	mu      sync.Mutex
	members map[string]map[string]*Member // service → addr → member
	// tombstones remembers recently expired/deregistered members so a
	// returning broker is counted as a rejoin and /poolz can show the gap.
	tombstones map[string]map[string]time.Time // service → addr → when
	closed     bool
	done       chan struct{}

	poolSize      *metrics.Gauge
	registrations *metrics.Counter
	renewals      *metrics.Counter
	expirations   *metrics.Counter
	deregs        *metrics.Counter
	rejoins       *metrics.Counter
}

// maxTrackedMembers caps members+tombstones per service, and
// maxTrackedServices caps distinct services, so a spoofed datagram flood
// cannot grow the tables (or the per-service gauge set) without bound.
const (
	maxTrackedMembers  = 256
	maxTrackedServices = 256
)

// New builds a Registry from cfg.
func New(cfg Config) *Registry {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.TombstoneFor <= 0 {
		cfg.TombstoneFor = time.Minute
	}
	r := &Registry{
		cfg:        cfg,
		members:    make(map[string]map[string]*Member),
		tombstones: make(map[string]map[string]time.Time),
	}
	if m := cfg.Metrics; m != nil {
		r.poolSize = m.Gauge("broker_pool_size")
		r.registrations = m.Counter("lease_registrations")
		r.renewals = m.Counter("lease_renewals")
		r.expirations = m.Counter("lease_expirations")
		r.deregs = m.Counter("lease_deregistrations")
		r.rejoins = m.Counter("lease_rejoins")
	}
	return r
}

// SetEvents attaches (or replaces) the fleet event log membership
// transitions publish into; the deployment models call this when fleet
// observability is enabled after the registry is built.
func (r *Registry) SetEvents(l *fleet.Log) {
	r.mu.Lock()
	r.cfg.Events = l
	r.mu.Unlock()
}

// Apply folds one parsed command into the membership table.
func (r *Registry) Apply(cmd Command) {
	now := r.cfg.Clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	switch cmd.Verb {
	case VerbRegister, VerbRenew:
		r.admit(cmd, now)
	case VerbDeregister:
		r.withdraw(cmd, now)
	}
}

// admit handles REGISTER and RENEW under r.mu. RENEW for an unknown member
// admits it: after a front-end restart the first renewal from each broker
// rebuilds the pool without waiting for re-registration.
func (r *Registry) admit(cmd Command, now time.Time) {
	svc := r.members[cmd.Service]
	if svc == nil {
		if len(r.members) >= maxTrackedServices {
			return
		}
		svc = make(map[string]*Member)
		r.members[cmd.Service] = svc
	}
	m := svc[cmd.Addr]
	if m != nil && now.Before(m.Expires) {
		// Live lease: extend it.
		m.LastSeen = now
		m.Expires = now.Add(cmd.TTL)
		m.Load = cmd.Load
		if cmd.AdminAddr != "" {
			m.AdminAddr = cmd.AdminAddr
		}
		if cmd.Verb == VerbRenew {
			m.Renewals++
			count(r.renewals)
		} else {
			count(r.registrations)
		}
		return
	}
	// New member, or a lapsed lease coming back: new incarnation.
	if len(svc) >= maxTrackedMembers && m == nil {
		return
	}
	rejoin := m != nil || r.hadTombstone(cmd.Service, cmd.Addr)
	if m != nil {
		// Lapsed but not yet reconciled away; count the expiry now so the
		// metric reflects reality regardless of reconcile granularity.
		count(r.expirations)
	}
	svc[cmd.Addr] = &Member{
		Service:    cmd.Service,
		Addr:       cmd.Addr,
		Registered: now,
		LastSeen:   now,
		Expires:    now.Add(cmd.TTL),
		Load:       cmd.Load,
		AdminAddr:  cmd.AdminAddr,
	}
	delete(r.tombstones[cmd.Service], cmd.Addr)
	count(r.registrations)
	if rejoin {
		count(r.rejoins)
		r.logf("broker rejoined pool", cmd.Service, cmd.Addr)
		r.event(fleet.KindLeaseRejoin, cmd.Service, cmd.Addr, "lease re-established after gap")
	} else {
		r.logf("broker joined pool", cmd.Service, cmd.Addr)
		r.event(fleet.KindLeaseJoin, cmd.Service, cmd.Addr, "first lease for this member")
	}
	r.updatePoolSize()
}

// withdraw handles DEREGISTER under r.mu.
func (r *Registry) withdraw(cmd Command, now time.Time) {
	svc := r.members[cmd.Service]
	if svc == nil || svc[cmd.Addr] == nil {
		return
	}
	delete(svc, cmd.Addr)
	if len(svc) == 0 {
		delete(r.members, cmd.Service)
		if r.cfg.Metrics != nil {
			r.cfg.Metrics.Gauge("broker_pool_size_" + cmd.Service).Set(0)
		}
	}
	r.tombstone(cmd.Service, cmd.Addr, now)
	count(r.deregs)
	r.logf("broker left pool", cmd.Service, cmd.Addr)
	r.event(fleet.KindLeaseLeave, cmd.Service, cmd.Addr, "member deregistered (graceful shutdown)")
	r.updatePoolSize()
}

// Reconcile expires every lapsed lease and prunes old tombstones. It
// returns the number of leases expired. Members/Snapshot already filter
// lapsed leases on read, so correctness never depends on how often this
// runs — it exists to emit expiry transitions (metrics, logs, tombstones)
// promptly and to bound the tables.
func (r *Registry) Reconcile() int {
	now := r.cfg.Clock()
	expired := 0
	r.mu.Lock()
	defer r.mu.Unlock()
	for service, svc := range r.members {
		for addr, m := range svc {
			if now.Before(m.Expires) {
				continue
			}
			delete(svc, addr)
			r.tombstone(service, addr, now)
			expired++
			count(r.expirations)
			r.logf("broker lease expired", service, addr)
			r.event(fleet.KindLeaseExpired, service, addr, "lease lapsed without renewal")
		}
		if len(svc) == 0 {
			delete(r.members, service)
			if r.cfg.Metrics != nil {
				r.cfg.Metrics.Gauge("broker_pool_size_" + service).Set(0)
			}
		}
	}
	for service, ts := range r.tombstones {
		for addr, at := range ts {
			if now.Sub(at) > r.cfg.TombstoneFor {
				delete(ts, addr)
			}
		}
		if len(ts) == 0 {
			delete(r.tombstones, service)
		}
	}
	if expired > 0 {
		r.updatePoolSize()
	}
	return expired
}

// Members returns the live members for a service, lapsed leases filtered
// out, sorted by address for deterministic iteration.
func (r *Registry) Members(service string) []Member {
	now := r.cfg.Clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	svc := r.members[service]
	out := make([]Member, 0, len(svc))
	for _, m := range svc {
		if now.Before(m.Expires) {
			out = append(out, *m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// FleetMembers returns every live member that advertised an admin-plane
// address, as federator member infos (Name is the gateway address, matching
// /poolz rows and /tracez broker tags). It is the natural Discover hook for
// a fleet.Federator: membership follows the leases with no extra config.
func (r *Registry) FleetMembers() []fleet.MemberInfo {
	now := r.cfg.Clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []fleet.MemberInfo
	for _, svc := range r.members {
		for _, m := range svc {
			if m.AdminAddr != "" && now.Before(m.Expires) {
				out = append(out, fleet.MemberInfo{Name: m.Addr, AdminAddr: m.AdminAddr})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	// A member hosting several services appears once per service in the
	// table; collapse duplicates (same gateway, same admin plane).
	dedup := out[:0]
	for i, m := range out {
		if i == 0 || m != out[i-1] {
			dedup = append(dedup, m)
		}
	}
	return dedup
}

// Snapshot returns every row the registry knows about — live members and
// not-yet-forgotten tombstones — as PoolViews for /poolz.
func (r *Registry) Snapshot() []PoolView {
	now := r.cfg.Clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []PoolView
	for _, svc := range r.members {
		for _, m := range svc {
			v := PoolView{
				Service:      m.Service,
				Addr:         m.Addr,
				Source:       "lease",
				State:        "live",
				TTLRemaining: m.Expires.Sub(now),
				Renewals:     m.Renewals,
				Outstanding:  m.Load.Outstanding,
				Threshold:    m.Load.Threshold,
				QueueLen:     m.Load.QueueLen,
				Hot:          m.Load.Hot,
			}
			if !now.Before(m.Expires) {
				v.State = "expired"
				v.TTLRemaining = 0
			}
			out = append(out, v)
		}
	}
	for service, ts := range r.tombstones {
		for addr := range ts {
			out = append(out, PoolView{
				Service: service,
				Addr:    addr,
				Source:  "lease",
				State:   "expired",
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Service != out[j].Service {
			return out[i].Service < out[j].Service
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// Start launches the reconciliation loop at the given interval (zero means
// one second) and returns the registry for chaining.
func (r *Registry) Start(interval time.Duration) *Registry {
	if interval <= 0 {
		interval = time.Second
	}
	r.mu.Lock()
	if r.done != nil || r.closed {
		r.mu.Unlock()
		return r
	}
	r.done = make(chan struct{})
	done := r.done
	r.mu.Unlock()
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				r.Reconcile()
			}
		}
	}()
	return r
}

// Close stops the reconciliation loop. It is idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	if r.done != nil {
		close(r.done)
	}
}

// hadTombstone reports whether (service, addr) expired or deregistered
// recently. Caller holds r.mu.
func (r *Registry) hadTombstone(service, addr string) bool {
	ts := r.tombstones[service]
	if ts == nil {
		return false
	}
	_, ok := ts[addr]
	return ok
}

// tombstone records a departure. Caller holds r.mu.
func (r *Registry) tombstone(service, addr string, now time.Time) {
	ts := r.tombstones[service]
	if ts == nil {
		ts = make(map[string]time.Time)
		r.tombstones[service] = ts
	}
	if len(ts) < maxTrackedMembers {
		ts[addr] = now
	}
}

// updatePoolSize refreshes gauges. Caller holds r.mu.
func (r *Registry) updatePoolSize() {
	if r.poolSize == nil {
		return
	}
	total := 0
	for service, svc := range r.members {
		total += len(svc)
		r.cfg.Metrics.Gauge("broker_pool_size_" + service).Set(int64(len(svc)))
	}
	r.poolSize.Set(int64(total))
}

func (r *Registry) logf(msg, service, addr string) {
	if r.cfg.Logger != nil {
		r.cfg.Logger.Info(msg, "service", service, "addr", addr)
	}
}

// event publishes one membership transition onto the fleet timeline.
// Publish never blocks, so calling under r.mu is safe.
func (r *Registry) event(kind fleet.Kind, service, addr, detail string) {
	r.cfg.Events.Publish(fleet.Event{Kind: kind, Service: service, Member: addr, Detail: detail})
}

func count(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}
