package frontend

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/cache"
	"servicebroker/internal/fleet"
	"servicebroker/internal/metrics"
	"servicebroker/internal/qos"
	"servicebroker/internal/registry"
	"servicebroker/internal/resilience"
	"servicebroker/internal/trace"
	"servicebroker/internal/wire"
)

// caller is the gateway-call surface of one pool member: a *broker.Client,
// or a fake in tests.
type caller interface {
	Do(ctx context.Context, service string, req *broker.Request) (*broker.Response, error)
	Close() error
}

// PoolConfig parameterizes a broker Pool.
type PoolConfig struct {
	// Gateways are statically configured member addresses (always
	// candidates, for every service).
	Gateways []string
	// Registry, when set, contributes lease-discovered members per service.
	Registry *registry.Registry
	// AttemptTimeout bounds one member attempt when another candidate is
	// waiting behind it; zero means DefaultAttemptTimeout. A single-member
	// pool with no request deadline is never cut short.
	AttemptTimeout time.Duration
	// Breaker configures the per-member circuit breakers.
	Breaker resilience.BreakerConfig
	// Metrics, when set, receives pool_* counters.
	Metrics *metrics.Registry
	// WireOpts apply to every member client dialed by the pool.
	WireOpts []wire.ClientOption
}

// DefaultAttemptTimeout caps one member attempt during failover.
const DefaultAttemptTimeout = 150 * time.Millisecond

// staleEntries sizes the last-good-response cache used to answer
// low-fidelity classes when every member is down.
const staleEntries = 256

// staleTTL is how long a remembered response may be served stale — long,
// because it is only consulted when the whole pool is unreachable.
const staleTTL = 5 * time.Minute

// lowFidelityClass is the first class that trades failover persistence for
// stale serves: classes below it (premium) try every member, classes at or
// above it stop after two attempts and may answer from the stale cache at
// qos.FidelityLow — the degradation ladder of PR 2, one tier up.
const lowFidelityClass = qos.Class(3)

// poolMember is one gateway the pool can route to.
type poolMember struct {
	addr    string
	static  bool
	breaker *resilience.Breaker

	mu        sync.Mutex
	cli       caller // a *broker.Client outside tests
	failures  int64
	failovers int64
	lastErr   string
}

// Pool fans requests over a replicated broker tier: static gateway
// addresses plus lease-discovered members, ordered by health (piggybacked
// load + breaker state), with deadline-budgeted failover to the next member
// when one fails. It implements the same Do surface as broker.Client.
type Pool struct {
	cfg   PoolConfig
	stale *cache.Cache

	mu      sync.Mutex
	members map[string]*poolMember
	closed  bool
	events  *fleet.Log

	failovers   *metrics.Counter
	staleServed *metrics.Counter
	exhausted   *metrics.Counter
}

// NewPool builds a pool. At least one static gateway or a registry must be
// configured. Static members are dialed eagerly (so a bad address fails
// construction, like DialGateway); discovered members are dialed on first
// use.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if len(cfg.Gateways) == 0 && cfg.Registry == nil {
		return nil, errors.New("frontend: pool needs static gateways or a registry")
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = DefaultAttemptTimeout
	}
	p := &Pool{
		cfg: cfg, members: make(map[string]*poolMember),
		stale: cache.New(staleEntries, cache.WithDefaultTTL(staleTTL)),
	}
	if m := cfg.Metrics; m != nil {
		p.failovers = m.Counter("pool_failovers")
		p.staleServed = m.Counter("pool_stale_served")
		p.exhausted = m.Counter("pool_exhausted")
	}
	for _, addr := range cfg.Gateways {
		mem := p.member(addr, true)
		if _, err := p.clientFor(mem); err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

// SetRegistry attaches (or replaces) the member-discovery registry; the
// deployment models call this when lease registration is enabled after the
// pool is built.
func (p *Pool) SetRegistry(r *registry.Registry) {
	p.mu.Lock()
	p.cfg.Registry = r
	p.mu.Unlock()
}

// registry reads the discovery registry under the lock.
func (p *Pool) registry() *registry.Registry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cfg.Registry
}

// SetEvents attaches (or replaces) the fleet event log the pool publishes
// routing decisions into: failovers, breaker transitions and stale serves,
// each linked to the triggering request's trace ID when it was traced. The
// deployment models call this when fleet observability is enabled after the
// pool is built; without it nothing is published.
func (p *Pool) SetEvents(l *fleet.Log) {
	p.mu.Lock()
	p.events = l
	p.mu.Unlock()
}

// eventLog reads the fleet event log under the lock. The result may be nil;
// every Log method is nil-safe.
func (p *Pool) eventLog() *fleet.Log {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.events
}

// member returns (creating if needed) the bookkeeping entry for addr.
func (p *Pool) member(addr string, static bool) *poolMember {
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.members[addr]
	if !ok {
		m = &poolMember{
			addr:    addr,
			static:  static,
			breaker: resilience.NewBreaker(addr, p.cfg.Breaker),
		}
		p.members[addr] = m
	}
	if static {
		m.static = true
	}
	return m
}

// clientFor lazily dials a member's gateway client.
func (p *Pool) clientFor(m *poolMember) (caller, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cli != nil {
		return m.cli, nil
	}
	cli, err := broker.DialGateway(m.addr, p.cfg.WireOpts...)
	if err != nil {
		return nil, err
	}
	m.cli = cli
	return cli, nil
}

// candidate is one routing choice with its selection weight.
type candidate struct {
	member *poolMember
	weight float64
}

// weightOf scores a member by its piggybacked load: utilization plus a hot
// penalty, lower is better. Members without load data score a neutral 0.5
// so an idle reported member beats them but an unknown one beats a busy
// one.
func weightOf(load broker.LoadReport, hasLoad bool) float64 {
	if !hasLoad {
		return 0.5
	}
	thr := load.Threshold
	if thr < 1 {
		thr = 1
	}
	w := float64(load.Outstanding) / float64(thr)
	if load.Hot {
		w += 1
	}
	return w
}

// candidates assembles the member list for a service: lease-discovered
// members (with live load data) unioned with the static gateways, in health
// order, the members whose breaker admits a request ahead of those whose
// breaker is open. live counts the former. Attempts on the open ones bypass
// the breaker: they are the last resort of a premium request, and of every
// request when no member is live (the pool fails open — a guess beats a
// guaranteed error).
func (p *Pool) candidates(service string) (cands []candidate, live int) {
	type seed struct {
		addr    string
		static  bool
		load    broker.LoadReport
		hasLoad bool
	}
	seeds := make(map[string]seed)
	for _, addr := range p.cfg.Gateways {
		seeds[addr] = seed{addr: addr, static: true}
	}
	if reg := p.registry(); reg != nil {
		for _, m := range reg.Members(service) {
			s := seeds[m.Addr]
			s.addr = m.Addr
			s.load, s.hasLoad = m.Load, true
			seeds[m.Addr] = s
		}
	}
	all := make([]candidate, 0, len(seeds))
	for _, s := range seeds {
		all = append(all, candidate{
			member: p.member(s.addr, s.static),
			weight: weightOf(s.load, s.hasLoad),
		})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].weight != all[j].weight {
			return all[i].weight < all[j].weight
		}
		return all[i].member.addr < all[j].member.addr
	})
	var open []candidate
	for _, c := range all {
		if c.member.breaker.Candidate() {
			cands = append(cands, c)
		} else {
			open = append(open, c)
		}
	}
	return append(cands, open...), len(cands)
}

// staleKey identifies one (service, payload) response in the stale cache.
func staleKey(service string, payload []byte) string {
	return service + "\x00" + string(payload)
}

// Do routes one request: try members in health order, failing over on
// transport errors within the caller's deadline budget. Premium classes
// (below lowFidelityClass) try every candidate, open-breaker members last;
// lower classes stop after two attempts on live members and fall back to a
// stale answer at qos.FidelityLow when one is cached — losing freshness
// instead of failing, while premium traffic gets every chance at a live
// broker.
func (p *Pool) Do(ctx context.Context, service string, req *broker.Request) (*broker.Response, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, wire.ErrClientClosed
	}
	p.mu.Unlock()

	cands, live := p.candidates(service)
	if len(cands) == 0 {
		return nil, fmt.Errorf("frontend: no pool members for service %q", service)
	}
	// Late transaction steps are premium regardless of base class: aborting
	// a transaction at step 2+ wastes the completed steps and forces
	// compensation, so near-complete transactions get every failover chance
	// (the same reasoning that escalates their class at the broker).
	premium := (req.Class != 0 && req.Class < lowFidelityClass) ||
		(req.TxnID != "" && req.TxnStep >= 2)
	if !premium && live > 0 {
		cands = cands[:live]
	}
	maxAttempts := len(cands)
	if !premium && maxAttempts > 2 {
		maxAttempts = 2
	}
	deadline, hasDeadline := ctx.Deadline()

	// act annotates the caller's trace (when there is one) with the pool's
	// routing decisions: every failover hop becomes a StageFailover span so
	// the stitched cross-broker tree shows where and why the request moved.
	act := trace.FromContext(ctx)
	traceID := uint64(req.TraceID)

	var lastErr error
	var lastResp *broker.Response
	for i, sent := 0, 0; i < len(cands) && sent < maxAttempts; i++ {
		cand := cands[i]
		attemptStart := time.Now()
		cli, err := p.clientFor(cand.member)
		acquired := false
		if err == nil && i < live {
			if acquired = cand.member.breaker.Acquire(); !acquired {
				// Raced open since the Candidate check. That costs no
				// attempt, and a premium request comes back to the member
				// with the other open ones.
				if premium {
					cands = append(cands, cand)
				}
				continue
			}
		}
		sent++
		more := sent < maxAttempts && i < len(cands)-1
		if err != nil {
			lastErr = err
			p.noteFailure(cand.member, err, more, act, traceID, service, attemptStart)
			continue
		}

		// The caller's deadline is split over the live members only. The
		// open-breaker members, tried last, share whatever time is left: a
		// member known to be down takes no budget from one that is up.
		left := maxAttempts - sent + 1
		if i < live {
			left = min(left, live-i)
		}
		attemptCtx, cancel := p.attemptContext(ctx, deadline, hasDeadline, len(cands), left)
		resp, err := cli.Do(attemptCtx, service, req)
		if cancel != nil {
			cancel()
		}
		if err != nil && attemptCtx.Err() != nil && ctx.Err() == nil {
			// The per-attempt budget expired, not the caller's deadline:
			// report it as such so the breaker counts it against the member.
			err = fmt.Errorf("frontend: pool attempt to %s: %w", cand.member.addr, context.DeadlineExceeded)
		}
		if acquired {
			before := cand.member.breaker.State()
			cand.member.breaker.Done(err)
			p.noteBreaker(cand.member, before, service, traceID, err)
		}
		if err == nil {
			if resp.Status == broker.StatusError && more {
				// The member is alive but cannot serve this (e.g. it does not
				// host the service): not a breaker failure, but another
				// member may do better.
				lastResp, lastErr = resp, nil
				p.countFailover()
				// Keep the failed member's spans on the stitched tree: the
				// trace shows what that broker did before the request moved.
				for _, sp := range resp.RemoteSpans {
					act.RemoteSpan(sp.Stage, sp.Start, sp.End, sp.Note, sp.Broker)
				}
				act.Span(trace.StageFailover, attemptStart, time.Now(),
					fmt.Sprintf("from=%s status=error", cand.member.addr))
				p.eventLog().Publish(fleet.Event{
					Kind: fleet.KindFailover, Service: service, Member: cand.member.addr,
					Detail: "member answered error status", TraceID: traceID,
				})
				continue
			}
			p.rememberGood(service, req, resp)
			return resp, nil
		}
		lastErr = err
		p.noteFailure(cand.member, err, more, act, traceID, service, attemptStart)
		if ctx.Err() != nil {
			break // the caller's own deadline/cancellation: stop failing over
		}
	}

	if lastResp != nil {
		return lastResp, nil
	}
	count(p.exhausted)
	// Never stale-serve an idempotency-keyed mutation: a remembered payload
	// is not an executed effect, and the caller needs a real disposition to
	// decide between retry and compensation.
	if !premium && req.IdemKey == "" && p.stale != nil {
		if payload, ok := p.stale.GetStale(staleKey(service, req.Payload)); ok {
			count(p.staleServed)
			act.Span(trace.StageFailover, time.Now(), time.Now(), "stale-serve: pool exhausted, answering from last-good cache")
			p.eventLog().Publish(fleet.Event{
				Kind: fleet.KindStaleServe, Service: service,
				Detail: "pool exhausted, served last-good response at low fidelity", TraceID: traceID,
			})
			return &broker.Response{Status: broker.StatusOK, Fidelity: qos.FidelityLow, Payload: payload}, nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("frontend: no admissible pool member for service %q", service)
	}
	return nil, lastErr
}

// attemptContext budgets one attempt. The attempt is cut short only when
// someone could use the time saved: another candidate is waiting, or the
// caller set a deadline that must be split across the remaining attempts.
func (p *Pool) attemptContext(ctx context.Context, deadline time.Time, hasDeadline bool, poolSize, attemptsLeft int) (context.Context, context.CancelFunc) {
	if poolSize <= 1 && !hasDeadline {
		return ctx, nil
	}
	per := p.cfg.AttemptTimeout
	if hasDeadline {
		if budget := time.Until(deadline) / time.Duration(attemptsLeft); budget < per {
			per = budget
		}
	}
	if per <= 0 {
		per = time.Millisecond
	}
	return context.WithTimeout(ctx, per)
}

// rememberGood stores a full/cached OK response for later stale serving.
// Idempotency-keyed mutation outcomes are excluded: they would poison the
// (service, payload) entry for unrelated reads of the same payload, and a
// mutation must never be "served" without executing.
func (p *Pool) rememberGood(service string, req *broker.Request, resp *broker.Response) {
	if p.stale == nil || resp.Status != broker.StatusOK || req.IdemKey != "" {
		return
	}
	if resp.Fidelity != qos.FidelityFull && resp.Fidelity != qos.FidelityCached {
		return
	}
	p.stale.Put(staleKey(service, req.Payload), resp.Payload)
}

// noteFailure records a member failure for /poolz, counts the failover when
// another attempt follows, and annotates the trace/timeline with the hop.
func (p *Pool) noteFailure(m *poolMember, err error, willFailover bool, act *trace.Active, traceID uint64, service string, attemptStart time.Time) {
	m.mu.Lock()
	m.failures++
	if willFailover {
		m.failovers++
	}
	m.lastErr = err.Error()
	m.mu.Unlock()
	if willFailover {
		p.countFailover()
		act.Span(trace.StageFailover, attemptStart, time.Now(),
			fmt.Sprintf("from=%s err=%v", m.addr, err))
		p.eventLog().Publish(fleet.Event{
			Kind: fleet.KindFailover, Service: service, Member: m.addr,
			Detail: err.Error(), TraceID: traceID,
		})
	}
}

// noteBreaker publishes a fleet event when a Done call moved the member's
// breaker across the open/closed boundary, linking the opening event to the
// trace whose failure tripped it.
func (p *Pool) noteBreaker(m *poolMember, before resilience.State, service string, traceID uint64, err error) {
	events := p.eventLog()
	if events == nil {
		return
	}
	after := m.breaker.State()
	if after == before {
		return
	}
	switch {
	case after == resilience.StateOpen && before != resilience.StateOpen:
		detail := "consecutive failures reached threshold"
		if err != nil {
			detail = err.Error()
		}
		events.Publish(fleet.Event{
			Kind: fleet.KindBreakerOpen, Service: service, Member: m.addr,
			Detail: detail, TraceID: traceID,
		})
	case after == resilience.StateClosed && before != resilience.StateClosed:
		events.Publish(fleet.Event{
			Kind: fleet.KindBreakerClose, Service: service, Member: m.addr,
			Detail: "probe succeeded, member restored",
		})
	}
}

func (p *Pool) countFailover() { count(p.failovers) }

func count(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Status merges lease state (from the registry) with routing health (from
// the pool's members) into /poolz rows.
func (p *Pool) Status() []registry.PoolView {
	rows := make(map[string][]registry.PoolView) // addr → lease rows
	if reg := p.registry(); reg != nil {
		for _, v := range reg.Snapshot() {
			rows[v.Addr] = append(rows[v.Addr], v)
		}
	}
	p.mu.Lock()
	members := make([]*poolMember, 0, len(p.members))
	for _, m := range p.members {
		members = append(members, m)
	}
	p.mu.Unlock()
	sort.Slice(members, func(i, j int) bool { return members[i].addr < members[j].addr })

	var out []registry.PoolView
	seen := make(map[string]bool)
	for _, m := range members {
		seen[m.addr] = true
		state := m.breaker.State()
		m.mu.Lock()
		failures, failovers, lastErr := m.failures, m.failovers, m.lastErr
		m.mu.Unlock()
		leases := rows[m.addr]
		if len(leases) == 0 && m.static {
			leases = []registry.PoolView{{Addr: m.addr, Service: "*", Source: "static", State: "live"}}
		}
		for _, v := range leases {
			if m.static && v.Source == "" {
				v.Source = "static"
			}
			if state != resilience.StateClosed {
				v.State = v.State + "/" + state.String()
			}
			v.Failures = failures
			v.Failovers = failovers
			v.LastError = lastErr
			out = append(out, v)
		}
	}
	// Lease rows for members the pool has not routed to yet (or tombstones).
	for addr, leases := range rows {
		if seen[addr] {
			continue
		}
		out = append(out, leases...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Service != out[j].Service {
			return out[i].Service < out[j].Service
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// Close releases every member client. The registry, if any, belongs to the
// caller and is not closed.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	members := make([]*poolMember, 0, len(p.members))
	for _, m := range p.members {
		members = append(members, m)
	}
	p.mu.Unlock()
	var err error
	for _, m := range members {
		m.mu.Lock()
		cli := m.cli
		m.cli = nil
		m.mu.Unlock()
		if cli != nil {
			if cerr := cli.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}
