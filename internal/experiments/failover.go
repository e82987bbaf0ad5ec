package experiments

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/frontend"
	"servicebroker/internal/metrics"
	"servicebroker/internal/netsim"
	"servicebroker/internal/qos"
	"servicebroker/internal/registry"
	"servicebroker/internal/resilience"
	"servicebroker/internal/testutil"
	"servicebroker/internal/wire"
)

// FailoverConfig parameterizes the broker-tier availability ablation: a
// closed-loop client mix runs against a broker pool while a deterministic
// chaos schedule rolls crashes (and a hang and an asymmetric partition)
// through the members. The same workload and schedule run twice — once
// against a single broker and once against a replicated pool with
// lease-based membership — so replication's availability benefit is a
// single-number comparison.
type FailoverConfig struct {
	// Members is the replicated pool size (the single baseline always runs
	// one member and funnels every scheduled fault onto it).
	Members int
	// Service is the hosted service name.
	Service string
	// ProcessTime is the backend's per-request processing cost.
	ProcessTime time.Duration
	// PremiumClients and LowClients size the closed-loop mix (class 1 and
	// class 3 respectively).
	PremiumClients int
	LowClients     int
	// Think is the closed-loop think time between requests.
	Think time.Duration
	// Deadline is the per-request budget; a response arriving later counts
	// against availability even if it eventually succeeds.
	Deadline time.Duration
	// Run is the measured wall-clock length of one mode.
	Run time.Duration
	// Kills crashes roll through the pool starting at KillStart, one every
	// KillInterval, each keeping its member down for DownFor. DownFor <
	// KillInterval keeps at most one member down at a time, the regime an
	// N-replica pool must ride through.
	Kills        int
	KillStart    time.Duration
	KillInterval time.Duration
	DownFor      time.Duration
	// HangAt/HangFor schedule one silent stall (socket open, nothing flows)
	// after the kills; zero HangFor disables it.
	HangAt  time.Duration
	HangFor time.Duration
	// PartitionAt/PartitionFor schedule one outbound partition (requests
	// arrive, answers vanish); zero PartitionFor disables it.
	PartitionAt  time.Duration
	PartitionFor time.Duration
	// Lease timings for the replicated mode.
	LeaseTTL      time.Duration
	RenewInterval time.Duration
	Reconcile     time.Duration
	// Failover timings: one member attempt is cut short after
	// AttemptTimeout; the wire client retransmits after Retransmit, up to
	// WireAttempts sends.
	AttemptTimeout time.Duration
	Retransmit     time.Duration
	WireAttempts   int
	// Breaker ejects a member after BreakerThreshold consecutive failures
	// and re-probes it after BreakerCooldown.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// DefaultFailoverConfig returns the ablation defaults; quick shrinks the run
// so the whole experiment fits in a few seconds.
func DefaultFailoverConfig(quick bool) FailoverConfig {
	cfg := FailoverConfig{
		Members:          3,
		Service:          "db",
		ProcessTime:      2 * time.Millisecond,
		PremiumClients:   4,
		LowClients:       8,
		Think:            5 * time.Millisecond,
		Deadline:         800 * time.Millisecond,
		Run:              6 * time.Second,
		Kills:            3,
		KillStart:        500 * time.Millisecond,
		KillInterval:     1200 * time.Millisecond,
		DownFor:          800 * time.Millisecond,
		HangAt:           4200 * time.Millisecond,
		HangFor:          500 * time.Millisecond,
		PartitionAt:      5000 * time.Millisecond,
		PartitionFor:     500 * time.Millisecond,
		LeaseTTL:         300 * time.Millisecond,
		RenewInterval:    100 * time.Millisecond,
		Reconcile:        50 * time.Millisecond,
		AttemptTimeout:   120 * time.Millisecond,
		Retransmit:       25 * time.Millisecond,
		WireAttempts:     2,
		BreakerThreshold: 2,
		BreakerCooldown:  250 * time.Millisecond,
	}
	if quick {
		cfg.Run = 2500 * time.Millisecond
		cfg.KillStart = 300 * time.Millisecond
		cfg.KillInterval = 600 * time.Millisecond
		cfg.DownFor = 400 * time.Millisecond
		cfg.HangAt = 2100 * time.Millisecond
		cfg.HangFor = 250 * time.Millisecond
		cfg.PartitionAt = 0
		cfg.PartitionFor = 0
	}
	return cfg
}

// FailoverMode is one measured deployment: single broker or replicated pool.
type FailoverMode struct {
	Name    string `json:"name"`
	Members int    `json:"members"`
	// Request accounting. OK counts full- or cached-fidelity successes
	// inside the deadline — the paper's notion of an answered request. Stale
	// serves (FidelityLow from the pool's last-good cache) kept a user from
	// an error page but are not counted as available.
	Issued  int64 `json:"issued"`
	OK      int64 `json:"ok"`
	Stale   int64 `json:"stale"`
	Dropped int64 `json:"dropped"`
	Errors  int64 `json:"errors"`
	// Availability is OK/Issued.
	Availability float64 `json:"availability"`
	// Premium (class 1) accounting; PremiumLost is the acceptance-criterion
	// number — errors or drops experienced by the premium class.
	PremiumIssued int64 `json:"premium_issued"`
	PremiumOK     int64 `json:"premium_ok"`
	PremiumLost   int64 `json:"premium_lost"`
	// Pool-level counters.
	Failovers   int64 `json:"failovers"`
	StaleServed int64 `json:"stale_served"`
	Exhausted   int64 `json:"exhausted"`
	// Lease churn observed by the front end (replicated mode only).
	LeaseExpirations int64 `json:"lease_expirations"`
	LeaseRejoins     int64 `json:"lease_rejoins"`
	PoolSizeEnd      int64 `json:"pool_size_end"`
}

// FailoverResult is the full ablation output (the "failover" entry of
// BENCH_experiments.json).
type FailoverResult struct {
	Service       string       `json:"service"`
	RunSeconds    float64      `json:"run_seconds"`
	DeadlineMs    float64      `json:"deadline_ms"`
	Kills         int          `json:"kills"`
	DownForMs     float64      `json:"down_for_ms"`
	HangForMs     float64      `json:"hang_for_ms"`
	PartitionMs   float64      `json:"partition_ms"`
	LeaseTTLMs    float64      `json:"lease_ttl_ms"`
	Single        FailoverMode `json:"single"`
	Pool          FailoverMode `json:"pool"`
	CollapseRatio float64      `json:"collapse_ratio"` // pool / single availability
}

// chaosMember is one broker replica under chaos control: its gateway socket
// and registrar can be killed and rebuilt on the same address, while its
// netsim gate (shared across restarts) injects the silent faults.
type chaosMember struct {
	index   int
	service string
	target  string // lease listener addr; empty = no registration
	cfg     FailoverConfig
	broker  *broker.Broker
	gate    *netsim.Gate
	addr    string // pinned host:port, stable across crash/restart

	mu  sync.Mutex
	gw  *broker.Gateway
	rgr *registry.Registrar
}

// newChaosMember boots one replica: backend, broker, gated gateway socket,
// and (when target is set) a lease registrar advertising the gateway.
func newChaosMember(i int, target string, cfg FailoverConfig) (*chaosMember, error) {
	// Threshold well above the closed-loop population: this ablation is
	// about crash failover, and QoS shedding on the survivors would blur
	// the availability signal with admission policy.
	b, err := broker.New(&backend.DelayConnector{
		ServiceName: cfg.Service,
		ProcessTime: cfg.ProcessTime,
	}, broker.WithThreshold(64, 4))
	if err != nil {
		return nil, err
	}
	m := &chaosMember{index: i, service: cfg.Service, target: target, cfg: cfg,
		broker: b, gate: &netsim.Gate{}}
	if err := m.start("127.0.0.1:0"); err != nil {
		m.broker.Close()
		return nil, err
	}
	return m, nil
}

// start binds addr (retrying briefly on a restart race for the pinned port),
// wraps the socket with the member's fault gate, and brings up the gateway
// and registrar.
func (m *chaosMember) start(addr string) error {
	var pc net.PacketConn
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		pc, err = net.ListenPacket("udp", addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("experiments: rebind %s: %w", addr, err)
	}
	gw, err := broker.NewGatewayConn(netsim.NewPacketConn(pc, netsim.Profile{}, m.gate),
		map[string]*broker.Broker{m.service: m.broker})
	if err != nil {
		pc.Close()
		return err
	}
	var rgr *registry.Registrar
	if m.target != "" {
		rgr, err = registry.NewRegistrar(registry.RegistrarConfig{
			Service:  m.service,
			Addr:     gw.Addr().String(),
			Target:   m.target,
			TTL:      m.cfg.LeaseTTL,
			Interval: m.cfg.RenewInterval,
			Load:     m.broker.Load,
		})
		if err != nil {
			gw.Close()
			return err
		}
	}
	m.mu.Lock()
	m.gw, m.rgr, m.addr = gw, rgr, gw.Addr().String()
	m.mu.Unlock()
	return nil
}

// crash kills the member the hard way: the registrar stops renewing without
// deregistering (the lease must lapse at the front end) and the socket
// closes (peers see ICMP port-unreachable — the fast detection case).
func (m *chaosMember) crash() {
	m.mu.Lock()
	gw, rgr := m.gw, m.rgr
	m.gw, m.rgr = nil, nil
	m.mu.Unlock()
	if rgr != nil {
		rgr.Abandon()
	}
	if gw != nil {
		gw.Close()
	}
}

// restart rebinds the member on its original address and re-registers.
func (m *chaosMember) restart() error {
	return m.start(m.addr)
}

// close tears the member down gracefully at end of run.
func (m *chaosMember) close() {
	m.mu.Lock()
	gw, rgr := m.gw, m.rgr
	m.gw, m.rgr = nil, nil
	m.mu.Unlock()
	if rgr != nil {
		rgr.Close()
	}
	if gw != nil {
		gw.Close()
	}
	m.broker.Close()
}

// failoverSchedule expands the config into chaos events for poolSize
// members: the rolling kill targets members round-robin (so the single
// baseline takes every crash itself), then the hang and partition windows
// exercise the silent fault paths.
func failoverSchedule(cfg FailoverConfig, poolSize int) []testutil.ChaosEvent {
	var events []testutil.ChaosEvent
	for i := 0; i < cfg.Kills; i++ {
		events = append(events, testutil.ChaosEvent{
			At:       cfg.KillStart + time.Duration(i)*cfg.KillInterval,
			Member:   i % poolSize,
			Action:   testutil.ActionCrash,
			Duration: cfg.DownFor,
		})
	}
	if cfg.HangFor > 0 {
		events = append(events, testutil.ChaosEvent{
			At: cfg.HangAt, Member: 0 % poolSize, Action: testutil.ActionHang, Duration: cfg.HangFor,
		})
	}
	if cfg.PartitionFor > 0 {
		events = append(events, testutil.ChaosEvent{
			At: cfg.PartitionAt, Member: 1 % poolSize, Action: testutil.ActionPartitionOut, Duration: cfg.PartitionFor,
		})
	}
	return events
}

// runFailoverMode measures one deployment (poolSize members) under the
// chaos schedule and workload from cfg.
func runFailoverMode(ctx context.Context, cfg FailoverConfig, name string, poolSize int) (FailoverMode, error) {
	mode := FailoverMode{Name: name, Members: poolSize}
	m := metrics.NewRegistry()

	// Replicated mode discovers members through leases; the single baseline
	// routes to one statically configured gateway.
	var reg *registry.Registry
	var listener *registry.Listener
	target := ""
	if poolSize > 1 {
		reg = registry.New(registry.Config{Metrics: m})
		var err error
		listener, err = registry.Listen("127.0.0.1:0", reg)
		if err != nil {
			return mode, err
		}
		defer listener.Close()
		reg.Start(cfg.Reconcile)
		defer reg.Close()
		target = listener.Addr()
	}

	members := make([]*chaosMember, poolSize)
	for i := range members {
		cm, err := newChaosMember(i, target, cfg)
		if err != nil {
			return mode, err
		}
		members[i] = cm
		defer cm.close()
	}

	pcfg := frontend.PoolConfig{
		Registry:       reg,
		Metrics:        m,
		AttemptTimeout: cfg.AttemptTimeout,
		Breaker: resilience.BreakerConfig{
			FailureThreshold: cfg.BreakerThreshold,
			Cooldown:         cfg.BreakerCooldown,
		},
		WireOpts: []wire.ClientOption{
			wire.WithRetransmit(cfg.Retransmit),
			wire.WithAttempts(cfg.WireAttempts),
		},
	}
	if poolSize == 1 {
		pcfg.Gateways = []string{members[0].addr}
	} else {
		// Wait for every initial REGISTER to land before measuring.
		deadline := time.Now().Add(2 * time.Second)
		for len(reg.Members(cfg.Service)) < poolSize {
			if time.Now().After(deadline) {
				return mode, fmt.Errorf("experiments: only %d/%d leases arrived", len(reg.Members(cfg.Service)), poolSize)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	pool, err := frontend.NewPool(pcfg)
	if err != nil {
		return mode, err
	}
	defer pool.Close()

	runCtx, cancel := context.WithTimeout(ctx, cfg.Run)
	defer cancel()

	// A member that cannot rebind stays down for the rest of the run and
	// drags availability with it; the first such error fails the mode.
	// Written by the chaos goroutine only, read after chaosDone.Wait().
	var restartErr error
	var chaosDone sync.WaitGroup
	chaosDone.Add(1)
	go func() {
		defer chaosDone.Done()
		testutil.RunChaos(runCtx, failoverSchedule(cfg, poolSize), testutil.ChaosHooks{
			Crash: func(i int) { members[i].crash() },
			Restart: func(i int) {
				if err := members[i].restart(); err != nil && restartErr == nil {
					restartErr = err
				}
			},
			Hang: func(i int, on bool) { members[i].gate.SetHang(on) },
			PartitionOut: func(i int, on bool) {
				members[i].gate.PartitionOutbound(on)
			},
		})
	}()

	var issued, ok, stale, dropped, errs int64
	var premIssued, premOK, premLost int64
	var clients sync.WaitGroup
	runClient := func(id int, class qos.Class) {
		defer clients.Done()
		seq := 0
		for runCtx.Err() == nil {
			seq++
			// A small repeating key set so the stale cache can answer
			// repeats of earlier queries during an outage.
			payload := []byte(fmt.Sprintf("q%d", (id*7+seq)%8))
			rctx, rcancel := context.WithTimeout(runCtx, cfg.Deadline)
			resp, err := pool.Do(rctx, cfg.Service, &broker.Request{Payload: payload, Class: class})
			rcancel()
			if runCtx.Err() != nil && err != nil {
				break // run ended mid-request; not a measured failure
			}
			atomic.AddInt64(&issued, 1)
			premium := class < qos.Class(3)
			if premium {
				atomic.AddInt64(&premIssued, 1)
			}
			switch {
			case err != nil:
				atomic.AddInt64(&errs, 1)
				if premium {
					atomic.AddInt64(&premLost, 1)
				}
			case resp.Status == broker.StatusOK && resp.Fidelity == qos.FidelityLow:
				atomic.AddInt64(&stale, 1)
			case resp.Status == broker.StatusOK:
				atomic.AddInt64(&ok, 1)
				if premium {
					atomic.AddInt64(&premOK, 1)
				}
			default: // dropped/shed/error status
				atomic.AddInt64(&dropped, 1)
				if premium {
					atomic.AddInt64(&premLost, 1)
				}
			}
			select {
			case <-runCtx.Done():
			case <-time.After(cfg.Think):
			}
		}
	}
	for i := 0; i < cfg.PremiumClients; i++ {
		clients.Add(1)
		go runClient(i, qos.Class1)
	}
	for i := 0; i < cfg.LowClients; i++ {
		clients.Add(1)
		go runClient(cfg.PremiumClients+i, qos.Class3)
	}
	clients.Wait()
	chaosDone.Wait()
	if restartErr != nil {
		return mode, restartErr
	}

	mode.Issued, mode.OK, mode.Stale, mode.Dropped, mode.Errors = issued, ok, stale, dropped, errs
	mode.PremiumIssued, mode.PremiumOK, mode.PremiumLost = premIssued, premOK, premLost
	if issued > 0 {
		mode.Availability = float64(ok) / float64(issued)
	}
	mode.Failovers = m.Counter("pool_failovers").Value()
	mode.StaleServed = m.Counter("pool_stale_served").Value()
	mode.Exhausted = m.Counter("pool_exhausted").Value()
	mode.LeaseExpirations = m.Counter("lease_expirations").Value()
	mode.LeaseRejoins = m.Counter("lease_rejoins").Value()
	mode.PoolSizeEnd = m.Gauge("broker_pool_size").Value()
	return mode, nil
}

// RunBrokerFailover runs the availability ablation: the same closed-loop
// workload and rolling-kill chaos schedule against a single broker and
// against a replicated lease-registered pool. The single baseline collapses
// (every fault takes the only member away); the pool fails over around each
// fault, so within-deadline availability stays high and the premium class
// loses nothing.
func RunBrokerFailover(ctx context.Context, cfg FailoverConfig) (*FailoverResult, error) {
	if cfg.Members < 2 {
		return nil, fmt.Errorf("experiments: failover needs >= 2 pool members, got %d", cfg.Members)
	}
	if cfg.Kills < 1 || cfg.Run <= 0 || cfg.Deadline <= 0 {
		return nil, fmt.Errorf("experiments: failover config needs kills, run, and deadline")
	}
	if cfg.DownFor >= cfg.KillInterval {
		return nil, fmt.Errorf("experiments: DownFor %v must be < KillInterval %v (one member down at a time)",
			cfg.DownFor, cfg.KillInterval)
	}
	single, err := runFailoverMode(ctx, cfg, "single", 1)
	if err != nil {
		return nil, err
	}
	pool, err := runFailoverMode(ctx, cfg, "pool", cfg.Members)
	if err != nil {
		return nil, err
	}
	res := &FailoverResult{
		Service:     cfg.Service,
		RunSeconds:  cfg.Run.Seconds(),
		DeadlineMs:  float64(cfg.Deadline) / float64(time.Millisecond),
		Kills:       cfg.Kills,
		DownForMs:   float64(cfg.DownFor) / float64(time.Millisecond),
		HangForMs:   float64(cfg.HangFor) / float64(time.Millisecond),
		PartitionMs: float64(cfg.PartitionFor) / float64(time.Millisecond),
		LeaseTTLMs:  float64(cfg.LeaseTTL) / float64(time.Millisecond),
		Single:      single,
		Pool:        pool,
	}
	if single.Availability > 0 {
		res.CollapseRatio = pool.Availability / single.Availability
	}
	return res, nil
}
