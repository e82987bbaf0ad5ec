package frontend

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/metrics"
	"servicebroker/internal/qos"
	"servicebroker/internal/registry"
	"servicebroker/internal/resilience"
	"servicebroker/internal/wire"
)

// poolGateway spins up one broker+gateway member answering for "db".
func poolGateway(t *testing.T, tag string) *broker.Gateway {
	t.Helper()
	b, err := broker.New(&backend.DelayConnector{ServiceName: tag})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	g, err := broker.NewGateway("127.0.0.1:0", map[string]*broker.Broker{"db": b})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// fastPool builds a pool with failover-friendly timings for tests.
func fastPool(t *testing.T, cfg PoolConfig) *Pool {
	t.Helper()
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = 100 * time.Millisecond
	}
	cfg.WireOpts = append(cfg.WireOpts, wire.WithRetransmit(25*time.Millisecond), wire.WithAttempts(2))
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPoolFailsOverToLiveMember(t *testing.T) {
	g1 := poolGateway(t, "one")
	g2 := poolGateway(t, "two")
	// Lease loads pin the order: the soon-dead g1 looks idle, so it is
	// tried first and the request must fail over to g2.
	reg := registry.New(registry.Config{})
	reg.Apply(registry.Command{Verb: registry.VerbRegister, Service: "db", Addr: g1.Addr().String(),
		TTL: time.Hour, Load: broker.LoadReport{Service: "db", Outstanding: 0, Threshold: 16}})
	reg.Apply(registry.Command{Verb: registry.VerbRegister, Service: "db", Addr: g2.Addr().String(),
		TTL: time.Hour, Load: broker.LoadReport{Service: "db", Outstanding: 8, Threshold: 16}})
	m := metrics.NewRegistry()
	p := fastPool(t, PoolConfig{Registry: reg, Metrics: m})

	// Kill member one. A premium request must fail over and succeed.
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := p.Do(ctx, "db", &broker.Request{Payload: []byte("x"), Class: qos.Class1})
	if err != nil {
		t.Fatalf("premium request failed despite a live member: %v", err)
	}
	if resp.Status != broker.StatusOK {
		t.Fatalf("status = %v, want OK", resp.Status)
	}
	if m.Counter("pool_failovers").Value() == 0 {
		t.Fatal("failover not counted")
	}
}

func TestPoolPrefersIdleMemberFromLeaseLoad(t *testing.T) {
	// Registry says member A is hot and member B idle: B must be tried
	// first. A is a dead address, so reaching the backend at all proves the
	// order (if A were tried first the call would still succeed via
	// failover, but the failover counter would show it).
	gB := poolGateway(t, "idle")
	deadA := "127.0.0.1:1" // reserved port, nothing listens

	reg := registry.New(registry.Config{})
	reg.Apply(registry.Command{Verb: registry.VerbRegister, Service: "db", Addr: deadA, TTL: time.Minute,
		Load: broker.LoadReport{Service: "db", Outstanding: 16, Threshold: 16, Hot: true}})
	reg.Apply(registry.Command{Verb: registry.VerbRegister, Service: "db", Addr: gB.Addr().String(), TTL: time.Minute,
		Load: broker.LoadReport{Service: "db", Outstanding: 0, Threshold: 16}})

	m := metrics.NewRegistry()
	p := fastPool(t, PoolConfig{Registry: reg, Metrics: m})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := p.Do(ctx, "db", &broker.Request{Payload: []byte("x"), Class: qos.Class1})
	if err != nil || resp.Status != broker.StatusOK {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	if got := m.Counter("pool_failovers").Value(); got != 0 {
		t.Fatalf("health-weighted selection tried the hot/dead member first (%d failovers)", got)
	}
}

func TestPoolStaleFallbackForLowClassesOnly(t *testing.T) {
	g := poolGateway(t, "one")
	p := fastPool(t, PoolConfig{Gateways: []string{g.Addr().String()},
		Metrics: metrics.NewRegistry(),
		Breaker: resilience.BreakerConfig{FailureThreshold: 1000}}) // keep breaker out of this test

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Seed the stale cache with a good answer.
	if _, err := p.Do(ctx, "db", &broker.Request{Payload: []byte("q1"), Class: qos.Class3}); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	// Low class: stale serve at FidelityLow.
	downCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	resp, err := p.Do(downCtx, "db", &broker.Request{Payload: []byte("q1"), Class: qos.Class3})
	if err != nil {
		t.Fatalf("low class got error instead of stale serve: %v", err)
	}
	if resp.Fidelity != qos.FidelityLow || resp.Status != broker.StatusOK {
		t.Fatalf("stale serve = status %v fidelity %v, want OK/low", resp.Status, resp.Fidelity)
	}

	// Premium: an explicit error — never a silent stale answer.
	downCtx2, cancel3 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel3()
	if _, err := p.Do(downCtx2, "db", &broker.Request{Payload: []byte("q1"), Class: qos.Class1}); err == nil {
		t.Fatal("premium request served despite the whole pool being down")
	}
}

func TestPoolBreakerEjectsFailingMember(t *testing.T) {
	g1 := poolGateway(t, "one")
	g2 := poolGateway(t, "two")
	// Pin the selection order via lease loads: the (about to be dead) g1
	// looks idle, the live g2 looks busier, so every attempt starts at g1
	// until its breaker opens.
	reg := registry.New(registry.Config{})
	reg.Apply(registry.Command{Verb: registry.VerbRegister, Service: "db", Addr: g1.Addr().String(),
		TTL: time.Hour, Load: broker.LoadReport{Service: "db", Outstanding: 0, Threshold: 16}})
	reg.Apply(registry.Command{Verb: registry.VerbRegister, Service: "db", Addr: g2.Addr().String(),
		TTL: time.Hour, Load: broker.LoadReport{Service: "db", Outstanding: 8, Threshold: 16}})
	m := metrics.NewRegistry()
	p := fastPool(t, PoolConfig{
		Registry: reg,
		Metrics:  m,
		Breaker:  resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour},
	})
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	// Drive enough premium traffic to trip member one's breaker.
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if _, err := p.Do(ctx, "db", &broker.Request{Payload: []byte("x"), Class: qos.Class1}); err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
		cancel()
	}
	// With the breaker open, requests go straight to member two: failovers
	// stop accumulating.
	before := m.Counter("pool_failovers").Value()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if _, err := p.Do(ctx, "db", &broker.Request{Payload: []byte("x"), Class: qos.Class1}); err != nil {
			t.Fatalf("request after trip failed: %v", err)
		}
		cancel()
	}
	if after := m.Counter("pool_failovers").Value(); after != before {
		t.Fatalf("open breaker did not eject the dead member (failovers %d → %d)", before, after)
	}
	// /poolz rows must carry the breaker state.
	var sawOpen bool
	for _, v := range p.Status() {
		if v.Addr == g1.Addr().String() && v.State == "live/open" {
			sawOpen = true
		}
	}
	if !sawOpen {
		t.Fatalf("pool status missing open-breaker member: %+v", p.Status())
	}
}

// failingCaller is a pool member that records each request it is sent and
// fails it with a transport error.
type failingCaller struct {
	addr      string
	sent      *[]string
	deadlines map[string]time.Time // the deadline of each member's attempt
}

func (f failingCaller) Do(ctx context.Context, _ string, _ *broker.Request) (*broker.Response, error) {
	*f.sent = append(*f.sent, f.addr)
	if d, ok := ctx.Deadline(); ok {
		f.deadlines[f.addr] = d
	}
	return nil, errors.New("member unreachable")
}

func (failingCaller) Close() error { return nil }

// TestPoolPremiumTriesEveryMember pins the pool's class promise without a
// clock: before Do gives up on a premium request it has sent it to every
// member, the open-breaker ones last — both a member whose breaker was open
// all along and one that raced open between the candidate check and the
// attempt — while a low class stops after two live members.
func TestPoolPremiumTriesEveryMember(t *testing.T) {
	addrs := []string{"10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1", "10.0.0.4:1", "10.0.0.5:1"}
	epoch := time.Unix(1000, 0)
	var sent []string
	var deadlines map[string]time.Time
	newPool := func() *Pool {
		sent, deadlines = nil, make(map[string]time.Time)
		p := &Pool{cfg: PoolConfig{Gateways: addrs, AttemptTimeout: time.Hour}, members: make(map[string]*poolMember)}
		for _, addr := range addrs {
			cfg := resilience.BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour, Clock: func() time.Time { return epoch }}
			if addr == addrs[1] {
				// Tripping the breaker below reads the clock once. To the next
				// reader (the candidate check) the cooldown looks elapsed, to
				// the one after (the attempt) it does not: the breaker races
				// open in between.
				reads := 0
				cfg.Clock = func() time.Time {
					if reads++; reads == 2 {
						return epoch.Add(2 * time.Hour)
					}
					return epoch
				}
			}
			m := &poolMember{addr: addr, static: true, breaker: resilience.NewBreaker(addr, cfg), cli: failingCaller{addr, &sent, deadlines}}
			if addr == addrs[0] || addr == addrs[1] {
				m.breaker.Acquire()
				m.breaker.Done(errors.New("tripped"))
			}
			p.members[addr] = m
		}
		return p
	}

	if _, err := newPool().Do(context.Background(), "db", &broker.Request{Payload: []byte("x"), Class: qos.Class1}); err == nil {
		t.Fatal("premium request succeeded against an all-failing pool")
	}
	want := []string{addrs[2], addrs[3], addrs[4], addrs[0], addrs[1]}
	if !slices.Equal(sent, want) {
		t.Fatalf("premium request was sent to %v, want every member, open breakers last: %v", sent, want)
	}

	// A caller's deadline is budgeted over the live members only: the first
	// of the three gets at least a third of it and the last all that is left,
	// as if the two open-breaker members were not there. Those get the rest.
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(time.Minute))
	defer cancel()
	if _, err := newPool().Do(ctx, "db", &broker.Request{Payload: []byte("x"), Class: qos.Class1}); err == nil {
		t.Fatal("premium request with a deadline succeeded against an all-failing pool")
	}
	if !slices.Equal(sent, want) {
		t.Fatalf("premium request with a deadline was sent to %v, want %v", sent, want)
	}
	if got := deadlines[addrs[2]].Sub(start); got < time.Minute/3 {
		t.Errorf("first of three live members was given %v of a 1m deadline, want at least a third", got)
	}
	for _, addr := range []string{addrs[4], addrs[1]} {
		if got := deadlines[addr].Sub(start); got != time.Minute {
			t.Errorf("last live / last open member %s was given %v, want the whole remaining 1m", addr, got)
		}
	}

	if _, err := newPool().Do(context.Background(), "db", &broker.Request{Payload: []byte("x"), Class: qos.Class3}); err == nil {
		t.Fatal("class-3 request succeeded against an all-failing pool")
	}
	if want := []string{addrs[2], addrs[3]}; !slices.Equal(sent, want) {
		t.Fatalf("class-3 request was sent to %v, want two live members: %v", sent, want)
	}
}
