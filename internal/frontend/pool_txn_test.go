package frontend

import (
	"context"
	"testing"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/metrics"
	"servicebroker/internal/qos"
	"servicebroker/internal/registry"
	"servicebroker/internal/resilience"
)

// A low-class request at transaction step 2+ is premium for failover: it
// tries every member instead of giving up after two, because aborting a
// near-complete transaction forces compensation of the finished steps.
func TestPoolLateTxnStepsArePremium(t *testing.T) {
	dead1, dead2 := "127.0.0.1:1", "127.0.0.1:2"
	live := poolGateway(t, "three")

	reg := registry.New(registry.Config{})
	// Lease loads pin the order: both dead members look idler than the live
	// one, so a 2-attempt (non-premium) request never reaches it.
	reg.Apply(registry.Command{Verb: registry.VerbRegister, Service: "db", Addr: dead1, TTL: time.Hour,
		Load: broker.LoadReport{Service: "db", Outstanding: 0, Threshold: 16}})
	reg.Apply(registry.Command{Verb: registry.VerbRegister, Service: "db", Addr: dead2, TTL: time.Hour,
		Load: broker.LoadReport{Service: "db", Outstanding: 1, Threshold: 16}})
	reg.Apply(registry.Command{Verb: registry.VerbRegister, Service: "db", Addr: live.Addr().String(), TTL: time.Hour,
		Load: broker.LoadReport{Service: "db", Outstanding: 12, Threshold: 16}})

	m := metrics.NewRegistry()
	p := fastPool(t, PoolConfig{Registry: reg, Metrics: m,
		AttemptTimeout: 50 * time.Millisecond,
		Breaker:        resilience.BreakerConfig{FailureThreshold: 1000}})

	// Plain lowest-class request: capped at 2 attempts, both dead → error.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if _, err := p.Do(ctx, "db", &broker.Request{Payload: []byte("q"), Class: qos.Class3}); err == nil {
		t.Fatal("non-premium request reached the third member")
	}

	// Same class at txn step 2: premium, tries all three, succeeds.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	resp, err := p.Do(ctx2, "db", &broker.Request{Payload: []byte("q"), Class: qos.Class3,
		TxnID: "t1", TxnStep: 2, IdemKey: "charge"})
	if err != nil {
		t.Fatalf("step-2 request did not persist through failover: %v", err)
	}
	if resp.Status != broker.StatusOK {
		t.Fatalf("status = %v, want OK", resp.Status)
	}
}

// An idempotency-keyed mutation must never be stale-served or remembered for
// stale serving: a cached payload is not an executed effect.
func TestPoolNeverStaleServesIdemKeyedRequests(t *testing.T) {
	g := poolGateway(t, "one")
	p := fastPool(t, PoolConfig{Gateways: []string{g.Addr().String()},
		Metrics: metrics.NewRegistry(),
		Breaker: resilience.BreakerConfig{FailureThreshold: 1000}})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A keyed mutation succeeds while the pool is up...
	if _, err := p.Do(ctx, "db", &broker.Request{Payload: []byte("m1"), Class: qos.Class3,
		TxnID: "t1", TxnStep: 1, IdemKey: "hold"}); err != nil {
		t.Fatal(err)
	}
	// ...and a plain read of a different payload seeds the stale cache.
	if _, err := p.Do(ctx, "db", &broker.Request{Payload: []byte("r1"), Class: qos.Class3}); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	// The mutation's outcome was not remembered: replaying the same keyed
	// payload with the pool down errors instead of stale-serving.
	downCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if _, err := p.Do(downCtx, "db", &broker.Request{Payload: []byte("m1"), Class: qos.Class3,
		TxnID: "t1", TxnStep: 1, IdemKey: "hold"}); err == nil {
		t.Fatal("idempotency-keyed mutation was stale-served")
	}
	// The plain read still stale-serves — the guard is keyed, not global.
	downCtx2, cancel3 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel3()
	resp, err := p.Do(downCtx2, "db", &broker.Request{Payload: []byte("r1"), Class: qos.Class3})
	if err != nil || resp.Fidelity != qos.FidelityLow {
		t.Fatalf("plain read lost its stale fallback: resp=%+v err=%v", resp, err)
	}
}
