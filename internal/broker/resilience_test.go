// Acceptance tests for the fault-tolerance layer: retry + breaker failover
// when one replica dies, stale-cache degradation when every replica is down,
// and the queue-expiry guard. External test package so the obs admin plane
// can be exercised against a live broker without an import cycle.
package broker_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/loadbalance"
	"servicebroker/internal/obs"
	"servicebroker/internal/qos"
	"servicebroker/internal/resilience"
	"servicebroker/internal/sqldb"
	"servicebroker/internal/testutil"
)

// faultyReplicas builds n FaultConnectors around instant echo backends.
func faultyReplicas(n int) []*backend.FaultConnector {
	out := make([]*backend.FaultConnector, n)
	for i := range out {
		out[i] = &backend.FaultConnector{Inner: &backend.DelayConnector{ServiceName: "db"}}
	}
	return out
}

func connectors(faults []*backend.FaultConnector) []backend.Connector {
	out := make([]backend.Connector, len(faults))
	for i, f := range faults {
		out[i] = f
	}
	return out
}

// TestKillOneReplicaFailsOverWithZeroErrors is the issue's first acceptance
// scenario: with 1 of 3 replicas dead, the dead replica's breaker opens
// within the failure threshold, every request still succeeds via the
// remaining replicas (retry hops off the dead one within a single request),
// and after recovery a half-open probe re-admits the replica.
func TestKillOneReplicaFailsOverWithZeroErrors(t *testing.T) {
	advance := testutil.FakeClock(t)
	faults := faultyReplicas(3)
	b, err := broker.New(nil,
		broker.WithReplicas(loadbalance.LeastOutstanding{}, 2, connectors(faults)...),
		broker.WithResilience(resilience.Config{
			// MaxAttempts must exceed FailureThreshold so one request's
			// retries can trip the dead replica's breaker and then land
			// on a healthy candidate.
			Retry:   resilience.RetryConfig{MaxAttempts: 4, BaseDelay: time.Millisecond},
			Breaker: resilience.BreakerConfig{FailureThreshold: 3, Cooldown: 50 * time.Millisecond},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	faults[0].SetDown(true)
	for i := 0; i < 10; i++ {
		resp := b.Handle(context.Background(), &broker.Request{Payload: []byte("q"), Class: qos.Class1, NoCache: true})
		if resp.Status != broker.StatusOK {
			t.Fatalf("request %d = %+v, want StatusOK (failover must hide the dead replica)", i, resp)
		}
	}

	snaps := b.BreakerSnapshots()
	if snaps[0].State != resilience.StateOpen {
		t.Fatalf("dead replica breaker = %s, want open (snapshots: %+v)", snaps[0].State, snaps)
	}
	if snaps[1].State != resilience.StateClosed || snaps[2].State != resilience.StateClosed {
		t.Fatalf("healthy replica breakers = %s/%s, want closed", snaps[1].State, snaps[2].State)
	}
	if got := b.Metrics().Counter("retries_total").Value(); got < 3 {
		t.Fatalf("retries_total = %d, want ≥ 3 (first request retried off the dead replica)", got)
	}
	if got := b.Metrics().Counter("breaker_opens_total").Value(); got != 1 {
		t.Fatalf("breaker_opens_total = %d, want 1", got)
	}
	if got := b.Metrics().Gauge("breaker_state_replica_0").Value(); got != int64(resilience.StateOpen) {
		t.Fatalf("breaker_state_replica_0 gauge = %d, want %d", got, int64(resilience.StateOpen))
	}

	// Revive the replica. Short of the cooldown its breaker still refuses
	// it; at the cooldown the next request probes it half-open, and the
	// success re-admits it.
	faults[0].SetDown(false)
	for _, step := range []time.Duration{50*time.Millisecond - time.Nanosecond, time.Nanosecond} {
		advance(step)
		resp := b.Handle(context.Background(), &broker.Request{Payload: []byte("q"), Class: qos.Class1, NoCache: true})
		if resp.Status != broker.StatusOK {
			t.Fatalf("post-recovery request = %+v", resp)
		}
	}
	if s := b.BreakerSnapshots()[0]; s.State != resilience.StateClosed || s.Successes != 1 {
		t.Fatalf("replica 0 not re-admitted by one probe at the cooldown: %+v", s)
	}
}

// TestTotalOutageServesStaleAtLowFidelity is the issue's second acceptance
// scenario: when every replica is down and retries are exhausted, a request
// whose result is still in the cache (expired) is answered at
// qos.FidelityLow instead of erroring, and the admin plane reflects the
// breaker state and the retry/degraded counters.
func TestTotalOutageServesStaleAtLowFidelity(t *testing.T) {
	advance := testutil.FakeClock(t)
	faults := faultyReplicas(2)
	b, err := broker.New(nil,
		broker.WithReplicas(loadbalance.LeastOutstanding{}, 2, connectors(faults)...),
		broker.WithCache(16, 20*time.Millisecond),
		broker.WithResilience(resilience.Config{
			Retry:      resilience.RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond},
			Breaker:    resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute},
			ServeStale: true,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Prime the cache, let the entry expire, then kill everything.
	req := func() *broker.Request { return &broker.Request{Payload: []byte("q"), Class: qos.Class1} }
	if resp := b.Handle(context.Background(), req()); resp.Status != broker.StatusOK || resp.Fidelity != qos.FidelityFull {
		t.Fatalf("prime = %+v", resp)
	}
	advance(20*time.Millisecond + time.Nanosecond)
	for _, f := range faults {
		f.SetDown(true)
	}

	resp := b.Handle(context.Background(), req())
	if resp.Status != broker.StatusOK || resp.Fidelity != qos.FidelityLow {
		t.Fatalf("outage resp = %+v, want StatusOK at FidelityLow", resp)
	}
	if string(resp.Payload) != "done:q" {
		t.Fatalf("stale payload = %q", resp.Payload)
	}
	if got := b.Metrics().Counter("degraded_total").Value(); got != 1 {
		t.Fatalf("degraded_total = %d, want 1", got)
	}
	if got := b.Metrics().Counter("retries_total").Value(); got < 1 {
		t.Fatalf("retries_total = %d, want ≥ 1", got)
	}
	if got := b.CacheStats().StaleHits; got != 1 {
		t.Fatalf("cache stale hits = %d, want 1", got)
	}

	// Without a stale entry the ladder bottoms out in an error (and the
	// remaining replica's breaker trips on the way).
	resp = b.Handle(context.Background(), &broker.Request{Payload: []byte("never-cached"), Class: qos.Class1})
	if resp.Status != broker.StatusError {
		t.Fatalf("uncached outage resp = %+v, want StatusError", resp)
	}

	// The admin plane must reflect the outage.
	s := obs.New()
	s.MountRegistry("broker.db.", b.Metrics())
	for page, render := range b.AdminPages("db") {
		s.AddRows(page, "db", render)
	}
	get := func(path string) string {
		rw := httptest.NewRecorder()
		s.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
		if rw.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rw.Code)
		}
		return rw.Body.String()
	}
	breakerz := get("/breakerz")
	if !strings.Contains(breakerz, "state=open") || !strings.Contains(breakerz, "service=db") {
		t.Fatalf("/breakerz missing open breakers:\n%s", breakerz)
	}
	metricsBody := get("/metrics")
	for _, want := range []string{
		"broker_db_retries_total",
		"broker_db_degraded_total 1",
		"broker_db_breaker_opens_total 2",
		"broker_db_breaker_state_replica_0 2",
		"broker_db_breaker_state_replica_1 2",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metricsBody)
		}
	}
}

// TestRefusedQueryIsNotRetried: a statement the database refuses is sent
// once per request, and the replica that refused it keeps a closed breaker.
func TestRefusedQueryIsNotRetried(t *testing.T) {
	db, err := sqldb.NewServer(sqldb.NewEngine(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	b, err := broker.New(nil,
		broker.WithReplicas(loadbalance.LeastOutstanding{}, 1, &backend.SQLConnector{Addr: db.Addr().String()}),
		broker.WithResilience(resilience.Config{
			Retry:   resilience.RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond},
			Breaker: resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 2; i++ {
		resp := b.Handle(context.Background(), &broker.Request{Payload: []byte("SELEKT 1"), Class: qos.Class1, NoCache: true})
		if resp.Status != broker.StatusError {
			t.Fatalf("request %d = %+v, want StatusError", i, resp)
		}
	}
	if got := db.Metrics().Counter("queries").Value(); got != 2 {
		t.Errorf("sqldb queries = %d, want 2", got)
	}
	if s := b.BreakerSnapshots()[0]; s.State != resilience.StateClosed {
		t.Errorf("breaker = %+v, want closed", s)
	}
}

// TestExpiredInQueueSkipsBackend verifies the worker drops jobs whose
// context died during the queue wait instead of spending backend capacity
// on a caller that is gone (satellite fix).
func TestExpiredInQueueSkipsBackend(t *testing.T) {
	// The FaultConnector injects nothing here; it is just the call counter.
	blocker := &backend.FaultConnector{
		Inner: &backend.DelayConnector{ServiceName: "db", ProcessTime: 150 * time.Millisecond},
	}
	b, err := broker.New(blocker, broker.WithWorkers(1), broker.WithThreshold(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Occupy the single worker, then enqueue a request that expires while
	// waiting behind it.
	go b.Handle(context.Background(), &broker.Request{Payload: []byte("fill"), Class: qos.Class1, NoCache: true})
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	resp := b.Handle(ctx, &broker.Request{Payload: []byte("late"), Class: qos.Class1, NoCache: true})
	if resp.Status != broker.StatusError || !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("expired resp = %+v", resp)
	}

	deadline := time.Now().Add(2 * time.Second)
	for b.Metrics().Counter("expired_in_queue").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("expired_in_queue = %d, want 1", b.Metrics().Counter("expired_in_queue").Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The backend saw only the fill request, never the expired one.
	if calls, _ := blocker.Stats(); calls > 1 {
		t.Fatalf("backend calls = %d, want 1 (expired job must not reach the backend)", calls)
	}
}
