package frontend

import (
	"context"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/fleet"
	"servicebroker/internal/metrics"
	"servicebroker/internal/qos"
	"servicebroker/internal/registry"
	"servicebroker/internal/resilience"
	"servicebroker/internal/trace"
)

// tracedPoolGateway spins up a broker+gateway member with span export
// enabled, the configuration brokerd runs with tracing on.
func tracedPoolGateway(t *testing.T, tag string) *broker.Gateway {
	t.Helper()
	rec := trace.NewRecorder(trace.WithExport(64))
	b, err := broker.New(&backend.DelayConnector{ServiceName: tag}, broker.WithTracer(rec))
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

// tracedDo runs one pool request under an active trace the way tracedCall
// does: trace in the context, remote spans merged back, trace finished.
func tracedDo(t *testing.T, p *Pool, rec *trace.Recorder, class qos.Class, payload string) (*broker.Response, error, trace.Trace) {
	t.Helper()
	tr := rec.Start(0, "db", int(class))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := p.Do(trace.NewContext(ctx, tr), "db", &broker.Request{
		Payload: []byte(payload), Class: class, TraceID: tr.ID()})
	if resp != nil {
		for _, sp := range resp.RemoteSpans {
			tr.RemoteSpan(sp.Stage, sp.Start, sp.End, sp.Note, sp.Broker)
		}
	}
	return resp, err, tr.Finish()
}

func TestPoolFailoverStitchesTraceAndPublishesEvents(t *testing.T) {
	g1 := tracedPoolGateway(t, "one")
	g2 := tracedPoolGateway(t, "two")
	// Lease loads pin the order: the soon-dead g1 looks idle so it is tried
	// first, forcing a failover hop onto the trace.
	reg := registry.New(registry.Config{})
	reg.Apply(registry.Command{Verb: registry.VerbRegister, Service: "db", Addr: g1.Addr().String(),
		TTL: time.Hour, Load: broker.LoadReport{Service: "db", Outstanding: 0, Threshold: 16}})
	reg.Apply(registry.Command{Verb: registry.VerbRegister, Service: "db", Addr: g2.Addr().String(),
		TTL: time.Hour, Load: broker.LoadReport{Service: "db", Outstanding: 8, Threshold: 16}})
	events := fleet.NewLog(32, nil)
	p := fastPool(t, PoolConfig{Registry: reg, Metrics: metrics.NewRegistry()})
	p.SetEvents(events)
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}

	rec := trace.NewRecorder()
	resp, err, tr := tracedDo(t, p, rec, qos.Class1, "x")
	if err != nil || resp.Status != broker.StatusOK {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}

	// One stitched tree: a failover hop naming the dead member, plus remote
	// spans attributed to the member that answered.
	var sawHop, sawRemote bool
	for _, sp := range tr.Spans {
		if sp.Stage == trace.StageFailover {
			sawHop = true
			if sp.Broker != "" {
				t.Fatalf("failover hop attributed to a remote broker: %+v", sp)
			}
		}
		if sp.Broker == g2.Addr().String() {
			sawRemote = true
		}
	}
	if !sawHop {
		t.Fatalf("no %s span on the stitched trace: %+v", trace.StageFailover, tr.Spans)
	}
	if !sawRemote {
		t.Fatalf("no span attributed to the surviving member %s: %+v", g2.Addr(), tr.Spans)
	}

	// The failover also landed on the event timeline, linked to this trace.
	var sawEvent bool
	for _, e := range events.Snapshot(0) {
		if e.Kind == fleet.KindFailover && e.Member == g1.Addr().String() {
			if e.TraceID != uint64(tr.ID) {
				t.Fatalf("failover event trace = %x, want %x", e.TraceID, uint64(tr.ID))
			}
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Fatalf("no failover event published: %+v", events.Snapshot(0))
	}
}

// Losing every member mid-trace must yield an annotated partial trace — the
// failover hops and the stale-serve note — rather than an error or an empty
// record.
func TestPoolTraceMergeUnderMemberLoss(t *testing.T) {
	g := poolGateway(t, "one")
	events := fleet.NewLog(32, nil)
	p := fastPool(t, PoolConfig{Gateways: []string{g.Addr().String()},
		Metrics: metrics.NewRegistry(),
		Breaker: resilience.BreakerConfig{FailureThreshold: 1000}})
	p.SetEvents(events)

	rec := trace.NewRecorder()
	// Seed the stale cache while the member is alive.
	if resp, err, _ := tracedDo(t, p, rec, qos.Class3, "q1"); err != nil || resp.Status != broker.StatusOK {
		t.Fatalf("seed request: resp=%+v err=%v", resp, err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err, tr := tracedDo(t, p, rec, qos.Class3, "q1")
	if err != nil {
		t.Fatalf("member loss surfaced as an error instead of a stale serve: %v", err)
	}
	if resp.Status != broker.StatusOK || resp.Fidelity != qos.FidelityLow {
		t.Fatalf("stale serve = status %v fidelity %v, want OK/low", resp.Status, resp.Fidelity)
	}
	// The partial trace is annotated: failover hops for the dead member and
	// the stale-serve note, with no remote spans (nothing answered).
	var hops int
	var sawStaleNote bool
	for _, sp := range tr.Spans {
		if sp.Stage == trace.StageFailover {
			hops++
			if sp.Note == "stale-serve: pool exhausted, answering from last-good cache" {
				sawStaleNote = true
			}
		}
		if sp.Broker != "" {
			t.Fatalf("dead pool produced a remote span: %+v", sp)
		}
	}
	if hops == 0 || !sawStaleNote {
		t.Fatalf("partial trace not annotated (hops=%d staleNote=%v): %+v", hops, sawStaleNote, tr.Spans)
	}
	var sawStaleEvent bool
	for _, e := range events.Snapshot(0) {
		if e.Kind == fleet.KindStaleServe && e.TraceID == uint64(tr.ID) {
			sawStaleEvent = true
		}
	}
	if !sawStaleEvent {
		t.Fatalf("no stale_serve event linked to the trace: %+v", events.Snapshot(0))
	}
}
