package broker

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/overload"
	"servicebroker/internal/qos"
	"servicebroker/internal/sketch"
	"servicebroker/internal/slo"
	"servicebroker/internal/trace"
)

func TestHotKeyTrackingThroughBroker(t *testing.T) {
	b := newBroker(t, echoConnector("cgi"),
		WithCache(64, 0),
		WithHotKeys(sketch.Config{TopK: 8, Shards: 2}))

	// "hot" is requested 20 times: first a miss filled from the backend,
	// then fresh hits; "cold-*" once each.
	for i := 0; i < 20; i++ {
		resp := b.Handle(context.Background(), &Request{Payload: []byte("hot"), Class: qos.Class1})
		if resp.Status != StatusOK {
			t.Fatalf("resp = %+v", resp)
		}
	}
	for _, p := range []string{"cold-a", "cold-b"} {
		b.Handle(context.Background(), &Request{Payload: []byte(p), Class: qos.Class1})
	}

	snap, ok := b.HotKeySnapshot()
	if !ok {
		t.Fatal("HotKeySnapshot not available despite WithHotKeys")
	}
	if len(snap.Keys) == 0 || snap.Keys[0].Key != "hot" {
		t.Fatalf("top key = %+v, want \"hot\" first", snap.Keys)
	}
	hot := snap.Keys[0]
	if hot.Count < 20 {
		t.Fatalf("hot count = %d, want ≥ 20", hot.Count)
	}
	// 19 of 20 lookups were fresh hits.
	if hot.HitRatio < 0.9 {
		t.Fatalf("hot hit ratio = %v, want ≥ 0.9", hot.HitRatio)
	}
	if hot.P95LatencyUs <= 0 {
		t.Fatalf("hot p95 = %v, want > 0", hot.P95LatencyUs)
	}
	if snap.MemoryBytes <= 0 {
		t.Fatal("MemoryBytes not reported")
	}
	if b.Metrics().Gauge("hotkey_tracked").Value() == 0 {
		t.Fatal("hotkey_tracked gauge not published")
	}
}

func TestHotKeyTrackingWithoutCache(t *testing.T) {
	b := newBroker(t, echoConnector("cgi"), WithHotKeys(sketch.Config{TopK: 4, Shards: 1}))
	for i := 0; i < 5; i++ {
		b.Handle(context.Background(), &Request{Payload: []byte("q"), Class: qos.Class1})
	}
	snap, ok := b.HotKeySnapshot()
	if !ok || len(snap.Keys) == 0 {
		t.Fatalf("snapshot = %+v, want tracked keys without a cache", snap)
	}
	if snap.Keys[0].Key != "q" || snap.Keys[0].HitRatio != 0 {
		t.Fatalf("key = %+v, want q with zero hit ratio", snap.Keys[0])
	}
}

func TestSLORecordingThroughBroker(t *testing.T) {
	var logBuf bytes.Buffer
	b := newBroker(t, echoConnector("cgi"),
		WithCache(16, 0),
		WithSLO(slo.Config{
			Objectives: []slo.Objective{{
				Class:            qos.Class1,
				LatencyTarget:    5 * time.Second, // generous: everything is fast
				LatencyGoal:      0.9,
				AvailabilityGoal: 0.99,
			}},
			FastWindow: time.Second,
			SlowWindow: 4 * time.Second,
			Resolution: 100 * time.Millisecond,
			Logger:     slog.New(slog.NewTextHandler(&logBuf, nil)),
		}))

	for i := 0; i < 10; i++ {
		resp := b.Handle(context.Background(), &Request{Payload: []byte("k"), Class: qos.Class1})
		if resp.Status != StatusOK {
			t.Fatalf("resp = %+v", resp)
		}
	}
	st, ok := b.SLOStatus()
	if !ok {
		t.Fatal("SLOStatus not available despite WithSLO")
	}
	if len(st.Classes) != 1 {
		t.Fatalf("classes = %+v", st.Classes)
	}
	c := st.Classes[0]
	if c.State != "ok" {
		t.Fatalf("state = %q, want ok", c.State)
	}
	if c.FastTotal != 10 {
		t.Fatalf("fast total = %d, want 10", c.FastTotal)
	}
	// The backend miss plus nine cache hits must have produced stage
	// attribution including cache and backend time.
	seen := map[trace.Stage]bool{}
	for _, s := range c.Stages {
		seen[s.Stage] = true
	}
	if !seen[trace.StageCache] || !seen[trace.StageBackend] || !seen[trace.StageQueue] {
		t.Fatalf("stages = %+v, want cache+backend+queue attribution", c.Stages)
	}
	// Gauges land in the broker's registry by default.
	if got := b.Metrics().Gauge("slo_state_class_1").Value(); got != int64(slo.StateOK) {
		t.Fatalf("slo_state_class_1 = %d, want ok", got)
	}
}

// pageBodies renders every admin page the broker enumerates.
func pageBodies(b *Broker, service string) map[string]string {
	out := make(map[string]string)
	for page, render := range b.AdminPages(service) {
		var buf strings.Builder
		render(&buf, 0)
		out[page] = buf.String()
	}
	return out
}

// A broker has rows for the pages of the features it was built with and no
// others; the always-on pages say so when their feature is off.
func TestAdminPagesFollowFeatures(t *testing.T) {
	bare := pageBodies(newBroker(t, echoConnector("db"), WithThreshold(20, 3)), "orders")
	want := map[string]string{
		"/loadz":    "service=db outstanding=0 threshold=20 queue=0 hot=false\n",
		"/breakerz": "service=orders breakers disabled\n",
		"/limitz":   "service=orders static threshold (adaptive limiting disabled)\n",
	}
	if len(bare) != len(want) {
		t.Fatalf("bare broker pages = %v, want exactly %v", bare, want)
	}
	for page, body := range want {
		if bare[page] != body {
			t.Errorf("%s = %q, want %q", page, bare[page], body)
		}
	}

	full := newBroker(t, echoConnector("db"),
		WithHotKeys(sketch.Config{TopK: 4}), WithCoalescing(), WithCache(64, time.Minute),
		WithSLO(slo.Config{Objectives: slo.DefaultObjectives()}),
		WithTransactions(), WithIdempotency(8, time.Minute),
		WithAdaptiveLimit(overload.Config{Min: 2, Max: 32}))
	resp := full.Handle(context.Background(), &Request{
		Payload: []byte("hold sku-1"), Class: qos.Class1, TxnID: "order-7", TxnStep: 2, IdemKey: "hold"})
	if resp.Status != StatusOK {
		t.Fatalf("resp = %+v", resp)
	}
	pages := pageBodies(full, "orders")
	for page, wants := range map[string][]string{
		"/limitz": {"service=orders limit=", " min=2 max=32 "},
		"/hotz":   {"service=orders coalesce: flights=", "service=orders accesses=1 ", `key="hold sku-1"`},
		"/sloz":   {"service=orders fast_window=", "  class=1 state=ok "},
		"/txnz":   {"service=orders active=1 ", "  idempotency: size=1/8 ", "  txn=order-7 step=2 "},
	} {
		for _, w := range wants {
			if !strings.Contains(pages[page], w) {
				t.Errorf("%s missing %q:\n%s", page, w, pages[page])
			}
		}
	}
	if len(pages) != 6 {
		t.Errorf("full broker pages = %d, want 6: %v", len(pages), pages)
	}
}
