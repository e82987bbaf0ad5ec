package broker

import (
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/obs"
	"servicebroker/internal/overload"
	"servicebroker/internal/qos"
	"servicebroker/internal/sketch"
)

func TestHotKeyTrackingThroughBroker(t *testing.T) {
	b := newBroker(t, echoConnector("cgi"),
		WithCache(64, 0),
		WithHotKeys(sketch.Config{TopK: 8}))

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
	if b.ScrapeView().Gauges["hotkey_tracked"] == 0 {
		t.Fatal("hotkey_tracked gauge not published")
	}
}

func TestHotKeyTrackingWithoutCache(t *testing.T) {
	b := newBroker(t, echoConnector("cgi"), WithHotKeys(sketch.Config{TopK: 4}))
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
		WithTransactions(), WithIdempotency(8, time.Minute),
		WithAdaptiveLimit(overload.Config{Min: 2, Max: 32}))
	resp := full.Handle(context.Background(), &Request{
		Payload: []byte("hold sku-1"), Class: qos.Class1, TxnID: "order-7", TxnStep: 2, IdemKey: "hold"})
	if resp.Status != StatusOK {
		t.Fatalf("resp = %+v", resp)
	}
	pages := pageBodies(full, "orders")
	for page, wants := range map[string][]string{
		"/hotz": {"service=orders coalesce: flights=", "service=orders accesses=1 ", `key="hold sku-1"`},
		"/txnz": {"service=orders active=1 ", "  idempotency: size=1/8 ", "  txn=order-7 step=2 "},
	} {
		for _, w := range wants {
			if !strings.Contains(pages[page], w) {
				t.Errorf("%s missing %q:\n%s", page, w, pages[page])
			}
		}
	}
	if len(pages) != 4 {
		t.Errorf("full broker pages = %d, want 4: %v", len(pages), pages)
	}
	// The adaptive limit is read on /metrics, not on a page of its own.
	admin := obs.New()
	admin.MountRegistry("broker.orders.", full.Metrics())
	rec := httptest.NewRecorder()
	admin.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if n := metricValue(t, rec.Body.String(), "broker_orders_limit_current"); n < 2 || n > 32 {
		t.Errorf("broker_orders_limit_current = %d, want within [2, 32]", n)
	}
}

// metricValue returns the value of one sample line in a /metrics body.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s:\n%s", name, body)
	return 0
}

// The hot-key and coalescing gauges on /metrics are computed by the scrape
// itself: with nothing else reading the broker (no /hotz render, no
// HotKeySnapshot or CoalesceStats call) they still show the tracked keys and
// the flight that is open right now, and the flight's end on the next scrape.
func TestMetricsCurrentWithNoOtherReader(t *testing.T) {
	started, release := make(chan struct{}, 1), make(chan struct{})
	b := newBroker(t, &backend.FuncConnector{
		ServiceName: "db",
		DoFn: func(_ context.Context, p []byte) ([]byte, error) {
			if string(p) == "hold" {
				started <- struct{}{}
				<-release
			}
			return p, nil
		},
	}, WithCache(64, 0), WithHotKeys(sketch.Config{TopK: 8}), WithCoalescing(), WithWorkers(4))
	// Cleanups run last-in first-out: a failed check releases the held
	// flight before the broker's Close waits for it.
	var once sync.Once
	finish := func() { once.Do(func() { close(release) }) }
	t.Cleanup(finish)
	admin := obs.New()
	admin.MountRegistry("broker.db.", b.Metrics())
	admin.MountView("broker.db.", b.ScrapeView)
	scrape := func() string {
		rec := httptest.NewRecorder()
		admin.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}

	for i := 0; i < 5; i++ {
		if resp := b.Handle(context.Background(), &Request{Payload: []byte("hot"), Class: qos.Class1}); resp.Status != StatusOK {
			t.Fatalf("resp = %+v", resp)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp := b.Handle(context.Background(), &Request{Payload: []byte("hold"), Class: qos.Class1}); resp.Status != StatusOK {
				t.Errorf("resp = %+v", resp)
			}
		}()
	}
	<-started

	body := scrape()
	if n := metricValue(t, body, "broker_db_hotkey_tracked"); n == 0 {
		t.Errorf("broker_db_hotkey_tracked = 0 after 5 requests for one key")
	}
	if n := metricValue(t, body, "broker_db_hotkey_memory_bytes"); n <= 0 {
		t.Errorf("broker_db_hotkey_memory_bytes = %d", n)
	}
	if n := metricValue(t, body, "broker_db_coalesce_inflight"); n != 1 {
		t.Errorf("broker_db_coalesce_inflight = %d with one flight open, want 1", n)
	}

	finish()
	wg.Wait()
	if n := metricValue(t, scrape(), "broker_db_coalesce_inflight"); n != 0 {
		t.Errorf("broker_db_coalesce_inflight = %d after the flight ended, want 0", n)
	}
}
