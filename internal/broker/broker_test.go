package broker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/cluster"
	"servicebroker/internal/loadbalance"
	"servicebroker/internal/qos"
	"servicebroker/internal/txn"
)

// echoConnector returns "done:<payload>" instantly.
func echoConnector(name string) backend.Connector {
	return &backend.DelayConnector{ServiceName: name}
}

// slowConnector takes d per request.
func slowConnector(name string, d time.Duration) backend.Connector {
	return &backend.DelayConnector{ServiceName: name, ProcessTime: d}
}

func newBroker(t *testing.T, c backend.Connector, opts ...Option) *Broker {
	t.Helper()
	b, err := New(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func TestHandleBasic(t *testing.T) {
	b := newBroker(t, echoConnector("cgi"))
	resp := b.Handle(context.Background(), &Request{Payload: []byte("q"), Class: qos.Class1})
	if resp.Status != StatusOK || resp.Fidelity != qos.FidelityFull {
		t.Fatalf("resp = %+v", resp)
	}
	if string(resp.Payload) != "done:q" {
		t.Fatalf("payload = %q", resp.Payload)
	}
	if b.Name() != "cgi" {
		t.Fatalf("name = %q", b.Name())
	}
}

func TestHandleNilRequest(t *testing.T) {
	b := newBroker(t, echoConnector("cgi"))
	if resp := b.Handle(context.Background(), nil); resp.Status != StatusError {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestInvalidClassDefaultsToLowest(t *testing.T) {
	b := newBroker(t, echoConnector("cgi"), WithThreshold(10, 3))
	resp := b.Handle(context.Background(), &Request{Payload: []byte("q")})
	if resp.Status != StatusOK {
		t.Fatalf("resp = %+v", resp)
	}
	if got := b.Metrics().Counter("requests_class_3").Value(); got != 1 {
		t.Fatalf("requests_class_3 = %d, want 1", got)
	}
}

func TestPersistentConnectionsAmortizeSetup(t *testing.T) {
	conn := &backend.DelayConnector{ServiceName: "db", ConnectTime: 30 * time.Millisecond}
	b := newBroker(t, conn, WithWorkers(1))
	// First request pays setup; the rest ride the persistent session.
	for i := 0; i < 5; i++ {
		if resp := b.Handle(context.Background(), &Request{Payload: []byte("q"), Class: qos.Class1}); resp.Status != StatusOK {
			t.Fatalf("request %d: %+v", i, resp)
		}
	}
	start := time.Now()
	b.Handle(context.Background(), &Request{Payload: []byte("q"), Class: qos.Class1})
	if elapsed := time.Since(start); elapsed > 25*time.Millisecond {
		t.Fatalf("warm request took %v; persistent session should skip the 30ms setup", elapsed)
	}
}

func TestThresholdDropsLowPriorityFirst(t *testing.T) {
	// One slow worker; threshold 6 with 3 classes ⇒ limits 6/4/2.
	b := newBroker(t, slowConnector("cgi", 200*time.Millisecond),
		WithThreshold(6, 3), WithWorkers(1))

	// Fill the broker with 2 outstanding class-1 requests.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Handle(context.Background(), &Request{Payload: []byte("fill"), Class: qos.Class1, NoCache: true})
		}()
	}
	time.Sleep(30 * time.Millisecond) // both admitted: outstanding = 2

	// Class 3 (limit 2) must now be dropped immediately...
	start := time.Now()
	resp := b.Handle(context.Background(), &Request{Payload: []byte("low"), Class: qos.Class3})
	if resp.Status != StatusShed || resp.Fidelity != qos.FidelityBusy {
		t.Fatalf("class-3 resp = %+v, want shed/busy", resp)
	}
	if resp.RetryAfter <= 0 {
		t.Fatalf("shed response carries no retry-after hint: %+v", resp)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("drop took %v, want immediate", elapsed)
	}
	// ...while class 1 (limit 6) is still admitted.
	done := make(chan *Response, 1)
	go func() {
		done <- b.Handle(context.Background(), &Request{Payload: []byte("high"), Class: qos.Class1})
	}()
	select {
	case resp := <-done:
		if resp.Status != StatusOK {
			t.Fatalf("class-1 resp = %+v", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("class-1 request never completed")
	}
	wg.Wait()

	if got := b.Metrics().Counter("shed_class_3").Value(); got != 1 {
		t.Fatalf("shed_class_3 = %d, want 1", got)
	}
	if got := b.Metrics().Counter("shed_class_1").Value(); got != 0 {
		t.Fatalf("shed_class_1 = %d, want 0", got)
	}
}

func TestPriorityScheduling(t *testing.T) {
	// One worker busy on a long job; then queue a low and a high priority
	// request. The high one must run first even though it arrived later.
	b := newBroker(t, slowConnector("cgi", 50*time.Millisecond),
		WithThreshold(20, 3), WithWorkers(1))

	var order []string
	var mu sync.Mutex
	record := func(tag string) {
		mu.Lock()
		order = append(order, tag)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupy the worker
		defer wg.Done()
		b.Handle(context.Background(), &Request{Payload: []byte("warm"), Class: qos.Class1, NoCache: true})
	}()
	time.Sleep(20 * time.Millisecond)

	wg.Add(2)
	go func() {
		defer wg.Done()
		b.Handle(context.Background(), &Request{Payload: []byte("low"), Class: qos.Class3, NoCache: true})
		record("low")
	}()
	time.Sleep(10 * time.Millisecond) // ensure the low request queues first
	go func() {
		defer wg.Done()
		b.Handle(context.Background(), &Request{Payload: []byte("high"), Class: qos.Class1, NoCache: true})
		record("high")
	}()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "high" {
		t.Fatalf("completion order = %v, want high first", order)
	}
}

func TestCacheHitServedWithoutBackend(t *testing.T) {
	var calls atomic.Int64
	fc := &backend.FuncConnector{
		ServiceName: "db",
		DoFn: func(_ context.Context, p []byte) ([]byte, error) {
			calls.Add(1)
			return append([]byte("r:"), p...), nil
		},
	}
	b := newBroker(t, fc, WithCache(16, 0))
	req := &Request{Payload: []byte("SELECT 1"), Class: qos.Class1}
	r1 := b.Handle(context.Background(), req)
	if r1.Status != StatusOK || r1.Fidelity != qos.FidelityFull {
		t.Fatalf("r1 = %+v", r1)
	}
	r2 := b.Handle(context.Background(), req)
	if r2.Status != StatusOK || r2.Fidelity != qos.FidelityCached {
		t.Fatalf("r2 = %+v, want cached fidelity", r2)
	}
	if string(r2.Payload) != "r:SELECT 1" {
		t.Fatalf("cached payload = %q", r2.Payload)
	}
	if calls.Load() != 1 {
		t.Fatalf("backend calls = %d, want 1", calls.Load())
	}
	if b.CacheStats().Hits != 1 {
		t.Fatalf("cache stats = %+v", b.CacheStats())
	}
}

func TestNoCacheBypassesCache(t *testing.T) {
	var calls atomic.Int64
	fc := &backend.FuncConnector{
		ServiceName: "db",
		DoFn: func(_ context.Context, p []byte) ([]byte, error) {
			calls.Add(1)
			return p, nil
		},
	}
	b := newBroker(t, fc, WithCache(16, 0))
	req := &Request{Payload: []byte("Q"), Class: qos.Class1, NoCache: true}
	b.Handle(context.Background(), req)
	b.Handle(context.Background(), req)
	if calls.Load() != 2 {
		t.Fatalf("backend calls = %d, want 2", calls.Load())
	}
}

func TestDroppedRequestServedStaleCache(t *testing.T) {
	b := newBroker(t, slowConnector("cgi", 150*time.Millisecond),
		WithThreshold(3, 3), WithWorkers(1), WithCache(16, 0))

	// Warm the cache for the query.
	warm := b.Handle(context.Background(), &Request{Payload: []byte("popular"), Class: qos.Class1})
	if warm.Status != StatusOK {
		t.Fatalf("warm = %+v", warm)
	}

	// Saturate class 3's share (threshold 3 ⇒ class-3 limit 1).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.Handle(context.Background(), &Request{Payload: []byte("fill"), Class: qos.Class1, NoCache: true})
	}()
	time.Sleep(30 * time.Millisecond)

	resp := b.Handle(context.Background(), &Request{Payload: []byte("popular"), Class: qos.Class3, NoCache: false})
	// Fresh cache hits are served before admission, so this comes back as a
	// cached OK rather than a drop — force a drop with a distinct payload
	// that has a stale entry by pre-seeding then expiring... simpler: the
	// cached path IS the paper's behaviour (cached results shield the
	// backend). Verify that.
	if resp.Status != StatusOK || resp.Fidelity != qos.FidelityCached {
		t.Fatalf("resp = %+v, want cached hit shielding the backend", resp)
	}
	wg.Wait()
}

func TestDroppedRequestDegradedReply(t *testing.T) {
	// Force the drop path to consult the cache: use a payload whose cache
	// entry exists but the request asks NoCache on the way in? NoCache skips
	// the drop-path cache too. Instead: drop with an empty cache yields
	// busy; then warm the cache via a full request and drop again after
	// evicting freshness is irrelevant (entries never expire) — the fresh
	// hit precedes admission. The degraded path is therefore only reachable
	// when the fresh-hit check is skipped: exercise drop() directly.
	b := newBroker(t, echoConnector("cgi"), WithCache(4, 0))
	b.results.Put("key", []byte("stale result"))
	r := &flow{req: &Request{Payload: []byte("key")}, class: qos.Class3, key: "key", shareable: true}
	resp := b.refuse(r, StatusDropped, "test")
	if resp.Status != StatusDropped || resp.Fidelity != qos.FidelityDegraded {
		t.Fatalf("resp = %+v, want dropped/degraded", resp)
	}
	if string(resp.Payload) != "stale result" {
		t.Fatalf("payload = %q", resp.Payload)
	}
}

func TestClusteringReducesBackendCalls(t *testing.T) {
	var calls atomic.Int64
	fc := &backend.FuncConnector{
		ServiceName: "db",
		DoFn: func(_ context.Context, p []byte) ([]byte, error) {
			calls.Add(1)
			time.Sleep(10 * time.Millisecond)
			return []byte("result"), nil
		},
	}
	b := newBroker(t, fc,
		WithThreshold(40, 3),
		WithWorkers(16),
		WithClustering(cluster.RepeatCombiner{}, 8, 20*time.Millisecond))

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := b.Handle(context.Background(), &Request{Payload: []byte("SAME QUERY"), Class: qos.Class1, NoCache: true})
			if resp.Status != StatusOK {
				t.Errorf("resp = %+v", resp)
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got >= n {
		t.Fatalf("backend calls = %d, want < %d (clustered)", got, n)
	}
}

func TestTransactionEscalationBeatsBaseClass(t *testing.T) {
	// Threshold 3, classes 3 ⇒ limits 3/2/1. Fill one slot; a plain class-3
	// request is dropped, but the same class at transaction step 3 escalates
	// to class 1 and is admitted.
	b := newBroker(t, slowConnector("cgi", 150*time.Millisecond),
		WithThreshold(3, 3), WithWorkers(1), WithTransactions())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.Handle(context.Background(), &Request{Payload: []byte("fill"), Class: qos.Class1})
	}()
	time.Sleep(30 * time.Millisecond)

	if resp := b.Handle(context.Background(), &Request{Payload: []byte("p"), Class: qos.Class3}); resp.Status != StatusShed {
		t.Fatalf("plain class-3 = %+v, want shed", resp)
	}
	done := make(chan *Response, 1)
	go func() {
		done <- b.Handle(context.Background(), &Request{
			Payload: []byte("t"), Class: qos.Class3, TxnID: "supply-1", TxnStep: 3,
		})
	}()
	select {
	case resp := <-done:
		if resp.Status != StatusOK {
			t.Fatalf("escalated = %+v, want ok", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("escalated request never completed")
	}
	wg.Wait()

	if s, ok := b.Tracker().Lookup("supply-1"); !ok || s.Step != 3 {
		t.Fatalf("tracker state = %+v, %v", s, ok)
	}
}

func TestContractSheddingUnderLightLoad(t *testing.T) {
	b := newBroker(t, echoConnector("web"),
		WithContract(qos.Class2, 1000, 2)) // burst of 2, then rate-limited
	ok, dropped := 0, 0
	for i := 0; i < 4; i++ {
		resp := b.Handle(context.Background(), &Request{Payload: []byte(fmt.Sprintf("q%d", i)), Class: qos.Class2})
		switch resp.Status {
		case StatusOK:
			ok++
		case StatusDropped:
			dropped++
		}
	}
	if ok != 2 || dropped != 2 {
		t.Fatalf("ok = %d dropped = %d, want 2/2 (burst exhausted)", ok, dropped)
	}
	// Other classes are unaffected.
	if resp := b.Handle(context.Background(), &Request{Payload: []byte("other"), Class: qos.Class1}); resp.Status != StatusOK {
		t.Fatalf("class-1 = %+v", resp)
	}
}

// The hot flag of a load report is outstanding ≥ 0.9 × threshold, evaluated
// when the report is taken.
func TestLoadReportHotUnderLoad(t *testing.T) {
	g := newGateConnector()
	b := newBroker(t, g.connector(), WithThreshold(3, 1), WithWorkers(3))
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.Handle(context.Background(), &Request{Payload: []byte(fmt.Sprintf("q%d", i)), Class: qos.Class1})
		}(i)
		<-g.started
	}
	if r := b.Load(); !r.Hot || r.Outstanding != 3 {
		t.Fatalf("report under load = %+v, want hot with 3 outstanding", r)
	}
	close(g.release)
	wg.Wait()
	if r := b.Load(); r.Hot || r.Outstanding != 0 {
		t.Fatalf("report at rest = %+v, want cool", r)
	}
}

func TestLoadReport(t *testing.T) {
	b := newBroker(t, echoConnector("cgi"), WithThreshold(10, 2))
	r := b.Load()
	if r.Service != "cgi" || r.Threshold != 10 || r.Outstanding != 0 || r.Hot {
		t.Fatalf("report = %+v", r)
	}
}

func TestReplicatedBroker(t *testing.T) {
	r0 := &backend.DelayConnector{ServiceName: "r0"}
	r1 := &backend.DelayConnector{ServiceName: "r1"}
	b, err := New(nil, WithReplicas(&loadbalance.RoundRobin{}, 2, r0, r1))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 4; i++ {
		if resp := b.Handle(context.Background(), &Request{Payload: []byte("q"), Class: qos.Class1}); resp.Status != StatusOK {
			t.Fatalf("resp = %+v", resp)
		}
	}
	// The broker takes the replicated service's name so traces and load
	// reports stay attributable.
	if b.Name() != "r0" {
		t.Fatalf("name = %q", b.Name())
	}
}

func TestPrefetchWarmsCache(t *testing.T) {
	var calls atomic.Int64
	fc := &backend.FuncConnector{
		ServiceName: "news",
		DoFn: func(_ context.Context, p []byte) ([]byte, error) {
			calls.Add(1)
			return append([]byte("headline:"), p...), nil
		},
	}
	b := newBroker(t, fc,
		WithCache(16, 0),
		WithPrefetch(20*time.Millisecond, 5, func() [][]byte {
			return [][]byte{[]byte("/headlines")}
		}))

	// Wait for a prefetch round.
	deadline := time.After(2 * time.Second)
	for b.Metrics().Counter("prefetched").Value() == 0 {
		select {
		case <-deadline:
			t.Fatal("prefetch never ran")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	// The request is now a cache hit without touching the backend again.
	before := calls.Load()
	resp := b.Handle(context.Background(), &Request{Payload: []byte("/headlines"), Class: qos.Class1})
	if resp.Status != StatusOK || resp.Fidelity != qos.FidelityCached {
		t.Fatalf("resp = %+v, want cached", resp)
	}
	if calls.Load() != before {
		t.Fatal("prefetched request still hit the backend")
	}
}

func TestBackendErrorSurfaced(t *testing.T) {
	fc := &backend.FuncConnector{
		ServiceName: "down",
		DoFn: func(context.Context, []byte) ([]byte, error) {
			return nil, errors.New("backend exploded")
		},
	}
	b := newBroker(t, fc)
	resp := b.Handle(context.Background(), &Request{Payload: []byte("q"), Class: qos.Class1})
	if resp.Status != StatusError || resp.Err == nil {
		t.Fatalf("resp = %+v", resp)
	}
	if got := b.Metrics().Counter("backend_errors").Value(); got != 1 {
		t.Fatalf("backend_errors = %d", got)
	}
}

func TestCloseRejectsNewRequests(t *testing.T) {
	b, err := New(echoConnector("cgi"))
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	resp := b.Handle(context.Background(), &Request{Payload: []byte("q"), Class: qos.Class1})
	if resp.Status != StatusError || !errors.Is(resp.Err, ErrBrokerClosed) {
		t.Fatalf("resp = %+v", resp)
	}
	b.Close() // idempotent
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil connector accepted")
	}
	if _, err := New(echoConnector("x"), WithThreshold(0, 3)); err == nil {
		t.Fatal("zero threshold accepted")
	}
	if _, err := New(echoConnector("x"), WithWorkers(0)); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := New(echoConnector("x"), WithCache(0, 0)); err == nil {
		t.Fatal("zero cache accepted")
	}
	if _, err := New(echoConnector("x"), WithClustering(nil, 2, 0)); err == nil {
		t.Fatal("nil combiner accepted")
	}
	if _, err := New(echoConnector("x"), WithPrefetch(time.Second, 1, func() [][]byte { return nil })); err == nil {
		t.Fatal("prefetch without cache accepted")
	}
	if _, err := New(echoConnector("x"), WithReplicas(&loadbalance.RoundRobin{}, 1, echoConnector("r"))); err == nil {
		t.Fatal("connector plus replicas accepted")
	}
}

func TestStatusString(t *testing.T) {
	if StatusOK.String() != "ok" || StatusDropped.String() != "dropped" || StatusError.String() != "error" || StatusShed.String() != "shed" {
		t.Fatal("status names wrong")
	}
	if Status(42).String() != "status(42)" {
		t.Fatal("fallback name wrong")
	}
}

func TestConcurrentMixedClasses(t *testing.T) {
	b := newBroker(t, slowConnector("cgi", time.Millisecond),
		WithThreshold(20, 3), WithWorkers(8))
	var wg sync.WaitGroup
	var ok, dropped atomic.Int64
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := b.Handle(context.Background(), &Request{
				Payload: []byte(fmt.Sprintf("q%d", i)),
				Class:   qos.Class(i%3 + 1),
			})
			switch resp.Status {
			case StatusOK:
				ok.Add(1)
			case StatusDropped, StatusShed:
				dropped.Add(1)
			default:
				t.Errorf("unexpected resp %+v", resp)
			}
		}(i)
	}
	wg.Wait()
	if ok.Load()+dropped.Load() != 100 {
		t.Fatalf("ok %d + dropped %d != 100", ok.Load(), dropped.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("nothing completed")
	}
}

func TestSharedTransactionTracker(t *testing.T) {
	// A step observed at one broker escalates the transaction's later
	// accesses at another broker sharing the tracker.
	shared := txn.NewTracker()
	monitors := newBroker(t, slowConnector("monitors", 150*time.Millisecond),
		WithThreshold(3, 3), WithWorkers(1), WithSharedTransactions(shared))
	cards := newBroker(t, echoConnector("cards"), WithSharedTransactions(shared))

	// Advance the transaction at the cards broker.
	if resp := cards.Handle(context.Background(), &Request{
		Payload: []byte("pick"), Class: qos.Class3, TxnID: "shared-txn", TxnStep: 2,
	}); resp.Status != StatusOK {
		t.Fatalf("cards resp = %+v", resp)
	}
	// Both brokers see the same state.
	if s, ok := monitors.Tracker().Lookup("shared-txn"); !ok || s.Step != 2 {
		t.Fatalf("monitors tracker state = %+v, %v", s, ok)
	}
	if monitors.Tracker() != cards.Tracker() {
		t.Fatal("trackers not shared")
	}

	// Saturate the monitors broker, then verify the escalated step-3 access
	// is admitted where a flat class-3 request is shed.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		monitors.Handle(context.Background(), &Request{Payload: []byte("fill"), Class: qos.Class1})
	}()
	time.Sleep(30 * time.Millisecond)
	if resp := monitors.Handle(context.Background(), &Request{Payload: []byte("p"), Class: qos.Class3}); resp.Status != StatusShed {
		t.Fatalf("flat class-3 = %+v, want shed", resp)
	}
	done := make(chan *Response, 1)
	go func() {
		done <- monitors.Handle(context.Background(), &Request{
			Payload: []byte("purchase"), Class: qos.Class3, TxnID: "shared-txn", TxnStep: 3,
		})
	}()
	select {
	case resp := <-done:
		if resp.Status != StatusOK {
			t.Fatalf("escalated = %+v", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("escalated request never completed")
	}
	wg.Wait()
}

func TestWithSharedTransactionsValidation(t *testing.T) {
	if _, err := New(echoConnector("x"), WithSharedTransactions(nil)); err == nil {
		t.Fatal("nil shared tracker accepted")
	}
}

// TestOutstandingNeverExceedsThreshold hammers the broker from many
// goroutines and samples its load report concurrently: the admission
// invariant (outstanding ≤ threshold) must hold at every sample.
func TestOutstandingNeverExceedsThreshold(t *testing.T) {
	const threshold = 10
	b := newBroker(t, slowConnector("cgi", 2*time.Millisecond),
		WithThreshold(threshold, 3), WithWorkers(threshold))

	stop := make(chan struct{})
	violations := make(chan int, 1)
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if r := b.Load(); r.Outstanding > r.Threshold {
				select {
				case violations <- r.Outstanding:
				default:
				}
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				b.Handle(context.Background(), &Request{
					Payload: []byte(fmt.Sprintf("q-%d-%d", i, j)),
					Class:   qos.Class(i%3 + 1),
					NoCache: true,
				})
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	select {
	case n := <-violations:
		t.Fatalf("outstanding reached %d, threshold %d", n, threshold)
	default:
	}
}

// TestPrefetchSkipsUnderLoad verifies the prefetcher defers to foreground
// traffic: while outstanding ≥ lowWater it must not touch the backend.
func TestPrefetchSkipsUnderLoad(t *testing.T) {
	b := newBroker(t, slowConnector("news", 300*time.Millisecond),
		WithThreshold(8, 1), WithWorkers(2),
		WithCache(16, 0),
		WithPrefetch(10*time.Millisecond, 1, func() [][]byte {
			return [][]byte{[]byte("/headlines")}
		}))

	// Keep one request outstanding (≥ lowWater 1) for several prefetch
	// intervals.
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Handle(context.Background(), &Request{Payload: []byte("busywork"), Class: qos.Class1, NoCache: true})
	}()
	time.Sleep(100 * time.Millisecond)
	if got := b.Metrics().Counter("prefetched").Value(); got != 0 {
		t.Fatalf("prefetched = %d while busy, want 0", got)
	}
	if got := b.Metrics().Counter("prefetch_skipped").Value(); got == 0 {
		t.Fatal("prefetch_skipped = 0; skip path never taken")
	}
	<-done
}
