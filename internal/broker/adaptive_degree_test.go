package broker

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/cluster"
	"servicebroker/internal/qos"
)

func TestAdaptiveDegreeRequiresClustering(t *testing.T) {
	_, err := New(echoConnector("x"),
		WithAdaptiveDegree(cluster.AdaptiveConfig{MaxDegree: 8}))
	if err == nil {
		t.Fatal("WithAdaptiveDegree without WithClustering accepted")
	}
}

func TestAdaptiveDegreeThroughBroker(t *testing.T) {
	fc := &backend.FuncConnector{
		ServiceName: "db",
		DoFn: func(_ context.Context, p []byte) ([]byte, error) {
			time.Sleep(time.Millisecond)
			return []byte("result"), nil
		},
	}
	b := newBroker(t, fc,
		WithThreshold(64, 3),
		WithWorkers(16),
		WithClustering(cluster.RepeatCombiner{}, 2, 5*time.Millisecond),
		WithAdaptiveDegree(cluster.AdaptiveConfig{MaxDegree: 8, EpochBatches: 2}))

	if got := b.ClusterDegree(); got != 2 {
		t.Fatalf("initial ClusterDegree = %d, want 2", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 48; i++ {
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

	deg := b.ClusterDegree()
	if deg < 1 || deg > 8 {
		t.Fatalf("ClusterDegree = %d escaped [1, 8]", deg)
	}
	// The live degree gauge rides in the broker registry so /metrics and
	// /graphz pick it up with no extra wiring.
	if g := b.Metrics().Gauge("cluster_degree_current").Value(); g != int64(deg) {
		t.Fatalf("cluster_degree_current gauge = %d, ClusterDegree = %d", g, deg)
	}
}

func TestCacheShardView(t *testing.T) {
	b := newBroker(t, echoConnector("db"), WithCache(1024, time.Minute))
	for i := 0; i < 3; i++ {
		resp := b.Handle(context.Background(), &Request{Payload: []byte("q"), Class: qos.Class1})
		if resp.Status != StatusOK {
			t.Fatalf("resp = %+v", resp)
		}
	}
	view := b.CacheShardView()
	for _, name := range []string{"cache_shard0_hits", "cache_shard0_misses", "cache_shard0_stale_hits"} {
		if _, ok := view.Counters[name]; !ok {
			t.Fatalf("view has no counter %s: %v", name, view.Counters)
		}
	}
	if _, ok := view.Gauges["cache_shard0_entries"]; !ok {
		t.Fatalf("view has no gauge cache_shard0_entries: %v", view.Gauges)
	}
	var sum int64
	for name, v := range view.Counters {
		if strings.HasSuffix(name, "_hits") && !strings.HasSuffix(name, "_stale_hits") {
			sum += v
		}
	}
	if total := b.CacheStats().Hits; sum != total || total == 0 {
		t.Fatalf("shard hits sum = %d, CacheStats hits = %d (want equal, nonzero)", sum, total)
	}

	plain := newBroker(t, echoConnector("db"))
	if got := plain.CacheShardView(); len(got.Counters)+len(got.Gauges) != 0 {
		t.Fatalf("CacheShardView without cache = %v, want empty", got)
	}
}
